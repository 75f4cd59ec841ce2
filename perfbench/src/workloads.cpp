#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <utility>

#include "core/factory.h"
#include "decorators.h"
#include "eval/experiment.h"
#include "metrics/objectives.h"
#include "metrics/resilience.h"
#include "metrics/streaming.h"
#include "serve/daemon.h"
#include "serve/loadgen.h"
#include "sim/schedule.h"
#include "sim/simulator.h"
#include "sim/streaming.h"
#include "tracer.h"
#include "util/latency.h"
#include "workload/ctc_model.h"
#include "workload/transforms.h"

namespace perfbench {

namespace {

using namespace jsched;

struct WorkloadName {
  WorkloadKind kind;
  const char* name;
};

constexpr WorkloadName kWorkloads[] = {
    {WorkloadKind::kGridCtc, "grid_ctc"},
    {WorkloadKind::kStreamCtc, "stream_ctc"},
    {WorkloadKind::kServeCons4x, "serve_cons_4x"},
    {WorkloadKind::kServeEasy4x, "serve_easy_4x"},
};

double seconds_between(std::int64_t t0, std::int64_t t1) {
  return static_cast<double>(t1 - t0) * 1e-9;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Peak resident set of this process image (VmHWM). getrusage's ru_maxrss
/// is not used: it keeps the high-water mark of the process that forked
/// this one across exec, so it would report the launcher's memory.
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  throw std::runtime_error("VmHWM not found in /proc/self/status");
}

/// Times a workload's set-up. Calls are timed in batches of at least a
/// millisecond, so set-up that takes microseconds is not swamped by clock
/// overhead. A few batches are sampled before the first pass and one more
/// before every later pass: host speed on a shared machine shifts over
/// seconds, and samples spread over the run meet the same speeds as its
/// passes. The first, cold call is not counted.
class SetupTimer {
 public:
  explicit SetupTimer(std::function<void()> setup) : setup_(std::move(setup)) {
    const std::int64_t t0 = now_ns();
    setup_();
    const double first = seconds_between(t0, now_ns());
    batch_ = static_cast<std::size_t>(
        std::clamp(std::ceil(1e-3 / std::max(first, 1e-9)), 1.0, 10'000.0));
  }

  /// Before the first pass: at least three batches, and more until 0.2 s
  /// have passed.
  void sample_initial() {
    const std::int64_t begin = now_ns();
    while (samples.size() < 3 ||
           (seconds_between(begin, now_ns()) < 0.2 && samples.size() < 1000)) {
      sample();
    }
  }

  /// One batch.
  void sample() {
    const std::int64_t t0 = now_ns();
    for (std::size_t i = 0; i < batch_; ++i) setup_();
    samples.push_back(seconds_between(t0, now_ns()) / static_cast<double>(batch_));
  }

  /// Seconds per set-up call, one entry per batch.
  std::vector<double> samples;

 private:
  std::function<void()> setup_;
  std::size_t batch_ = 1;
};

/// What one successful untraced pass measured, in wall-clock terms.
struct PassTiming {
  double jobs = 0.0;     // completed (13 x trace jobs for a grid pass)
  double wall_s = 0.0;
  double sched_s = 0.0;  // the pass's scheduler time (see sched_cpu_s)
  util::LatencyHistogram rounds_ns;  // decision rounds of the pass
};

Metric metric(std::string name, double value, std::string unit,
              std::string note = {}) {
  return Metric{std::move(name), value, std::move(unit), std::move(note)};
}

double us(std::uint64_t ns) { return static_cast<double>(ns) * 1e-3; }

std::string samples_note(std::uint64_t n, const char* what) {
  return "n=" + std::to_string(n) + " " + what;
}

/// One workload: its inputs, its passes and what they observed.
class Runner {
 public:
  virtual ~Runner() = default;
  Runner() = default;
  Runner(const Runner&) = delete;
  Runner& operator=(const Runner&) = delete;

  /// Build the inputs of the run (timed; called several times).
  virtual void setup() = 0;
  /// One untraced pass; a successful one appends to `timings`.
  virtual PassRecord pass(std::size_t k, RunReport& report) = 0;
  /// Pass k again, with every layer call traced.
  virtual PassRecord traced_pass(std::size_t k, Tracer& tracer,
                                 RunReport& report) = 0;
  /// Workload-specific per-layer metrics, by name.
  virtual void per_layer(std::map<std::string, Metric>& out) const = 0;
  /// What one pass is and what its scheduler time sums, for the notes.
  virtual std::string pass_note() const = 0;
  virtual const char* sched_note() const = 0;

  std::vector<PassTiming> timings;
  CoreStats core_stats;
  double setup_s = 0.0;
};

sim::Machine machine_of(int nodes) {
  sim::Machine m;
  m.nodes = nodes;
  return m;
}

// --- grid_ctc ---------------------------------------------------------------

class GridRunner final : public Runner {
 public:
  explicit GridRunner(const RunConfig& cfg)
      : cfg_(cfg),
        machine_(machine_of(cfg.sizes.nodes)),
        specs_(core::paper_grid(core::WeightKind::kUnit)) {}

  void setup() override {
    workload::CtcModelParams params;
    params.job_count = cfg_.sizes.grid_jobs;
    const workload::Workload raw = workload::generate_ctc(params, cfg_.seed);
    trace_ = workload::trim_to_machine(raw, cfg_.sizes.nodes);
  }

  PassRecord pass(std::size_t, RunReport& report) override {
    PassRecord rec{cfg_.seed, cfg_.sizes.grid_jobs,
                   std::vector<std::uint64_t>(specs_.size(), 0)};
    std::vector<std::int64_t> stamps;
    util::LatencyHistogram rounds;
    eval::ExperimentOptions opt;
    opt.measure_cpu = true;
    opt.validate = true;
    opt.threads = 1;
    opt.on_run = [&stamps](const std::string&) { stamps.push_back(now_ns()); };
    opt.scheduler_factory = [&rounds](const core::AlgorithmSpec& spec) {
      return std::make_unique<RoundTimer>(core::make_scheduler(spec), rounds);
    };
    report.attempted += specs_.size();
    const std::int64_t t0 = now_ns();
    try {
      const std::vector<eval::RunResult> results =
          eval::run_grid(machine_, core::WeightKind::kUnit, trace_, opt);
      const std::int64_t t1 = now_ns();
      double cpu = 0.0;
      for (std::size_t i = 0; i < results.size() && i < rec.fingerprints.size();
           ++i) {
        rec.fingerprints[i] = results[i].schedule_fnv;
        cpu += results[i].scheduler_cpu_seconds;
      }
      if (results.size() != specs_.size()) {
        report.problems.push_back("grid returned " +
                                  std::to_string(results.size()) + " cells");
        report.failed += specs_.size();
        return rec;
      }
      stamps.push_back(t1);
      for (std::size_t i = 0; i + 1 < stamps.size(); ++i) {
        cell_walls_.push_back(seconds_between(stamps[i], stamps[i + 1]));
      }
      timings.push_back({static_cast<double>(specs_.size() * trace_.size()),
                         seconds_between(t0, t1), cpu, std::move(rounds)});
    } catch (const std::exception& e) {
      report.problems.push_back(std::string("grid pass threw: ") + e.what());
      report.failed += specs_.size();
    }
    return rec;
  }

  PassRecord traced_pass(std::size_t, Tracer& tracer,
                         RunReport& report) override {
    // eval::run_one's steps, made from here so each gets its own span.
    const Tracer::NameId cell = tracer.intern("eval.cell");
    const Tracer::NameId simulate = tracer.intern("sim.simulate");
    const Tracer::NameId validate = tracer.intern("sim.validate");
    const Tracer::NameId objectives = tracer.intern("metrics.objectives");
    PassRecord rec{cfg_.seed, cfg_.sizes.grid_jobs, {}};
    for (const core::AlgorithmSpec& spec : specs_) {
      ++report.attempted;
      std::uint64_t fnv = 0;
      try {
        ScopedSpan cell_span(tracer, cell);
        TracedScheduler scheduler(core::make_scheduler(spec), tracer, core_stats);
        sim::SimOptions options;
        options.validate = false;  // timed separately below
        options.measure_scheduler_cpu = true;
        sim::Schedule schedule;
        {
          ScopedSpan span(tracer, simulate);
          schedule = sim::simulate(machine_, scheduler, trace_, options);
        }
        {
          ScopedSpan span(tracer, validate);
          sim::validate_schedule(schedule, trace_);
        }
        {
          ScopedSpan span(tracer, objectives);
          eval::RunResult r;
          r.art = metrics::average_response_time(schedule);
          r.awrt = metrics::average_weighted_response_time(schedule);
          r.wait = metrics::average_wait_time(schedule);
          r.makespan = static_cast<double>(metrics::makespan(schedule));
          r.utilization = metrics::utilization(schedule);
          r.schedule_fnv = sim::schedule_fingerprint(schedule);
          r.goodput_fraction =
              metrics::resilience(schedule, trace_).goodput_fraction;
          fnv = r.schedule_fnv;
        }
        max_queue_ = std::max(max_queue_, schedule.max_queue_length);
      } catch (const std::exception& e) {
        report.problems.push_back("traced " + spec.display_name() +
                                  " threw: " + e.what());
        ++report.failed;
      }
      rec.fingerprints.push_back(fnv);
    }
    return rec;
  }

  std::string pass_note() const override {
    return "grid passes of 13 x " + std::to_string(trace_.size()) + " jobs";
  }
  const char* sched_note() const override {
    return "scheduler CPU summed over the 13 configurations";
  }

  void per_layer(std::map<std::string, Metric>& out) const override {
    double sum = 0.0;
    double max = 0.0;
    for (const double w : cell_walls_) {
      sum += w;
      max = std::max(max, w);
    }
    const double passes = static_cast<double>(timings.size());
    out["eval.cell_wall_s.sum"] =
        metric("eval.cell_wall_s.sum", passes > 0 ? sum / passes : 0.0, "s",
               "per untraced grid pass");
    out["eval.cell_wall_s.max"] =
        metric("eval.cell_wall_s.max", max, "s", "slowest untraced cell");
    out["sim.max_queue_length"] = metric(
        "sim.max_queue_length", static_cast<double>(max_queue_), "count");
    out["sim.peak_live_jobs"] =
        metric("sim.peak_live_jobs", static_cast<double>(trace_.size()),
               "count", "the materializing simulator holds every job");
    out["workload.generate_s"] =
        metric("workload.generate_s", setup_s, "s", "generate + trim");
  }

 private:
  RunConfig cfg_;
  sim::Machine machine_;
  std::vector<core::AlgorithmSpec> specs_;
  workload::Workload trace_;
  std::vector<double> cell_walls_;
  std::size_t max_queue_ = 0;
};

// --- stream_ctc -------------------------------------------------------------

class StreamRunner final : public Runner {
 public:
  explicit StreamRunner(const RunConfig& cfg)
      : cfg_(cfg), machine_(machine_of(cfg.sizes.nodes)) {
    spec_.dispatch = core::DispatchKind::kEasy;
    // The streamed trace is generated at the machine's width (a stream
    // cannot be trimmed), with inter-arrivals stretched so the offered
    // load stays just under 1, as in the repository's scale bench.
    params_.job_count = cfg.sizes.stream_jobs;
    params_.machine_nodes = cfg.sizes.nodes;
    params_.mean_interarrival = 300.0;
  }

  /// The stream is generated while it is simulated, so set-up builds the
  /// pass objects and checks the head of the input stream.
  void setup() override {
    workload::CtcJobSource source(params_, cfg_.seed);
    const auto scheduler = core::make_scheduler(spec_);
    metrics::StreamingAggregator aggregator(cfg_.sizes.nodes);
    const std::size_t head = std::min<std::size_t>(params_.job_count, 50'000);
    Job j;
    Time prev = 0;
    for (std::size_t i = 0; i < head; ++i) {
      if (!source.next(j) || j.id != i || j.submit < prev || j.nodes < 1 ||
          j.nodes > cfg_.sizes.nodes) {
        throw std::runtime_error("stream_ctc: generated job " +
                                 std::to_string(i) + " is invalid");
      }
      prev = j.submit;
    }
  }

  PassRecord pass(std::size_t k, RunReport& report) override {
    const std::uint64_t seed = pass_seed(cfg_.seed, k);
    PassRecord rec{seed, params_.job_count, {0}};
    report.attempted += params_.job_count;
    try {
      workload::CtcJobSource source(params_, seed);
      util::LatencyHistogram rounds;
      RoundTimer scheduler(core::make_scheduler(spec_), rounds);
      metrics::StreamingAggregator aggregator(cfg_.sizes.nodes);
      const std::int64_t t0 = now_ns();
      const sim::StreamStats stats =
          sim::simulate_stream(machine_, scheduler, source, aggregator);
      const metrics::StreamedMetrics m = aggregator.finish();
      const double wall = seconds_between(t0, now_ns());
      rec.fingerprints[0] = m.schedule_fnv;
      report.failed += lost_jobs(stats.jobs, m.jobs, report);
      const double round_s = static_cast<double>(rounds.sum()) * 1e-9;
      timings.push_back(
          {static_cast<double>(m.jobs), wall, round_s, std::move(rounds)});
    } catch (const std::exception& e) {
      report.problems.push_back(std::string("stream pass threw: ") + e.what());
      report.failed += params_.job_count;
    }
    return rec;
  }

  PassRecord traced_pass(std::size_t k, Tracer& tracer,
                         RunReport& report) override {
    const std::uint64_t seed = pass_seed(cfg_.seed, k);
    PassRecord rec{seed, params_.job_count, {0}};
    report.attempted += params_.job_count;
    try {
      workload::CtcJobSource source(params_, seed);
      TracedSource traced_source(source, tracer);
      TracedScheduler scheduler(core::make_scheduler(spec_), tracer, core_stats);
      metrics::StreamingAggregator aggregator(cfg_.sizes.nodes);
      TracedSink sink(aggregator, tracer);
      sim::StreamStats stats;
      {
        ScopedSpan span(tracer, tracer.intern("sim.simulate_stream"));
        stats = sim::simulate_stream(machine_, scheduler, traced_source, sink);
      }
      metrics::StreamedMetrics m;
      {
        ScopedSpan span(tracer, tracer.intern("metrics.finish"));
        m = aggregator.finish();
      }
      rec.fingerprints[0] = m.schedule_fnv;
      report.failed += lost_jobs(stats.jobs, m.jobs, report);
      peak_live_ = std::max(peak_live_, stats.peak_live_jobs);
      max_queue_ = std::max(max_queue_, stats.max_queue_length);
    } catch (const std::exception& e) {
      report.problems.push_back(std::string("traced stream pass threw: ") +
                                e.what());
      report.failed += params_.job_count;
    }
    return rec;
  }

  std::string pass_note() const override {
    return "streams of " + std::to_string(params_.job_count) + " jobs";
  }
  const char* sched_note() const override {
    return "summed decision-round time";
  }

  void per_layer(std::map<std::string, Metric>& out) const override {
    out["sim.peak_live_jobs"] = metric(
        "sim.peak_live_jobs", static_cast<double>(peak_live_), "count");
    out["sim.max_queue_length"] = metric(
        "sim.max_queue_length", static_cast<double>(max_queue_), "count");
    out["workload.generate_s"] = metric(
        "workload.generate_s", setup_s, "s",
        "set-up: pass objects and the first 50,000 jobs");
  }

 private:
  std::size_t lost_jobs(std::size_t simulated, std::size_t folded,
                        RunReport& report) const {
    const std::size_t done = std::min(simulated, folded);
    if (done >= params_.job_count) return 0;
    report.problems.push_back("stream finished " + std::to_string(done) +
                              " of " + std::to_string(params_.job_count) +
                              " jobs");
    return params_.job_count - done;
  }

  RunConfig cfg_;
  sim::Machine machine_;
  core::AlgorithmSpec spec_;
  workload::CtcModelParams params_;
  std::size_t peak_live_ = 0;
  std::size_t max_queue_ = 0;
};

// --- serve_cons_4x / serve_easy_4x ----------------------------------------

class ServeRunner final : public Runner {
 public:
  ServeRunner(const RunConfig& cfg, const char* spec)
      : cfg_(cfg), spec_name_(spec) {}

  /// Set-up draws the whole first arrival stream and checks that the
  /// daemon will accept every job of it.
  void setup() override {
    serve::OpenLoopSource source(load(cfg_.seed));
    const serve::ServeOptions o = options();
    std::vector<serve::SubmitRecord> records;
    records.reserve(cfg_.sizes.serve_jobs);
    while (source.poll(kTimeInfinity, records)) {
    }
    Time prev = 0;
    for (const serve::SubmitRecord& r : records) {
      if (r.submit < prev || r.nodes < 1 || r.nodes > o.machine.nodes ||
          r.runtime < 1 || r.estimate < 1) {
        throw std::runtime_error("serve: generated an invalid submission");
      }
      prev = r.submit;
    }
    if (records.size() != cfg_.sizes.serve_jobs) {
      throw std::runtime_error("serve: generated " +
                               std::to_string(records.size()) + " jobs");
    }
  }

  PassRecord pass(std::size_t k, RunReport& report) override {
    const std::uint64_t seed = pass_seed(cfg_.seed, k);
    PassRecord rec{seed, cfg_.sizes.serve_jobs, {0}};
    report.attempted += cfg_.sizes.serve_jobs;
    try {
      serve::OpenLoopSource source(load(seed));
      const serve::ServeOptions o = options();
      const std::int64_t t0 = now_ns();
      const serve::ServeReport r = serve::serve(source, o);
      const double wall = seconds_between(t0, now_ns());
      rec.fingerprints[0] = r.schedule_fnv;
      report.failed += lost_jobs(r, report);
      decisions_.merge(r.decision_latency_ns);
      timings.push_back({static_cast<double>(r.completed), wall,
                         static_cast<double>(r.decision_latency_ns.sum()) * 1e-9,
                         r.decision_latency_ns});
      peak_scheduler_queue_ = std::max(peak_scheduler_queue_, r.peak_scheduler_queue);
      peak_admission_queue_ = std::max(peak_admission_queue_, r.peak_admission_queue);
    } catch (const std::exception& e) {
      report.problems.push_back(std::string("serve pass threw: ") + e.what());
      report.failed += cfg_.sizes.serve_jobs;
    }
    return rec;
  }

  PassRecord traced_pass(std::size_t k, Tracer& tracer,
                         RunReport& report) override {
    const std::uint64_t seed = pass_seed(cfg_.seed, k);
    PassRecord rec{seed, cfg_.sizes.serve_jobs, {0}};
    report.attempted += cfg_.sizes.serve_jobs;
    try {
      serve::OpenLoopSource source(load(seed));
      TracedFeed feed(source, tracer);
      serve::ServeOptions o = options();
      o.scheduler_factory = [&tracer, this](const core::AlgorithmSpec& spec) {
        return std::make_unique<TracedScheduler>(core::make_scheduler(spec),
                                                 tracer, core_stats);
      };
      serve::ServeReport r;
      {
        ScopedSpan span(tracer, tracer.intern("serve.serve"));
        r = serve::serve(feed, o);
      }
      rec.fingerprints[0] = r.schedule_fnv;
      report.failed += lost_jobs(r, report);
      feed_records_ += feed.records();
    } catch (const std::exception& e) {
      report.problems.push_back(std::string("traced serve pass threw: ") +
                                e.what());
      report.failed += cfg_.sizes.serve_jobs;
    }
    return rec;
  }

  std::string pass_note() const override {
    return "streams of " + std::to_string(cfg_.sizes.serve_jobs) + " jobs";
  }
  const char* sched_note() const override {
    return "summed decision-round time";
  }

  void per_layer(std::map<std::string, Metric>& out) const override {
    out["serve.feed.records"] = metric(
        "serve.feed.records", static_cast<double>(feed_records_), "count");
    out["serve.decisions"] =
        metric("serve.decisions", static_cast<double>(decisions_.count()),
               "count", "untraced streams; the sample count of the percentiles");
    // A p999 is shown only with at least ten samples beyond it.
    const std::uint64_t n = decisions_.count();
    const bool p999_ok = n >= 10'000;
    out["serve.decision_p999_us"] =
        metric("serve.decision_p999_us", p999_ok ? us(decisions_.p999()) : 0.0,
               "us",
               p999_ok ? samples_note(n, "rounds")
                       : "withheld: fewer than 10 samples beyond p999");
    out["serve.peak_scheduler_queue"] =
        metric("serve.peak_scheduler_queue",
               static_cast<double>(peak_scheduler_queue_), "count");
    out["serve.peak_admission_queue"] =
        metric("serve.peak_admission_queue",
               static_cast<double>(peak_admission_queue_), "count");
    out["sim.max_queue_length"] =
        metric("sim.max_queue_length", static_cast<double>(peak_scheduler_queue_),
               "count", "the daemon's scheduler queue");
  }

 private:
  serve::OpenLoopConfig load(std::uint64_t seed) const {
    // Offered load of the generator's default job shape: nodes
    // log2-uniform in [1, 32] (mean ~9.2), runtimes log-uniform in
    // [30, 3600] s (mean ~746 s); 4x the rate at which that saturates the
    // machine.
    const double rate_1x =
        static_cast<double>(cfg_.sizes.nodes) / (9.2 * 746.0);
    serve::OpenLoopConfig c;
    c.rate = 4.0 * rate_1x;
    c.job_count = cfg_.sizes.serve_jobs;
    c.seed = seed;
    return c;
  }

  serve::ServeOptions options() const {
    serve::ServeOptions o;
    o.machine.nodes = cfg_.sizes.nodes;
    o.spec = core::parse_spec(spec_name_);
    o.speed = 0;  // free-run: measure decisions, not sleeps
    o.queue_capacity = 256;
    o.overload = serve::OverloadPolicy::kShed;
    o.max_backlog = 0;  // unbounded: the backlog is the point
    return o;
  }

  std::size_t lost_jobs(const serve::ServeReport& r, RunReport& report) const {
    const std::size_t n = cfg_.sizes.serve_jobs;
    if (r.completed >= n) return 0;
    report.problems.push_back(
        "served " + std::to_string(r.completed) + " of " + std::to_string(n) +
        " jobs (shed " + std::to_string(r.shed_capacity + r.shed_backlog) +
        ", rejected " + std::to_string(r.rejected_invalid) + ")");
    return n - r.completed;
  }

  RunConfig cfg_;
  const char* spec_name_;
  util::LatencyHistogram decisions_;
  std::size_t peak_scheduler_queue_ = 0;
  std::size_t peak_admission_queue_ = 0;
  std::size_t feed_records_ = 0;
};

std::unique_ptr<Runner> make_runner(const RunConfig& cfg) {
  switch (cfg.workload) {
    case WorkloadKind::kGridCtc:
      return std::make_unique<GridRunner>(cfg);
    case WorkloadKind::kStreamCtc:
      return std::make_unique<StreamRunner>(cfg);
    case WorkloadKind::kServeCons4x:
      return std::make_unique<ServeRunner>(cfg, "FCFS+CONS");
    case WorkloadKind::kServeEasy4x:
      return std::make_unique<ServeRunner>(cfg, "FCFS+EASY");
  }
  return nullptr;
}

/// The end-to-end metrics, from the untraced passes.
void add_end_to_end(const Runner& r, const SetupTimer& setup, double rss_mib,
                    std::vector<Metric>& out) {
  std::vector<double> rate;
  std::vector<double> sched;
  std::vector<double> p50;
  std::vector<double> p99;
  std::uint64_t rounds = 0;
  std::uint64_t fewest_rounds = ~0ULL;
  for (const PassTiming& t : r.timings) {
    rate.push_back(t.jobs / t.wall_s);
    sched.push_back(t.sched_s);
    p50.push_back(interpolated_quantile_ns(t.rounds_ns, 0.50) * 1e-3);
    p99.push_back(interpolated_quantile_ns(t.rounds_ns, 0.99) * 1e-3);
    rounds += t.rounds_ns.count();
    fewest_rounds = std::min(fewest_rounds, t.rounds_ns.count());
  }
  const std::string passes =
      "median of " + std::to_string(r.timings.size()) + " " + r.pass_note();
  // Each pass's percentile, then the median over passes: a slow spell of
  // the host that covers a minority of the passes does not move it.
  const std::string per_pass =
      "median over " + std::to_string(r.timings.size()) + " passes, n=" +
      std::to_string(rounds) + " rounds, at least " +
      std::to_string(r.timings.empty() ? 0 : fewest_rounds) + " per pass";
  out.push_back(metric("setup_s", median(setup.samples), "s",
                       samples_note(setup.samples.size(), "samples")));
  out.push_back(metric("jobs_per_s", median(rate), "1/s", passes));
  out.push_back(metric("sched_cpu_s", median(sched), "s",
                       passes + ", " + r.sched_note()));
  out.push_back(metric("decision_p50_us", median(p50), "us", per_pass));
  out.push_back(metric("decision_p99_us", median(p99), "us", per_pass));
  out.push_back(metric("peak_rss_mib", rss_mib, "MiB",
                       "set-up and the first pass"));
}

/// Run pass(k) for k = 0, 1, ... while one more pass, as long as the
/// longest so far, still ends within `seconds`, so a run of long passes does
/// not overrun its budget by most of a pass. At least one pass runs.
/// Returns the number of passes.
template <class Pass>
std::size_t run_passes(double seconds, Pass&& pass) {
  const std::int64_t begin = now_ns();
  std::size_t k = 0;
  double longest = 0.0;
  do {
    const std::int64_t t0 = now_ns();
    pass(k++);
    longest = std::max(longest, seconds_between(t0, now_ns()));
  } while (seconds_between(begin, now_ns()) + longest <= seconds);
  return k;
}

/// Passes that must agree: repeated passes over the same inputs, and each
/// traced pass with its untraced twin. Each disagreeing fingerprint is one
/// failed operation (a grid cell, or all jobs of a stream).
void check_agreement(const PassRecord& a, const PassRecord& b,
                     const std::string& what, bool per_cell,
                     RunReport& report) {
  if (a.seed != b.seed || a.size != b.size) return;
  for (std::size_t i = 0; i < a.fingerprints.size() && i < b.fingerprints.size();
       ++i) {
    if (a.fingerprints[i] == b.fingerprints[i]) continue;
    char buf[128];
    std::snprintf(buf, sizeof(buf), "%s: fingerprint %016llx != %016llx",
                  what.c_str(), static_cast<unsigned long long>(a.fingerprints[i]),
                  static_cast<unsigned long long>(b.fingerprints[i]));
    report.problems.emplace_back(buf);
    report.failed += per_cell ? 1 : a.size;
  }
}

double self_of(const Tracer::Summary& s, const std::string& name) {
  const auto it = s.by_name.find(name);
  return it == s.by_name.end() ? 0.0 : it->second.self_s;
}

std::uint64_t calls_of(const Tracer::Summary& s, const std::string& name) {
  const auto it = s.by_name.find(name);
  return it == s.by_name.end() ? 0 : it->second.calls;
}

constexpr const char* kLayers[] = {"workload", "sim",  "core",
                                   "metrics",  "serve", "eval"};

/// Every per-layer metric the benchmark defines, from the traced passes.
std::vector<Metric> layer_metrics(const Tracer::Summary& s, const Runner& r,
                                  double untraced_s, RunReport& report) {
  std::map<std::string, Metric> m;
  auto put = [&m](const std::string& name, double value, const char* unit,
                  std::string note = {}) {
    m[name] = metric(name, value, unit, std::move(note));
  };
  // Defaults for layers this workload does not pass through.
  constexpr std::pair<const char*, const char*> kUnused[] = {
      {"sim.peak_live_jobs", "count"},         {"sim.max_queue_length", "count"},
      {"workload.generate_s", "s"},            {"serve.feed.records", "count"},
      {"serve.decisions", "count"},            {"serve.decision_p999_us", "us"},
      {"serve.peak_scheduler_queue", "count"}, {"serve.peak_admission_queue", "count"},
      {"eval.cell_wall_s.sum", "s"},           {"eval.cell_wall_s.max", "s"}};
  for (const auto& [name, unit] : kUnused) {
    put(name, 0.0, unit, "layer not used by this workload");
  }
  r.per_layer(m);

  const auto select = s.by_name.find("core.select_starts");
  const std::uint64_t select_calls = calls_of(s, "core.select_starts");
  put("core.select_starts.calls", static_cast<double>(select_calls), "count");
  put("core.select_starts.self_s", self_of(s, "core.select_starts"), "s");
  put("core.select_starts.p99_us",
      select == s.by_name.end() ? 0.0 : us(select->second.latency_ns.p99()),
      "us", samples_note(select_calls, "calls"));
  put("core.on_submit.self_s", self_of(s, "core.on_submit"), "s");
  put("core.on_complete.self_s", self_of(s, "core.on_complete"), "s");
  put("core.queue_len.peak", static_cast<double>(r.core_stats.queue_peak), "count");

  const auto& c = r.core_stats.cons;
  put("core.cons.replans", static_cast<double>(c.replans), "count");
  put("core.cons.replans_elided", static_cast<double>(c.replans_elided), "count");
  put("core.cons.replaced", static_cast<double>(c.replaced), "count");
  put("core.cons.reused", static_cast<double>(c.reused), "count");
  put("core.cons.certified", static_cast<double>(c.certified), "count");
  put("core.cons.cursor_restarts", static_cast<double>(c.cursor_restarts),
      "count");
  const double base = static_cast<double>(c.reused + c.replaced);
  put("core.cons.reuse_ratio", base > 0 ? static_cast<double>(c.reused) / base : 0.0,
      "ratio", "base = reused + replaced = " + std::to_string(c.reused + c.replaced));
  put("core.cons.reuse_ratio.base", base, "count");

  const CoreStats& cs = r.core_stats;
  put("sim.profile.breakpoints.peak", static_cast<double>(cs.breakpoints_peak),
      "count");
  put("sim.profile.breakpoints.mean",
      cs.breakpoints_samples > 0
          ? cs.breakpoints_sum / static_cast<double>(cs.breakpoints_samples)
          : 0.0,
      "count", samples_note(cs.breakpoints_samples, "select_starts samples"));

  put("sim.loop.self_s",
      self_of(s, "sim.simulate") + self_of(s, "sim.simulate_stream"), "s");
  put("sim.validate.self_s", self_of(s, "sim.validate"), "s");
  put("workload.next.calls", static_cast<double>(calls_of(s, "workload.next")),
      "count");
  put("workload.next.self_s", self_of(s, "workload.next"), "s");
  put("metrics.on_record.calls",
      static_cast<double>(calls_of(s, "metrics.on_record")), "count");
  put("metrics.fold.self_s",
      self_of(s, "metrics.on_record") + self_of(s, "metrics.finish"), "s");
  put("metrics.objectives.self_s", self_of(s, "metrics.objectives"), "s");
  put("serve.feed.poll.calls",
      static_cast<double>(calls_of(s, "serve.feed.poll")), "count");
  put("serve.feed.poll.self_s", self_of(s, "serve.feed.poll"), "s");
  put("serve.loop.self_s", self_of(s, "serve.serve"), "s");

  // Self times partition the traced wall time: layers plus the root spans'
  // own time (the benchmark's glue between calls).
  double layered = 0.0;
  for (const char* layer : kLayers) {
    const std::string prefix = std::string(layer) + ".";
    double sum = 0.0;
    for (const auto& [name, totals] : s.by_name) {
      if (name.starts_with(prefix)) sum += totals.self_s;
    }
    put(prefix + "self_s", sum, "s", "layer total");
    layered += sum;
  }
  put("trace.wall_s", s.wall_s, "s", "traced passes");
  put("trace.unattributed_s", s.unattributed_s, "s",
      "root-span self time: the benchmark's glue");
  if (std::fabs(layered + s.unattributed_s - s.wall_s) > 1e-6 * (1.0 + s.wall_s)) {
    report.problems.push_back("layer self times do not sum to the traced wall");
  }
  put("trace.overhead_frac", untraced_s > 0 ? s.wall_s / untraced_s - 1.0 : 0.0,
      "ratio", "traced wall / untraced wall - 1 over the same passes");

  std::vector<Metric> out;
  out.reserve(m.size());
  for (auto& [name, value] : m) out.push_back(std::move(value));
  return out;
}

}  // namespace

std::optional<WorkloadKind> parse_workload(std::string_view name) {
  for (const WorkloadName& w : kWorkloads) {
    if (name == w.name) return w.kind;
  }
  return std::nullopt;
}

const char* workload_name(WorkloadKind kind) {
  for (const WorkloadName& w : kWorkloads) {
    if (w.kind == kind) return w.name;
  }
  return "?";
}

double interpolated_quantile_ns(const util::LatencyHistogram& h, double q) {
  using util::LatencyHistogram;
  const std::uint64_t n = h.count();
  if (n == 0) return 0.0;
  const auto target = std::clamp<std::uint64_t>(
      static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(n))), 1, n);
  // Bucket of the sample of rank r (1-based); nondecreasing in r.
  const auto bucket_at = [&h, n](std::uint64_t r) {
    return LatencyHistogram::bucket_of(h.quantile(
        (static_cast<double>(r) - 0.5) / static_cast<double>(n)));
  };
  const std::size_t b = bucket_at(target);
  std::uint64_t first = 1;  // smallest rank in bucket b
  for (std::uint64_t lo = 1, hi = target; lo <= hi;) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    if (bucket_at(mid) < b) {
      lo = mid + 1;
    } else {
      first = mid;
      hi = mid - 1;
    }
  }
  std::uint64_t last = n;  // largest rank in bucket b
  for (std::uint64_t lo = target, hi = n; lo <= hi;) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    if (bucket_at(mid) > b) {
      last = mid - 1;
      hi = mid - 1;
    } else {
      lo = mid + 1;
    }
  }
  const double lower =
      b == 0 ? 0.0
             : static_cast<double>(LatencyHistogram::bucket_upper_bound(b - 1) + 1);
  const double width =
      static_cast<double>(LatencyHistogram::bucket_upper_bound(b)) - lower + 1.0;
  if (width <= 1.0) return lower;  // exact bucket
  const double at = lower + width * (static_cast<double>(target - first) + 0.5) /
                                static_cast<double>(last - first + 1);
  return std::clamp(at, static_cast<double>(h.min()), static_cast<double>(h.max()));
}

std::uint64_t pass_seed(std::uint64_t seed, std::size_t k) {
  if (k == 0) return seed;
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(k);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

RunReport run_workload(const RunConfig& cfg, const std::string& trace_path,
                       const std::string& host_fields) {
  RunReport report;
  const std::unique_ptr<Runner> runner = make_runner(cfg);
  SetupTimer setup([&runner] { runner->setup(); });
  setup.sample_initial();
  runner->setup_s = median(setup.samples);

  const bool grid = cfg.workload == WorkloadKind::kGridCtc;
  std::vector<double> untraced_wall;
  // Peak RSS through set-up and the first pass: later passes only add
  // allocator history, and how many of them fit depends on the host.
  double first_pass_rss_mib = 0.0;
  const std::size_t passes =
      run_passes(cfg.trace ? cfg.seconds / 2 : cfg.seconds, [&](std::size_t k) {
        if (k > 0) setup.sample();
        const std::int64_t t0 = now_ns();
        report.passes.push_back(runner->pass(k, report));
        untraced_wall.push_back(seconds_between(t0, now_ns()));
        if (k == 0) first_pass_rss_mib = peak_rss_mib();
      });
  // Grid passes replay one trace, so they must agree with each other.
  for (std::size_t k = 1; grid && k < passes; ++k) {
    check_agreement(report.passes[0], report.passes[k],
                    "grid pass " + std::to_string(k), true, report);
  }

  if (!cfg.trace) {
    add_end_to_end(*runner, setup, first_pass_rss_mib, report.metrics);
    return report;
  }

  Tracer tracer;
  const Tracer::NameId root = tracer.intern("pass");
  for (std::size_t k = 0; k < passes; ++k) {
    tracer.set_run(static_cast<std::uint32_t>(k));
    ScopedSpan span(tracer, root);
    report.traced.push_back(runner->traced_pass(k, tracer, report));
  }
  for (std::size_t k = 0; k < passes; ++k) {
    check_agreement(report.passes[k], report.traced[k],
                    "traced pass " + std::to_string(k), grid, report);
  }
  double untraced_s = 0.0;
  for (const double w : untraced_wall) untraced_s += w;
  report.metrics = layer_metrics(tracer.summarize(), *runner, untraced_s, report);
  if (!trace_path.empty()) {
    const std::string header =
        "\"workload\": \"" + std::string(workload_name(cfg.workload)) +
        "\", \"seed\": " + std::to_string(cfg.seed) + ", \"host\": {" +
        host_fields + "}";
    tracer.write_json(trace_path, header);
  }
  return report;
}

}  // namespace perfbench
