// The benchmark's own tests: the decorators forward every call unchanged,
// the tracer's self times partition the traced wall time, interpolated
// quantiles stay inside the histogram's buckets, and on every workload a
// traced run produces the same schedules as an untraced one.
//
// Build and run with `python3 perfbench/run.py --selftest`.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/factory.h"
#include "decorators.h"
#include "serve/feed.h"
#include "sim/simulator.h"
#include "tracer.h"
#include "util/latency.h"
#include "workload/ctc_model.h"
#include "workload/transforms.h"
#include "workloads.h"

namespace perfbench {
namespace {

using jsched::Job;
using jsched::Submission;
namespace jsim = jsched::sim;

/// Records every call it receives, in order.
class FakeScheduler final : public jsim::Scheduler {
 public:
  explicit FakeScheduler(std::vector<std::string>& log) : log_(log) {}

  std::string name() const override { return "fake"; }
  void reset(const jsim::Machine& m) override {
    log_.push_back("reset " + std::to_string(m.nodes));
  }
  void on_submit(const Submission& job, Time now) override {
    log_.push_back("submit " + std::to_string(job.id) + " " +
                   std::to_string(job.nodes) + " @" + std::to_string(now));
    ++queue_;
  }
  void on_complete(JobId id, Time now) override {
    log_.push_back("complete " + std::to_string(id) + " @" + std::to_string(now));
  }
  void on_capacity_change(Time now, int available_nodes) override {
    log_.push_back("capacity " + std::to_string(available_nodes) + " @" +
                   std::to_string(now));
  }
  void select_starts(Time now, int free_nodes,
                     std::vector<JobId>& starts) override {
    log_.push_back("select " + std::to_string(free_nodes) + " @" +
                   std::to_string(now));
    starts = pending_starts;
    pending_starts.clear();
  }
  Time next_wakeup(Time now) const override {
    log_.push_back("wakeup @" + std::to_string(now));
    return now + 7;
  }
  std::size_t queue_length() const override {
    log_.push_back("queue_length");
    return queue_;
  }

  std::vector<JobId> pending_starts;

 private:
  std::vector<std::string>& log_;
  std::size_t queue_ = 0;
};

Job job(JobId id, int nodes) {
  Job j;
  j.id = id;
  j.nodes = nodes;
  j.estimate = 100;
  j.runtime = 50;
  return j;
}

/// Drive `s` through every Scheduler entry point; `fake` is its inner
/// scheduler. Checks returned values and leaves the call log to the caller.
void exercise(jsim::Scheduler& s, FakeScheduler& fake) {
  EXPECT_EQ(s.name(), "fake");
  jsim::Machine m;
  m.nodes = 64;
  s.reset(m);
  EXPECT_EQ(s.next_wakeup(10), 17);
  s.on_submit(Submission(job(3, 8)), 10);
  fake.pending_starts = {3};
  std::vector<JobId> starts{99};
  s.select_starts(10, 64, starts);
  EXPECT_EQ(starts, std::vector<JobId>{3});
  s.select_starts(10, 56, starts);
  EXPECT_TRUE(starts.empty());
  s.on_complete(3, 60);
  s.on_capacity_change(60, 32);
  s.select_starts(60, 32, starts);
  EXPECT_EQ(s.queue_length(), 1u);
}

const std::vector<std::string> kExpectedCalls = {
    "reset 64",    "wakeup @10",   "submit 3 8 @10", "select 64 @10",
    "select 56 @10", "complete 3 @60", "capacity 32 @60", "select 32 @60",
    "queue_length"};

TEST(RoundTimer, ForwardsEveryCall) {
  std::vector<std::string> log;
  auto inner = std::make_unique<FakeScheduler>(log);
  FakeScheduler& fake = *inner;
  jsched::util::LatencyHistogram rounds;
  RoundTimer timer(std::move(inner), rounds);
  exercise(timer, fake);
  EXPECT_EQ(log, kExpectedCalls);
  // Two rounds ended with an empty select_starts: at t=10 and t=60.
  EXPECT_EQ(rounds.count(), 2u);
}

TEST(TracedScheduler, ForwardsEveryCall) {
  std::vector<std::string> log;
  auto inner = std::make_unique<FakeScheduler>(log);
  FakeScheduler& fake = *inner;
  Tracer tracer;
  CoreStats stats;
  {
    ScopedSpan root(tracer, tracer.intern("pass"));
    TracedScheduler traced(std::move(inner), tracer, stats);
    exercise(traced, fake);
  }
  // The decorator reads queue_length after each submit; the rest is the
  // exercised sequence.
  std::vector<std::string> expected = kExpectedCalls;
  expected.insert(expected.begin() + 3, "queue_length");
  EXPECT_EQ(log, expected);
  EXPECT_EQ(stats.queue_peak, 1u);
  const Tracer::Summary s = tracer.summarize();
  EXPECT_EQ(s.by_name.at("core.select_starts").calls, 3u);
  EXPECT_EQ(s.by_name.at("core.on_submit").calls, 1u);
  EXPECT_EQ(s.by_name.at("core.on_complete").calls, 1u);
  EXPECT_EQ(s.by_name.at("core.on_capacity_change").calls, 1u);
}

TEST(TracedScheduler, FoldsConservativeBackfillStats) {
  jsched::workload::CtcModelParams params;
  params.job_count = 3000;
  const auto w = jsched::workload::trim_to_machine(
      jsched::workload::generate_ctc(params, 5), 256);
  jsim::Machine m;
  m.nodes = 256;
  Tracer tracer;
  CoreStats stats;
  std::uint64_t traced_fnv = 0;
  {
    ScopedSpan root(tracer, tracer.intern("pass"));
    TracedScheduler traced(
        jsched::core::make_scheduler(jsched::core::parse_spec("FCFS+CONS")),
        tracer, stats);
    traced_fnv = jsim::schedule_fingerprint(jsim::simulate(m, traced, w));
  }
  const auto plain = jsched::core::make_scheduler(
      jsched::core::parse_spec("FCFS+CONS"));
  EXPECT_EQ(traced_fnv, jsim::schedule_fingerprint(jsim::simulate(m, *plain, w)));
  EXPECT_GT(stats.cons.replans + stats.cons.replans_elided, 0u);
  EXPECT_GT(stats.breakpoints_samples, 0u);
  EXPECT_GT(stats.breakpoints_peak, 0u);
}

TEST(TracedSource, ForwardsEveryCall) {
  jsched::workload::CtcModelParams params;
  params.job_count = 50;
  jsched::workload::CtcJobSource plain(params, 9);
  jsched::workload::CtcJobSource inner(params, 9);
  Tracer tracer;
  std::size_t n = 0;
  {
    ScopedSpan root(tracer, tracer.intern("pass"));
    TracedSource traced(inner, tracer);
    EXPECT_EQ(traced.size_hint(), 50u);
    EXPECT_EQ(traced.name(), inner.name());
    Job a;
    Job b;
    while (traced.next(a)) {
      ASSERT_TRUE(plain.next(b));
      EXPECT_EQ(a, b);
      ++n;
    }
    EXPECT_FALSE(plain.next(b));
  }
  EXPECT_EQ(n, 50u);
  EXPECT_EQ(tracer.summarize().by_name.at("workload.next").calls, 51u);
}

class RecordingSink final : public jsim::RecordSink {
 public:
  void on_record(JobId id, const jsim::JobRecord& record, const Job& j) override {
    log.push_back("record " + std::to_string(id) + " " +
                  std::to_string(record.start) + " " + std::to_string(j.nodes));
  }
  void on_attempt(const jsim::AttemptRecord& attempt) override {
    log.push_back("attempt " + std::to_string(attempt.id));
  }
  void on_capacity_event(Time t, int capacity) override {
    log.push_back("capacity " + std::to_string(t) + " " + std::to_string(capacity));
  }
  std::vector<std::string> log;
};

TEST(TracedSink, ForwardsEveryCall) {
  RecordingSink inner;
  Tracer tracer;
  {
    ScopedSpan root(tracer, tracer.intern("pass"));
    TracedSink traced(inner, tracer);
    jsim::JobRecord rec;
    rec.start = 12;
    traced.on_record(4, rec, job(4, 16));
    jsim::AttemptRecord attempt;
    attempt.id = 4;
    traced.on_attempt(attempt);
    traced.on_capacity_event(30, 200);
  }
  EXPECT_EQ(inner.log, (std::vector<std::string>{"record 4 12 16", "attempt 4",
                                                 "capacity 30 200"}));
  EXPECT_EQ(tracer.summarize().by_name.at("metrics.on_record").calls, 1u);
}

TEST(TracedFeed, ForwardsEveryCall) {
  auto records = [] {
    std::vector<jsched::serve::SubmitRecord> r(3);
    r[0].submit = 0;
    r[1].submit = 5;
    r[2].submit = 9;
    r[2].nodes = 4;
    return r;
  };
  jsched::serve::ScriptFeed inner(records());
  jsched::serve::ScriptFeed plain(records());
  Tracer tracer;
  {
    ScopedSpan root(tracer, tracer.intern("pass"));
    TracedFeed traced(inner, tracer);
    for (const Time vnow : {Time{0}, Time{6}, jsched::kTimeInfinity}) {
      EXPECT_EQ(traced.next_submit(), plain.next_submit());
      std::vector<jsched::serve::SubmitRecord> a;
      std::vector<jsched::serve::SubmitRecord> b;
      EXPECT_EQ(traced.poll(vnow, a), plain.poll(vnow, b));
      ASSERT_EQ(a.size(), b.size());
      for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].submit, b[i].submit);
        EXPECT_EQ(a[i].nodes, b[i].nodes);
      }
    }
    EXPECT_EQ(traced.records(), 3u);
    EXPECT_EQ(traced.next_submit(), plain.next_submit());
  }
  EXPECT_EQ(tracer.summarize().by_name.at("serve.feed.poll").calls, 3u);
}

TEST(Tracer, SelfTimesPartitionTheWallTime) {
  Tracer tracer;
  const auto root = tracer.intern("pass");
  const auto outer = tracer.intern("sim.simulate");
  Tracer::LeafSite leaf(tracer.intern("core.select_starts"));
  for (std::uint32_t run = 0; run < 2; ++run) {
    tracer.set_run(run);
    ScopedSpan r(tracer, root);
    ScopedSpan o(tracer, outer);
    for (int i = 0; i < 100; ++i) {
      ScopedLeaf l(tracer, leaf);
    }
  }
  const Tracer::Summary s = tracer.summarize();
  double self = s.unattributed_s;
  for (const auto& [name, totals] : s.by_name) {
    if (name != "pass") self += totals.self_s;
  }
  EXPECT_NEAR(self, s.wall_s, 1e-9);
  EXPECT_EQ(s.by_name.at("core.select_starts").calls, 200u);
  EXPECT_EQ(s.by_name.at("sim.simulate").calls, 2u);
  EXPECT_EQ(tracer.spans().size(), 4u);
  EXPECT_EQ(tracer.leaves().size(), 2u);  // one aggregate per parent span
}

TEST(InterpolatedQuantile, StaysInTheBucketAndTracksTheSamples) {
  jsched::util::LatencyHistogram h;
  EXPECT_EQ(interpolated_quantile_ns(h, 0.5), 0.0);
  h.record(4000);
  EXPECT_EQ(interpolated_quantile_ns(h, 0.5), 4000.0);  // one value: exact
  h.record(37);
  EXPECT_EQ(interpolated_quantile_ns(h, 0.01), 37.0);  // exact bucket

  jsched::util::LatencyHistogram uniform;
  for (std::uint64_t v = 1000; v < 11'000; ++v) uniform.record(v);
  for (const double q : {0.1, 0.5, 0.9, 0.99}) {
    const double got = interpolated_quantile_ns(uniform, q);
    const double want = 1000.0 + q * 10'000.0;
    EXPECT_NEAR(got, want, want * 1e-3) << "q=" << q;
    // Never above the bucket bound LatencyHistogram::quantile reports, and
    // in the same bucket.
    const std::uint64_t bound = uniform.quantile(q);
    EXPECT_LE(got, static_cast<double>(bound));
    EXPECT_EQ(jsched::util::LatencyHistogram::bucket_of(
                  static_cast<std::uint64_t>(got)),
              jsched::util::LatencyHistogram::bucket_of(bound));
  }
}

/// Small inputs: every workload's traced passes must reproduce the
/// untraced ones exactly.
class TracedMatchesUntraced : public ::testing::TestWithParam<WorkloadKind> {};

TEST_P(TracedMatchesUntraced, SameFingerprints) {
  RunConfig cfg;
  cfg.workload = GetParam();
  cfg.seed = 11;
  cfg.seconds = 0;  // one pass per phase
  cfg.trace = true;
  cfg.sizes.grid_jobs = 2000;
  cfg.sizes.stream_jobs = 20'000;
  cfg.sizes.serve_jobs = 1000;
  const RunReport r = run_workload(cfg);
  EXPECT_TRUE(r.problems.empty()) << r.problems.front();
  EXPECT_EQ(r.failed, 0u);
  ASSERT_EQ(r.passes.size(), 1u);
  ASSERT_EQ(r.traced.size(), 1u);
  EXPECT_EQ(r.passes[0].fingerprints, r.traced[0].fingerprints);
  for (const std::uint64_t fnv : r.passes[0].fingerprints) EXPECT_NE(fnv, 0u);
}

INSTANTIATE_TEST_SUITE_P(Workloads, TracedMatchesUntraced,
                         ::testing::Values(WorkloadKind::kGridCtc,
                                           WorkloadKind::kStreamCtc,
                                           WorkloadKind::kServeCons4x,
                                           WorkloadKind::kServeEasy4x),
                         [](const auto& info) {
                           return std::string(workload_name(info.param));
                         });

TEST(Pins, DefaultSeedEasyStreamMatchesCommittedServeBench) {
  RunConfig cfg;
  cfg.workload = WorkloadKind::kServeEasy4x;
  cfg.seconds = 0;
  const RunReport r = run_workload(cfg);
  ASSERT_EQ(r.passes.size(), 1u);
  EXPECT_EQ(r.passes[0].fingerprints,
            std::vector<std::uint64_t>{0xce5003541261cbccULL});
}

}  // namespace
}  // namespace perfbench
