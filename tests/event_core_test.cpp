// The per-instant event order, checked where every kind of event meets:
// one instant holding a completion, a failure that kills two running jobs,
// a repair, a fresh arrival, the re-submissions of the killed jobs and a
// pending scheduler wakeup. simulate(), simulate_stream() and serve() all
// drive sim::EventCore, so each must hand the scheduler the same callback
// sequence and produce the same schedule. Also the core's guard against a
// trace that takes away more nodes than the machine has.
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/factory.h"
#include "fault/fault.h"
#include "metrics/streaming.h"
#include "serve/daemon.h"
#include "serve/feed.h"
#include "sim/simulator.h"
#include "sim/streaming.h"
#include "test_support.h"
#include "workload/job_source.h"

namespace jsched {
namespace {

/// Forwards to a real scheduler and logs every callback. The first
/// callback of each instant also logs the wakeup the scheduler had pending
/// before it.
class Recorder final : public sim::Scheduler {
 public:
  Recorder(std::unique_ptr<sim::Scheduler> inner,
           std::vector<std::string>& log)
      : inner_(std::move(inner)), log_(log) {}

  std::string name() const override { return inner_->name(); }
  void reset(const sim::Machine& machine) override {
    log_.push_back("reset");
    inner_->reset(machine);
  }
  void on_submit(const Submission& job, Time now) override {
    mark(now);
    log_.push_back("submit " + std::to_string(job.id) +
                   " est=" + std::to_string(job.estimate));
    inner_->on_submit(job, now);
  }
  void on_complete(JobId id, Time now) override {
    mark(now);
    log_.push_back("complete " + std::to_string(id));
    inner_->on_complete(id, now);
  }
  void on_capacity_change(Time now, int available_nodes) override {
    mark(now);
    log_.push_back("capacity " + std::to_string(available_nodes));
    inner_->on_capacity_change(now, available_nodes);
  }
  void select_starts(Time now, int free_nodes,
                     std::vector<JobId>& starts) override {
    mark(now);
    inner_->select_starts(now, free_nodes, starts);
    std::string line = "select " + std::to_string(free_nodes) + " ->";
    for (const JobId id : starts) line += " " + std::to_string(id);
    log_.push_back(line);
  }
  Time next_wakeup(Time now) const override {
    return inner_->next_wakeup(now);
  }
  std::size_t queue_length() const override { return inner_->queue_length(); }

 private:
  void mark(Time now) {
    if (now == now_) return;
    log_.push_back("t=" + std::to_string(now) +
                   " wake=" + std::to_string(inner_->next_wakeup(now_)));
    now_ = now;
  }

  std::unique_ptr<sim::Scheduler> inner_;
  std::vector<std::string>& log_;
  Time now_ = -1;
};

/// Collects killed attempts on top of the streamed metrics.
class AttemptLog final : public sim::RecordSink {
 public:
  explicit AttemptLog(int nodes) : aggregator_(nodes) {}
  void on_record(JobId id, const sim::JobRecord& record,
                 const Job& j) override {
    aggregator_.on_record(id, record, j);
  }
  void on_attempt(const sim::AttemptRecord& attempt) override {
    aggregator_.on_attempt(attempt);
    attempts.push_back(attempt);
  }
  void on_capacity_event(Time t, int capacity) override {
    aggregator_.on_capacity_event(t, capacity);
  }
  std::uint64_t fingerprint() { return aggregator_.finish().schedule_fnv; }

  std::vector<sim::AttemptRecord> attempts;

 private:
  metrics::StreamingAggregator aggregator_;
};

struct Run {
  std::uint64_t fnv = 0;
  std::vector<sim::AttemptRecord> attempts;
  std::vector<std::string> log;
};

constexpr int kNodes = 4;

// FCFS + conservative backfilling on 4 nodes. J0 and J1 start at 0, J2 and
// J3 at 50 (the tie on start time). J4 arrives at 60 to a full machine and
// is reserved for 100, J0's estimated end: the pending wakeup. At 100 J0
// completes, three nodes fail (killing J3, then J2: latest start first,
// larger id on ties), one is repaired, J5 arrives, J3 and J2 are
// re-submitted, and J4 starts on the one free node.
workload::Workload coincident_workload() {
  return test::make_workload({
      test::make_job(0, 1, 100),    // J0: completes at 100
      test::make_job(0, 1, 500),    // J1
      test::make_job(50, 1, 200),   // J2
      test::make_job(50, 1, 200),   // J3
      test::make_job(60, 1, 30),    // J4: reserved at 100
      test::make_job(100, 1, 60),   // J5: arrives at 100
  });
}

/// Built by hand, not through make_failure_trace, which would coalesce the
/// failure and the repair at 100 into one step: here they stay two events
/// of one instant's fault batch.
fault::FailureTrace coincident_trace() {
  fault::FailureTrace trace;
  trace.events = {{100, -3}, {100, +1}, {300, +2}};
  trace.machine_nodes = kNodes;
  trace.max_down = 3;
  return trace;
}

core::AlgorithmSpec fcfs_cons() {
  core::AlgorithmSpec spec;
  spec.order = core::OrderKind::kFcfs;
  spec.dispatch = core::DispatchKind::kConservative;
  return spec;
}

Run run_batch(const fault::FaultOptions& faults) {
  Run run;
  Recorder scheduler(core::make_scheduler(fcfs_cons()), run.log);
  sim::SimOptions options;
  options.faults = faults;
  const sim::Schedule s = sim::simulate(sim::Machine{kNodes}, scheduler,
                                        coincident_workload(), options);
  run.fnv = sim::schedule_fingerprint(s);
  run.attempts = s.attempts;
  return run;
}

Run run_stream(const fault::FaultOptions& faults) {
  Run run;
  Recorder scheduler(core::make_scheduler(fcfs_cons()), run.log);
  const workload::Workload w = coincident_workload();
  workload::WorkloadSource source(w);
  AttemptLog sink(kNodes);
  sim::StreamOptions options;
  options.faults = faults;
  sim::simulate_stream(sim::Machine{kNodes}, scheduler, source, sink, options);
  run.fnv = sink.fingerprint();
  run.attempts = sink.attempts;
  return run;
}

Run run_serve(const fault::FaultOptions& faults) {
  Run run;
  std::vector<serve::SubmitRecord> records;
  for (const Job& j : coincident_workload()) {
    serve::SubmitRecord r;
    r.submit = j.submit;
    r.nodes = j.nodes;
    r.runtime = j.runtime;
    r.estimate = j.estimate;
    records.push_back(r);
  }
  serve::ScriptFeed feed(std::move(records));
  serve::ServeOptions options;
  options.machine.nodes = kNodes;
  options.spec = fcfs_cons();
  options.faults = faults;
  options.scheduler_factory = [&run](const core::AlgorithmSpec& spec) {
    return std::make_unique<Recorder>(core::make_scheduler(spec), run.log);
  };
  const serve::ServeReport report = serve::serve(feed, options);
  EXPECT_EQ(report.completed, 6u);
  EXPECT_EQ(report.killed, 2u);
  EXPECT_EQ(report.requeued, 2u);
  EXPECT_EQ(report.min_capacity, 1);
  run.fnv = report.schedule_fnv;
  return run;
}

/// The log lines of instant `t`, from its wakeup marker to the next one.
std::vector<std::string> instant(const std::vector<std::string>& log,
                                 Time t) {
  const std::string marker = "t=" + std::to_string(t) + " ";
  std::vector<std::string> out;
  bool in = false;
  for (const std::string& line : log) {
    if (line.rfind("t=", 0) == 0) in = line.rfind(marker, 0) == 0;
    if (in) out.push_back(line);
  }
  return out;
}

void expect_coincident_instant(const fault::RecoveryOptions& recovery,
                               Duration saved, Duration resubmit_estimate) {
  const fault::FailureTrace trace = coincident_trace();
  fault::FaultOptions faults;
  faults.trace = &trace;
  faults.recovery = recovery;

  const Run batch = run_batch(faults);
  const Run stream = run_stream(faults);
  const Run served = run_serve(faults);

  EXPECT_EQ(stream.fnv, batch.fnv);
  EXPECT_EQ(served.fnv, batch.fnv);
  EXPECT_EQ(stream.log, batch.log);
  EXPECT_EQ(served.log, batch.log);

  const std::vector<sim::AttemptRecord> expected{
      {3, 50, 100, 1, saved},
      {2, 50, 100, 1, saved},
  };
  for (const std::vector<sim::AttemptRecord>* attempts :
       {&batch.attempts, &stream.attempts}) {
    ASSERT_EQ(attempts->size(), expected.size());
    for (std::size_t k = 0; k < expected.size(); ++k) {
      EXPECT_EQ((*attempts)[k].id, expected[k].id) << k;
      EXPECT_EQ((*attempts)[k].start, expected[k].start) << k;
      EXPECT_EQ((*attempts)[k].end, expected[k].end) << k;
      EXPECT_EQ((*attempts)[k].nodes, expected[k].nodes) << k;
      EXPECT_EQ((*attempts)[k].saved, expected[k].saved) << k;
    }
  }

  const std::string est = " est=" + std::to_string(resubmit_estimate);
  const std::vector<std::string> expected_instant{
      "t=100 wake=100",
      "complete 0",
      "complete 3",  // killed: same start as J2, larger id
      "complete 2",
      "capacity 2",  // one change for the whole fault batch
      "submit 5 est=60",
      "submit 3" + est,
      "submit 2" + est,
      "select 1 -> 4",
      "select 0 ->",
  };
  EXPECT_EQ(instant(batch.log, 100), expected_instant);
}

TEST(EventCore, CoincidentInstantUnderRequeue) {
  // Requeue from scratch: nothing is saved; the re-submission asks for the
  // whole 200 s again.
  expect_coincident_instant({}, 0, 200);
}

TEST(EventCore, CoincidentInstantUnderCheckpointRestart) {
  // 50 s of progress with a 20 s interval saves 40 s; the re-submission
  // asks for the 5 s restart plus the 160 s left.
  fault::RecoveryOptions recovery;
  recovery.policy = fault::RecoveryPolicy::kCheckpointRestart;
  recovery.checkpoint_interval = 20;
  recovery.restart_overhead = 5;
  expect_coincident_instant(recovery, 40, 165);
}

TEST(EventCore, TraceBelowZeroCapacityThrows) {
  // Hand-built, so nothing coalesced or bounds-checked it: five of four
  // nodes fail. Killing the one running job cannot restore capacity.
  fault::FailureTrace trace;
  trace.events = {{10, -5}, {20, +5}};
  trace.machine_nodes = kNodes;
  fault::FaultOptions faults;
  faults.trace = &trace;
  auto scheduler = core::make_scheduler(fcfs_cons());
  sim::SimOptions options;
  options.faults = faults;
  EXPECT_THROW(sim::simulate(sim::Machine{kNodes}, *scheduler,
                             test::make_workload({test::make_job(0, 1, 100)}),
                             options),
               std::invalid_argument);
}

}  // namespace
}  // namespace jsched
