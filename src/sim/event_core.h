// The event kernel: the one place that implements what happens at one
// simulated instant. simulate(), simulate_stream() and serve::serve() all
// drive the same EventCore; they differ only in where jobs come from and
// where records go.
//
// Per-instant order at time t (the paper's on-line model, extended by the
// fault axis):
//   1. completions at t, in (t, id) order — before faults, so a job ending
//      exactly when its nodes fail has completed, not been killed;
//   2. the fault batch: every trace event at t in trace order; a failure
//      first removes capacity, then kills running jobs (latest start first,
//      larger id on ties) until usage fits the surviving capacity;
//   3. one on_capacity_change if any event applied;
//   4. fresh arrivals at t, in id order;
//   5. re-submissions of the jobs killed at t, in kill order;
//   6. start decisions until the scheduler has none at t.
//
// Storage rule: the core keeps no copy of a Job or a JobRecord. It reads
// jobs from and writes records into the caller's JobTable (the Workload
// and Schedule for a batch run, a LiveWindow for stream and serve). Its own
// per-job state is one status byte per job of the live range. Fault state
// (attempt start, restart overhead, remaining life, kill epoch) exists only
// for running or killed jobs under fault injection.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <queue>
#include <unordered_map>
#include <vector>

#include "fault/fault.h"
#include "sim/cancel.h"
#include "sim/machine.h"
#include "sim/schedule.h"
#include "sim/scheduler.h"
#include "workload/job.h"

namespace jsched::sim {

/// Visitor receiving the simulation's output as it becomes final.
/// `on_record` is called exactly once per job, in JobId order; attempts
/// arrive in kill order and capacity events in trace order — the same
/// orders the materializing Schedule stores them in.
class RecordSink {
 public:
  virtual ~RecordSink() = default;

  /// Final record of job `id` (its workload entry is `j`). The references
  /// are only valid during the call.
  virtual void on_record(JobId id, const JobRecord& record, const Job& j) = 0;

  /// A killed execution attempt (fault injection only).
  virtual void on_attempt(const AttemptRecord& attempt) { (void)attempt; }

  /// A machine capacity step: available nodes after the step.
  virtual void on_capacity_event(Time t, int capacity) {
    (void)t;
    (void)capacity;
  }

  /// Job `id` started at `t`; `epoch` counts its earlier killed attempts.
  virtual void on_started(JobId id, std::uint32_t epoch, Time t) {
    (void)id;
    (void)epoch;
    (void)t;
  }

  /// Job `id` completed at `t` (the attempt started with `epoch`).
  virtual void on_completed(JobId id, std::uint32_t epoch, Time t) {
    (void)id;
    (void)epoch;
    (void)t;
  }
};

/// Caller-owned job storage. The core reads each arrived job and writes
/// each record through it; both references must stay valid until the job
/// is retired.
class JobTable {
 public:
  virtual const Job& job(JobId id) = 0;
  virtual JobRecord& record(JobId id) = 0;
  /// The oldest job held is final and its record was emitted.
  virtual void retire() {}

 protected:
  ~JobTable() = default;
};

/// The jobs of a stream or a served run that have arrived but whose record
/// is not yet final: ids [frontier, end), contiguous because arrivals come
/// in id order.
class LiveWindow final : public JobTable {
 public:
  /// Append the next job; its id must be end().
  void push(const Job& j) { slots_.push_back({j, {}}); }
  JobId end() const noexcept {
    return frontier_ + static_cast<JobId>(slots_.size());
  }
  std::size_t size() const noexcept { return slots_.size(); }

  const Job& job(JobId id) override { return slots_[id - frontier_].job; }
  JobRecord& record(JobId id) override { return slots_[id - frontier_].rec; }
  void retire() override {
    slots_.pop_front();
    ++frontier_;
  }

 private:
  struct Slot {
    Job job;
    JobRecord rec;
  };
  std::deque<Slot> slots_;
  JobId frontier_ = 0;
};

/// What every driver of the core sets.
struct CoreOptions {
  /// Measure CPU time spent in scheduler callbacks (Tables 7/8). Uses the
  /// thread CPU clock; adds two clock reads per callback.
  bool measure_scheduler_cpu = false;

  /// Fault injection. Inactive (the default), no job is ever killed and no
  /// fault state exists. Active, the core replays faults.trace, kills
  /// running jobs when a failure removes the nodes under them, applies
  /// faults.recovery to decide the lost work, and re-submits the remainder
  /// at the kill instant. The trace must be built for exactly machine.nodes
  /// nodes.
  fault::FaultOptions faults{};

  /// Cooperative cancellation (not owned; may be null). When set, the
  /// token is polled once per step and an expired or cancelled run aborts
  /// by throwing sim::CancelledError — within the deadline plus one step,
  /// with no watchdog thread. Null (the default) costs one untaken branch
  /// per step.
  const CancelToken* cancel = nullptr;
};

/// A steppable simulation kernel: the driver asks for next_event_time(),
/// makes the jobs arriving at the chosen instant available in its
/// JobTable, and calls step(). Throws std::logic_error on scheduler
/// contract violations (unknown job, started twice, oversubscription).
class EventCore {
 public:
  /// Resets `scheduler` for `machine`. Throws std::invalid_argument when
  /// an active failure trace does not match the machine or the recovery
  /// options are invalid. `jobs`, `sink` and the options' trace and token
  /// must outlive the core.
  EventCore(const Machine& machine, Scheduler& scheduler, JobTable& jobs,
            RecordSink& sink, const CoreOptions& options = {});

  /// Earliest completion, fault event or scheduler wakeup still ahead;
  /// arrivals are the driver's to add. A wakeup that does not advance time
  /// past the last step is ignored, so a buggy scheduler cannot stall the
  /// clock. kTimeInfinity when none is pending.
  Time next_event_time();

  /// Process instant `t` (see the order above); the jobs with ids below
  /// `arrivals_end` that have not arrived yet arrive at t. Throws
  /// std::logic_error when t is kTimeInfinity: nothing can finish the
  /// pending jobs.
  void step(Time t, JobId arrivals_end);

  /// Emit the records that became final, in id order, through the sink
  /// and retire them from the job table.
  void retire();

  /// Throws the std::logic_error that reports pending jobs no event can
  /// ever start.
  [[noreturn]] void throw_starved() const;

  Time now() const noexcept { return now_; }  // -1 before the first step
  /// Arrived jobs that have not completed.
  std::size_t pending() const noexcept { return pending_; }
  std::size_t retired() const noexcept { return frontier_; }
  /// Latest end among retired records.
  Time makespan() const noexcept { return makespan_; }
  int capacity() const noexcept { return capacity_; }
  std::size_t max_queue_length() const noexcept { return max_queue_; }
  double scheduler_cpu_seconds() const noexcept { return cpu_; }

 private:
  enum Status : std::uint8_t { kQueued, kRunning, kDone };

  /// A scheduled completion. `epoch` snapshots the job's kill count at
  /// start, so completions of killed attempts are recognized as stale.
  struct Completion {
    Time t;
    JobId id;
    std::uint32_t epoch;
    bool operator>(const Completion& o) const noexcept {
      return t != o.t ? t > o.t : id > o.id;
    }
  };

  /// A running attempt under fault injection.
  struct Attempt {
    JobId id;
    Time start;
    Duration overhead;  // restart work at the head of this attempt
  };

  /// A job killed at least once, until it completes.
  struct Resume {
    std::uint32_t epoch = 0;
    Duration life = 0;      // remaining fault-free lifetime
    Duration overhead = 0;  // restart work owed at the next start
  };

  std::uint8_t& status(JobId id) { return status_[id - frontier_]; }
  bool stale(const Completion& c);
  void complete_due(Time t);
  void apply_faults(Time t);
  void kill_one(Time t);
  void start(JobId id, Time t);
  template <class Fn>
  void timed(Fn&& fn);

  Scheduler& scheduler_;
  JobTable& jobs_;
  RecordSink& sink_;
  const bool measure_cpu_;
  const CancelToken* const cancel_;
  const fault::FailureTrace* const trace_;  // null when faults are inactive
  const fault::RecoveryOptions recovery_;

  std::priority_queue<Completion, std::vector<Completion>, std::greater<>>
      completions_;
  std::deque<std::uint8_t> status_;  // ids [frontier_, arrived_)
  JobId frontier_ = 0;
  JobId arrived_ = 0;
  std::size_t pending_ = 0;
  int capacity_;
  int free_;
  std::size_t next_fault_ = 0;
  std::vector<Attempt> active_;  // running jobs, fault injection only
  std::unordered_map<JobId, Resume> killed_;
  Time now_ = -1;
  Time makespan_ = 0;
  std::size_t max_queue_ = 0;
  double cpu_ = 0.0;

  // Buffers reused across steps (schedulers fill `starts_` in place).
  std::vector<JobId> starts_;
  std::vector<Completion> completed_;
  std::vector<JobId> resubmit_;
};

}  // namespace jsched::sim
