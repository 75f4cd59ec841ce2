#include "sim/simulator.h"

#include <algorithm>
#include <stdexcept>

namespace jsched::sim {
namespace {

/// A batch run's storage: jobs come from the Workload; records, killed
/// attempts and capacity steps go into the Schedule.
class ScheduleWriter final : public JobTable, public RecordSink {
 public:
  ScheduleWriter(const workload::Workload& workload, Schedule& schedule)
      : workload_(workload), schedule_(schedule) {}

  const Job& job(JobId id) override { return workload_.job(id); }
  JobRecord& record(JobId id) override { return schedule_.record(id); }

  // Records are written in place; there is nothing to emit.
  void on_record(JobId, const JobRecord&, const Job&) override {}
  void on_attempt(const AttemptRecord& attempt) override {
    schedule_.attempts.push_back(attempt);
  }
  void on_capacity_event(Time t, int capacity) override {
    schedule_.capacity_events.emplace_back(t, capacity);
  }

 private:
  const workload::Workload& workload_;
  Schedule& schedule_;
};

}  // namespace

Schedule simulate(const Machine& machine, Scheduler& scheduler,
                  const workload::Workload& workload,
                  const SimOptions& options) {
  machine.validate();
  if (workload.max_nodes() > machine.nodes) {
    throw std::invalid_argument(
        "simulate: workload contains jobs wider than the machine; "
        "trim_to_machine() first");
  }
  Schedule schedule(machine, workload.size(), scheduler.name());
  if (options.record_backlog) {
    // One sample per event; arrivals + completions bound the event count
    // (wakeup-only events coalesce into these in practice).
    schedule.backlog.reserve(2 * workload.size() + 1);
  }
  ScheduleWriter writer(workload, schedule);
  EventCore core(machine, scheduler, writer, writer, options);

  const std::size_t n = workload.size();
  JobId next = 0;
  while (core.pending() > 0 || next < n) {
    Time t = core.next_event_time();
    if (next < n) t = std::min(t, workload[next].submit);
    while (next < n && workload[next].submit == t) ++next;
    core.step(t, next);
    core.retire();
    if (options.record_backlog) {
      const std::size_t queued = scheduler.queue_length();
      if (!schedule.backlog.empty() && schedule.backlog.back().first == t) {
        schedule.backlog.back().second = queued;
      } else {
        schedule.backlog.emplace_back(t, queued);
      }
    }
  }

  schedule.scheduler_cpu_seconds = core.scheduler_cpu_seconds();
  schedule.max_queue_length = core.max_queue_length();
  if (options.validate) validate_schedule(schedule, workload);
  return schedule;
}

}  // namespace jsched::sim
