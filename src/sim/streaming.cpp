#include "sim/streaming.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace jsched::sim {

StreamStats simulate_stream(const Machine& machine, Scheduler& scheduler,
                            workload::JobSource& source, RecordSink& sink,
                            const StreamOptions& options) {
  machine.validate();
  LiveWindow window;
  EventCore core(machine, scheduler, window, sink, options);

  // One-job lookahead into the source, validated as it is pulled: the
  // stream must carry the finalized-Workload invariants.
  Job pending;
  bool has_pending = false;
  Time prev_submit = 0;
  JobId expected = 0;  // id the next pulled job must carry
  const auto pull = [&] {
    has_pending = source.next(pending);
    if (!has_pending) return;
    if (pending.id != expected) {
      throw std::invalid_argument(
          "simulate: source emitted job id " + std::to_string(pending.id) +
          " where " + std::to_string(expected) + " was expected (ids must be "
          "dense and in order)");
    }
    if (pending.submit < prev_submit) {
      throw std::invalid_argument("simulate: source emitted job " +
                                  std::to_string(pending.id) +
                                  " with a decreasing submit time");
    }
    if (pending.nodes < 1 || pending.runtime < 1 || pending.estimate < 1) {
      throw std::invalid_argument("simulate: source emitted job " +
                                  std::to_string(pending.id) +
                                  " with invalid fields");
    }
    if (pending.nodes > machine.nodes) {
      throw std::invalid_argument(
          "simulate: workload contains jobs wider than the machine; "
          "trim_to_machine() first");
    }
    prev_submit = pending.submit;
    ++expected;
  };
  pull();

  StreamStats stats;
  while (core.pending() > 0 || has_pending) {
    Time t = core.next_event_time();
    if (has_pending) t = std::min(t, pending.submit);
    while (has_pending && pending.submit == t) {
      window.push(pending);
      pull();
    }
    stats.peak_live_jobs = std::max(stats.peak_live_jobs, window.size());
    core.step(t, window.end());
    core.retire();
  }

  stats.jobs = core.retired();
  stats.makespan = core.makespan();
  stats.scheduler_cpu_seconds = core.scheduler_cpu_seconds();
  stats.max_queue_length = core.max_queue_length();
  return stats;
}

}  // namespace jsched::sim
