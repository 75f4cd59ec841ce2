// Discrete-event simulator driving an on-line scheduler over a workload.
#pragma once

#include "sim/event_core.h"
#include "sim/machine.h"
#include "sim/schedule.h"
#include "sim/scheduler.h"
#include "workload/workload.h"

namespace jsched::sim {

/// CoreOptions (CPU measurement, fault injection, cancellation) plus what
/// needs the materialized Schedule.
struct SimOptions : CoreOptions {
  /// Validate the produced schedule before returning (cheap: O(n log n)).
  bool validate = true;

  /// Record the queue-length time series into Schedule::backlog.
  bool record_backlog = false;
};

/// Run `scheduler` over `workload` on `machine`; returns the executed
/// schedule. The scheduler is reset() first, so a scheduler instance can be
/// reused across runs. Each instant is processed by sim::EventCore, in the
/// order event_core.h documents. Throws std::logic_error if the scheduler
/// starts a job that does not fit or that it was never given.
Schedule simulate(const Machine& machine, Scheduler& scheduler,
                  const workload::Workload& workload,
                  const SimOptions& options = {});

}  // namespace jsched::sim
