// Dispatch policies: how an ordered wait queue is placed on the machine.
//
//  * HeadOnlyDispatch — the plain "greedy list schedule" of the paper: the
//    next job in the list is started as soon as the necessary resources
//    are available; a blocked head blocks everything behind it (§5.1).
//  * FirstFitDispatch — the classical Garey&Graham list scheduling (§5.3):
//    "always starts the next job for which enough resources are
//    available"; backfilling is a no-op on top of this by construction.
//  * EasyBackfillDispatch / ConservativeBackfillDispatch — §5.2, in their
//    own headers.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/fit_index.h"
#include "core/job_store.h"
#include "sim/machine.h"
#include "util/time.h"

namespace jsched::core {

/// Per-select context handed from the ListScheduler to its dispatcher.
struct RunningJob {
  JobId id;
  Time start;
  Time estimated_end;  // start + estimate; actual end may come earlier
  int nodes;
};

/// The hook contract. ListScheduler is its one implementation (a
/// PhasedScheduler is a phase switch over a ListScheduler, not a second
/// owner): it reports every change to the wait queue, so a dispatcher may
/// keep state mirroring `order` between selects (the EASY and first-fit
/// fit index does):
///
///  * on_enqueue(id) when a job is appended at the end of the order;
///  * on_start(id), after select(), for each returned job that actually
///    starts, in the order select() returned them (a decorator may veto
///    some; those stay queued and get no on_start);
///  * on_reorder(order) whenever the order changed any other way (a
///    mid-queue insertion or a replan), instead of on_enqueue;
///  * adopt(order, running) when the dispatcher takes over a machine it
///    has not been watching (ListScheduler::hand_over on a phase flip);
///    until then it may be stale.
///
/// A dispatcher that mirrors the order throws std::logic_error from
/// select() when the queue it is handed disagrees with its mirror, rather
/// than scheduling from stale state.
class Dispatcher {
 public:
  virtual ~Dispatcher() = default;

  /// Name suffix, e.g. "EASY"; empty for the plain list schedule.
  virtual std::string name() const = 0;

  virtual void reset(const sim::Machine& machine, const JobStore& store) = 0;

  /// Queue/lifecycle notifications (defaults: stateless dispatchers ignore
  /// them).
  virtual void on_enqueue(JobId, Time) {}
  virtual void on_start(JobId, Time) {}
  virtual void on_complete(JobId, Time, Time /*estimated_end*/,
                           const std::vector<JobId>& /*order*/) {}
  virtual void on_reorder(const std::vector<JobId>&, Time) {}

  /// The machine's node count changed to `available_nodes` (fault
  /// injection). Kills caused by the change were already delivered via
  /// on_complete; `running` is the post-kill active set. Dispatchers that
  /// plan only against the free_nodes handed to select() (head-only,
  /// first-fit, EASY — all recompute per call) need nothing; dispatchers
  /// holding a long-range availability profile override it to rebuild
  /// their plan at the new capacity.
  virtual void on_capacity_change(Time now, int available_nodes,
                                  const std::vector<JobId>& order,
                                  const std::vector<RunningJob>& running) {
    (void)now;
    (void)available_nodes;
    (void)order;
    (void)running;
  }

  /// Take over a machine mid-flight (phase-switched schedulers): rebuild
  /// any internal state from the currently running jobs and the queue
  /// order. Stateless dispatchers need nothing beyond the default.
  virtual void adopt(Time now, const std::vector<JobId>& order,
                     const std::vector<RunningJob>& running) {
    (void)running;
    on_reorder(order, now);
  }

  /// Fill `starts` with the jobs to start now (clearing whatever it held;
  /// the buffer is caller-owned and reused across calls). `order` is the
  /// current queue (highest priority first); `running` the active jobs.
  /// Selected jobs must fit in free_nodes cumulatively.
  virtual void select(Time now, int free_nodes,
                      const std::vector<JobId>& order,
                      const std::vector<RunningJob>& running,
                      std::vector<JobId>& starts) = 0;

  /// See sim::Scheduler::next_wakeup.
  virtual Time next_wakeup(Time) const { return kTimeInfinity; }
};

/// Greedy list schedule: start from the head, stop at the first job that
/// does not fit.
class HeadOnlyDispatch final : public Dispatcher {
 public:
  std::string name() const override { return ""; }
  void reset(const sim::Machine&, const JobStore& store) override { store_ = &store; }
  void select(Time now, int free_nodes, const std::vector<JobId>& order,
              const std::vector<RunningJob>& running,
              std::vector<JobId>& starts) override;

 private:
  const JobStore* store_ = nullptr;
};

/// Garey & Graham: start every job that fits, in queue order (ties broken
/// by queue position). The fit index jumps straight to the jobs that fit.
class FirstFitDispatch final : public Dispatcher {
 public:
  std::string name() const override { return "FF"; }
  void reset(const sim::Machine&, const JobStore& store) override {
    index_.reset(store);
  }
  void on_enqueue(JobId id, Time) override { index_.append(id); }
  void on_start(JobId id, Time) override { index_.mark_started(id); }
  void on_reorder(const std::vector<JobId>& order, Time) override {
    index_.assign(order);
  }
  void select(Time now, int free_nodes, const std::vector<JobId>& order,
              const std::vector<RunningJob>& running,
              std::vector<JobId>& starts) override;

 private:
  FitIndex index_;
};

}  // namespace jsched::core
