// Composition of an OrderingPolicy with a Dispatcher into an on-line
// scheduler — the paper's architecture in one class: every evaluated
// algorithm is "a job order" (FCFS / SMART / PSRS) "plus a greedy list
// dispatch" (head-only, Garey&Graham first fit, EASY or conservative
// backfilling).
//
// This is the one implementation of the dispatcher hook contract
// (dispatch.h) and the one owner of a wait queue, running set and job
// store. PhasedScheduler (§7) is a phase switch over it: it swaps the
// (ordering, dispatcher) pair through hand_over().
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/dispatch.h"
#include "core/job_store.h"
#include "core/ordering.h"
#include "sim/scheduler.h"

namespace jsched::core {

class ListScheduler final : public sim::Scheduler {
 public:
  ListScheduler(std::unique_ptr<OrderingPolicy> ordering,
                std::unique_ptr<Dispatcher> dispatcher);

  std::string name() const override;
  void reset(const sim::Machine& machine) override;
  void on_submit(const Submission& job, Time now) override;
  void on_complete(JobId id, Time now) override;
  void on_capacity_change(Time now, int available_nodes) override;
  void select_starts(Time now, int free_nodes,
                     std::vector<JobId>& starts) override;
  Time next_wakeup(Time now) const override;
  std::size_t queue_length() const override;

  /// Swap in another (ordering, dispatcher) pair mid-run; on return the
  /// arguments hold the outgoing pair. Both incoming components must have
  /// been reset against store(). The queued jobs move to the incoming
  /// ordering in submission (id) order, so it imposes its own priorities,
  /// and leave the outgoing one; the incoming dispatcher then adopt()s the
  /// running set. The outgoing dispatcher keeps its now stale state until
  /// a later hand_over adopts the machine with it again.
  void hand_over(Time now, std::unique_ptr<OrderingPolicy>& ordering,
                 std::unique_ptr<Dispatcher>& dispatcher);

  /// The submission data the active pair reads.
  const JobStore& store() const { return store_; }

  /// Introspection for tests.
  const OrderingPolicy& ordering() const { return *ordering_; }
  const Dispatcher& dispatcher() const { return *dispatcher_; }
  const std::vector<RunningJob>& running() const { return running_; }

 private:
  void sync_order_version(Time now);

  std::unique_ptr<OrderingPolicy> ordering_;
  std::unique_ptr<Dispatcher> dispatcher_;
  JobStore store_;
  std::vector<RunningJob> running_;
  std::uint64_t seen_version_ = 0;
};

}  // namespace jsched::core
