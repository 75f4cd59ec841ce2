#include "core/list_scheduler.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace jsched::core {

ListScheduler::ListScheduler(std::unique_ptr<OrderingPolicy> ordering,
                             std::unique_ptr<Dispatcher> dispatcher)
    : ordering_(std::move(ordering)), dispatcher_(std::move(dispatcher)) {
  if (!ordering_ || !dispatcher_) {
    throw std::invalid_argument("ListScheduler: null component");
  }
}

std::string ListScheduler::name() const {
  const std::string d = dispatcher_->name();
  return d.empty() ? ordering_->name() : ordering_->name() + "+" + d;
}

void ListScheduler::reset(const sim::Machine& machine) {
  store_.clear();
  running_.clear();
  ordering_->reset(machine, store_);
  dispatcher_->reset(machine, store_);
  seen_version_ = ordering_->version();
}

void ListScheduler::sync_order_version(Time now) {
  if (ordering_->version() != seen_version_) {
    seen_version_ = ordering_->version();
    dispatcher_->on_reorder(ordering_->order(), now);
  }
}

void ListScheduler::on_submit(const Submission& job, Time now) {
  store_.put(job);
  const std::uint64_t before = ordering_->version();
  ordering_->on_submit(job.id, now);
  if (ordering_->version() != before) {
    // The new job is covered by the reorder notification.
    seen_version_ = ordering_->version();
    dispatcher_->on_reorder(ordering_->order(), now);
  } else {
    dispatcher_->on_enqueue(job.id, now);
  }
}

void ListScheduler::on_complete(JobId id, Time now) {
  auto it = std::find_if(running_.begin(), running_.end(),
                         [&](const RunningJob& r) { return r.id == id; });
  if (it == running_.end()) {
    throw std::logic_error("ListScheduler: completion for job not running");
  }
  const Time estimated_end = it->estimated_end;
  running_.erase(it);
  dispatcher_->on_complete(id, now, estimated_end, ordering_->order());
  sync_order_version(now);
  // The job is finished: no component may consult it again (a fault
  // re-submission re-puts the id). Freeing the entry is what keeps the
  // store O(live jobs) in streaming runs.
  store_.erase(id);
}

void ListScheduler::on_capacity_change(Time now, int available_nodes) {
  dispatcher_->on_capacity_change(now, available_nodes, ordering_->order(),
                                  running_);
}

void ListScheduler::select_starts(Time now, int free_nodes,
                                  std::vector<JobId>& starts) {
  dispatcher_->select(now, free_nodes, ordering_->order(), running_, starts);
  for (JobId id : starts) {
    ordering_->on_remove(id, now);
    dispatcher_->on_start(id, now);
    const Job& j = store_.get(id);
    running_.push_back({id, now, now + j.estimate, j.nodes});
  }
  sync_order_version(now);
}

void ListScheduler::hand_over(Time now,
                              std::unique_ptr<OrderingPolicy>& ordering,
                              std::unique_ptr<Dispatcher>& dispatcher) {
  std::vector<JobId> queued = ordering_->order();
  std::sort(queued.begin(), queued.end());  // ids are submission-ordered
  for (JobId id : queued) ordering_->on_remove(id, now);
  for (JobId id : queued) ordering->on_submit(id, now);
  std::swap(ordering_, ordering);
  std::swap(dispatcher_, dispatcher);
  dispatcher_->adopt(now, ordering_->order(), running_);
  seen_version_ = ordering_->version();
}

Time ListScheduler::next_wakeup(Time now) const {
  return dispatcher_->next_wakeup(now);
}

std::size_t ListScheduler::queue_length() const {
  return ordering_->order().size();
}

}  // namespace jsched::core
