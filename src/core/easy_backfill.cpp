#include "core/easy_backfill.h"

#include <algorithm>

namespace jsched::core {

void EasyBackfillDispatch::select(Time now, int free_nodes,
                                  const std::vector<JobId>& order,
                                  const std::vector<RunningJob>& running,
                                  std::vector<JobId>& starts) {
  starts.clear();
  index_.begin_select(order.size(), "EasyBackfillDispatch");

  // Greedy phase: start head jobs while they fit.
  std::size_t head = 0;
  while (head < order.size()) {
    const Job& j = store_->get(order[head]);
    if (j.nodes > free_nodes) break;
    free_nodes -= j.nodes;
    starts.push_back(order[head]);
    ++head;
  }
  const std::size_t head_slot = index_.pick_prefix(
      head, head < order.size() ? order[head] : kInvalidJob);
  if (head >= order.size()) return;

  // Reservation for the head: walk estimated completions until enough
  // nodes accumulate. The active set (running jobs + this round's greedy
  // starts, in that order so the unstable sort below sees the exact same
  // sequence) is only materialized when a reservation is actually needed —
  // the everything-started case above skips the copy entirely.
  active_.assign(running.begin(), running.end());
  for (JobId id : starts) {
    const Job& j = store_->get(id);
    active_.push_back({id, now, now + j.estimate, j.nodes});
  }
  const Job& head_job = store_->get(order[head]);
  std::sort(active_.begin(), active_.end(),
            [](const RunningJob& a, const RunningJob& b) {
              return a.estimated_end < b.estimated_end;
            });
  Time shadow = now;
  int avail = free_nodes;
  for (const auto& r : active_) {
    if (avail >= head_job.nodes) break;
    avail += r.nodes;
    shadow = r.estimated_end;
  }
  // `avail` nodes are free once the head can start; whatever the head does
  // not need may be held past the shadow time by backfilled jobs.
  int extra = avail - head_job.nodes;

  // Backfill phase: any later job may start now if it fits and does not
  // disturb the head's reservation.
  index_.pick_fits(head_slot + 1, free_nodes, shadow - now, extra, starts);
}

}  // namespace jsched::core
