#include "core/fit_index.h"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <string>

namespace jsched::core {

void FitIndex::reset(const JobStore& store) {
  store_ = &store;
  tree_.clear();
  cap_ = 0;
  used_ = 0;
  live_ = 0;
  picked_.clear();
  picked_cursor_ = 0;
  set_capacity(kMinCapacity);
}

FitIndex::Summary FitIndex::leaf_of(JobId id) const {
  // Jobs have nodes >= 1 and estimate >= 1 (the simulator rejects anything
  // else), so clamping at 0 keeps every summary a lower bound.
  auto saturate = [](long long v) {
    return static_cast<std::uint32_t>(
        std::clamp<long long>(v, 0, static_cast<long long>(kMaxLive)));
  };
  const Job& j = store_->get(id);
  return {saturate(j.nodes), saturate(j.estimate)};
}

FitIndex::Summary FitIndex::combine(const Summary& l, const Summary& r) {
  return {std::min(l.nodes, r.nodes), std::min(l.estimate, r.estimate)};
}

void FitIndex::set_leaf(std::size_t slot, Summary s) {
  std::size_t v = slot + cap_;
  tree_[v] = s;
  // Once a node comes out unchanged, so do all its ancestors.
  for (v >>= 1; v >= 1; v >>= 1) {
    const Summary m = combine(tree_[2 * v], tree_[2 * v + 1]);
    if (m.nodes == tree_[v].nodes && m.estimate == tree_[v].estimate) break;
    tree_[v] = m;
  }
}

void FitIndex::rebuild_prefix(std::size_t n) {
  if (n == 0) return;
  // Level by level, the parents of the changed leaves [0, n): O(n + log
  // cap), so rebuilding a shallow queue does not pay for the whole array.
  for (std::size_t lo = cap_ / 2, hi = (cap_ + n - 1) / 2; lo >= 1;
       lo /= 2, hi /= 2) {
    for (std::size_t v = lo; v <= hi; ++v) {
      tree_[v] = combine(tree_[2 * v], tree_[2 * v + 1]);
    }
  }
}

std::size_t FitIndex::capacity_for(std::size_t n) {
  // Room for as many appends again before the array has to grow.
  return std::bit_ceil(std::max(2 * n, kMinCapacity));
}

void FitIndex::set_capacity(std::size_t cap) {
  std::vector<Summary> fresh(2 * cap, kEmpty);
  std::copy_n(tree_.begin() + static_cast<std::ptrdiff_t>(cap_), used_,
              fresh.begin() + static_cast<std::ptrdiff_t>(cap));
  tree_.swap(fresh);
  cap_ = cap;
  slots_.resize(cap_, kInvalidJob);
  rebuild_prefix(used_);
}

void FitIndex::append(JobId id) {
  if (used_ == cap_) {
    compact();
    if (2 * used_ > cap_) set_capacity(2 * cap_);
  }
  slots_[used_] = id;
  set_leaf(used_, leaf_of(id));
  ++used_;
  ++live_;
}

void FitIndex::assign(const std::vector<JobId>& order) {
  picked_.clear();
  picked_cursor_ = 0;
  const std::size_t old_used = used_;
  used_ = 0;
  const std::size_t want = capacity_for(order.size());
  if (cap_ < order.size() || cap_ > 4 * want) set_capacity(want);
  std::fill_n(tree_.begin() + static_cast<std::ptrdiff_t>(cap_),
              std::min(old_used, cap_), kEmpty);
  for (JobId id : order) {
    slots_[used_] = id;
    tree_[cap_ + used_] = leaf_of(id);
    ++used_;
  }
  live_ = used_;
  rebuild_prefix(std::max(std::min(old_used, cap_), used_));
}

void FitIndex::compact() {
  picked_.clear();  // slot numbers are about to change
  picked_cursor_ = 0;
  const std::size_t old_used = used_;
  std::size_t w = 0;
  for (std::size_t r = 0; r < old_used; ++r) {
    const Summary s = tree_[cap_ + r];
    if (s.nodes == kTomb) continue;
    slots_[w] = slots_[r];
    tree_[cap_ + w] = s;
    ++w;
  }
  std::fill(tree_.begin() + static_cast<std::ptrdiff_t>(cap_ + w),
            tree_.begin() + static_cast<std::ptrdiff_t>(cap_ + old_used),
            kEmpty);
  used_ = w;
  // Give memory back once the queue has drained far below the array.
  const std::size_t want = capacity_for(used_);
  if (cap_ > 4 * want) {
    set_capacity(want);
  } else {
    rebuild_prefix(old_used);
  }
}

void FitIndex::mark_started(JobId id) {
  // Starts arrive in pick order, minus any picks a decorator vetoed, so
  // one forward sweep over the picks finds them all.
  std::size_t k = picked_cursor_;
  while (k < picked_.size() && slots_[picked_[k]] != id) ++k;
  if (k == picked_.size()) {
    throw std::logic_error("FitIndex: on_start for job " + std::to_string(id) +
                           " that the last select did not pick");
  }
  const std::size_t slot = picked_[k];
  set_leaf(slot, kEmpty);
  slots_[slot] = kInvalidJob;
  --live_;
  picked_cursor_ = k + 1;
}

void FitIndex::begin_select(std::size_t queue_length, const char* who) {
  if (queue_length != live_) {
    throw std::logic_error(
        std::string(who) + ": fit index holds " + std::to_string(live_) +
        " jobs but the queue has " + std::to_string(queue_length) +
        " (a dispatcher hook was missed)");
  }
  picked_.clear();
  picked_cursor_ = 0;
  if (used_ - live_ > live_) compact();
}

template <class MayHold>
std::size_t FitIndex::next_slot(std::size_t from, MayHold may_hold) const {
  if (from >= used_) return used_;
  std::size_t v = from + cap_;
  for (;;) {
    if (may_hold(tree_[v])) {
      if (v >= cap_) return v - cap_;
      v = 2 * v;  // descend: the left child comes first in queue order
      continue;
    }
    // Move to the next subtree to the right: climb while v is a right
    // child, then step to the sibling. Leaving the root ends the search.
    while (v & 1) v >>= 1;
    if (v == 0) return used_;
    ++v;
  }
}

std::size_t FitIndex::pick_prefix(std::size_t count, JobId head_id) {
  // Tombstones and unused slots read as kTomb; live jobs never do.
  auto live = [](const Summary& s) { return s.nodes != kTomb; };
  std::size_t slot = next_slot(0, live);
  for (std::size_t i = 0; i < count; ++i) {
    picked_.push_back(slot);
    slot = next_slot(slot + 1, live);
  }
  if (head_id != kInvalidJob && (slot >= used_ || slots_[slot] != head_id)) {
    throw std::logic_error(
        "FitIndex: queue head diverged from the mirrored order (a reorder "
        "was not reported)");
  }
  return slot;
}

void FitIndex::pick_fits(std::size_t from, int free_nodes, Duration horizon,
                         int extra, std::vector<JobId>& starts) {
  // A subtree can hold a startable job only if its narrowest job fits the
  // free nodes and either fits the extra nodes or its shortest estimate
  // ends within the horizon. Comparisons run in 64 bits: extra may be
  // negative, horizon unbounded.
  auto may_fit = [&](const Summary& s) {
    const long long nodes = s.nodes;
    return nodes <= free_nodes &&
           (nodes <= extra || static_cast<long long>(s.estimate) <= horizon);
  };
  if (!may_fit(tree_[1])) return;  // nothing anywhere can start
  while (free_nodes > 0) {
    const std::size_t slot = next_slot(from, may_fit);
    if (slot == used_) return;
    // Today's exact test against the job itself (summaries saturate).
    const Job& j = store_->get(slots_[slot]);
    if (j.nodes <= free_nodes) {
      const bool ends_in_horizon = j.estimate <= horizon;
      if (ends_in_horizon || j.nodes <= extra) {
        free_nodes -= j.nodes;
        if (!ends_in_horizon) extra -= j.nodes;
        starts.push_back(slots_[slot]);
        picked_.push_back(slot);
      }
    }
    from = slot + 1;
  }
}

}  // namespace jsched::core
