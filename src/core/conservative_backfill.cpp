#include "core/conservative_backfill.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <stdexcept>

namespace jsched::core {

namespace {

/// Merged breakpoints a single screening query may walk before giving up
/// and treating the job as moved (an early cutoff is exact — see
/// replan_incremental). Screens span at most [now, reservation]; at
/// realistic replan windows that is a few hundred breakpoints, so the
/// budget only trips on pathological profiles where scratch re-placement
/// is the cheaper tool anyway.
constexpr std::size_t kScreenStepBudget = 2048;

/// Merged breakpoints one certificate-revalidation hull query may walk
/// before answering "unknown" (which merely widens the job's screen to all
/// of [now, start), still exact). The walk is confined to the growth
/// region — a handful of release spans — so the budget only exists as a
/// backstop.
constexpr std::size_t kCrossingStepBudget = 512;

Time span_end(Time start, Duration duration) {
  return start > kTimeInfinity - duration ? kTimeInfinity : start + duration;
}

}  // namespace

ConservativeBackfillDispatch::ConservativeBackfillDispatch(
    const ConservativeParams& params)
    : params_(params) {
  if (params_.reservation_depth < 1) {
    throw std::invalid_argument("ConservativeBackfill: reservation_depth < 1");
  }
  if (params_.compression_queue_limit < 1) {
    throw std::invalid_argument(
        "ConservativeBackfill: compression_queue_limit < 1 — a zero limit "
        "would gate full compression to never run; use full_compression = "
        "false to disable it");
  }
  // replan_prefix is unsigned; a negative value passed by a caller wraps to
  // the top of the size_t range. No real prefix comes close (use
  // full_compression to replan everything), so reject the wrapped half.
  if (params_.replan_prefix >= std::numeric_limits<std::size_t>::max() / 2) {
    throw std::invalid_argument(
        "ConservativeBackfill: replan_prefix is implausibly large — was a "
        "negative value converted to std::size_t?");
  }
}

void ConservativeBackfillDispatch::reset(const sim::Machine& machine,
                                         const JobStore& store) {
  store_ = &store;
  profile_ = sim::Profile(machine.nodes);
  down_nodes_ = 0;
  reserved_.clear();
  wakeups_ = {};
  compression_debt_ = false;
  stats_ = {};
  cursor_ = {};  // anchored in the profile just replaced
  growth_.clear();
  prev_window_.clear();
  screen_all_ = true;
}

void ConservativeBackfillDispatch::reserve(JobId id, Time from) {
  const Job& j = store_->get(id);
  const Time start = profile_.earliest_fit(from, j.estimate, j.nodes);
  profile_.allocate(start, j.estimate, j.nodes);
  reserved_.insert_or_assign(id, start);
  wakeups_.push({start, id});
}

void ConservativeBackfillDispatch::on_enqueue(JobId id, Time now) {
  if (reserved_.size() < params_.reservation_depth && reservable(id)) {
    reserve(id, now);
  }
}

void ConservativeBackfillDispatch::on_start(JobId id, Time now) {
  // select() already removed the reservation entry; the job's allocation
  // [now, now+estimate) stays in the profile and now represents the
  // running job (on_complete returns the unused tail when the job beats
  // its estimate).
  assert(!reserved_.contains(id));
  (void)id;
  (void)now;
}

void ConservativeBackfillDispatch::on_complete(
    JobId id, Time now, Time estimated_end, const std::vector<JobId>& order) {
  ++stats_.completions;
  if (!compression_debt_) ++stats_.replans_elided;
  if (now < estimated_end) {
    const Job& j = store_->get(id);
    profile_.release(now, estimated_end - now, j.nodes);
    growth_.push_back({now, estimated_end, j.nodes});
    compression_debt_ = true;
  }
  // Compression only moves reservations when capacity was freed since the
  // plan was last consistent. An on-time completion (now == estimated_end)
  // returns zero capacity, so the replan would re-place every reservation
  // exactly where it already is — skip it. compression_debt_ tracks
  // whether any capacity has been freed since the last replan that covered
  // the whole reserved set.
  //
  // A *partial* replan (replan_prefix smaller than the reserved set)
  // deliberately never clears the debt: reservations beyond the prefix
  // were planned against the pre-completion profile, and as the queue
  // drains they surface into the prefix window — each later completion
  // must keep re-screening the window so those stale reservations are
  // refreshed when they arrive (PrefixReplanOnlyTouchesTheFront pins the
  // refresh, PartialReplanKeepsDebt pins the re-run). The incremental
  // screen makes the repeated runs cheap: when nothing in the window can
  // move, the replan is read-only and touches no profile state.
  if (compression_debt_) {
    if (reserved_.empty()) {
      compression_debt_ = false;  // nothing to compress: trivially covered
    } else if (params_.full_compression &&
               reserved_.size() <= params_.compression_queue_limit) {
      replan(order, now, reserved_.size());
    } else if (params_.replan_prefix > 0) {
      replan(order, now, params_.replan_prefix);
    }
  }
  profile_.compact(now);
  // Replanning leaves stale heap entries behind; rebuild once they
  // dominate so the heap stays proportional to the reserved set.
  if (wakeups_.size() > 4 * reserved_.size() + 1024) {
    wakeups_ = {};
    for (const auto& [rid, start] : reserved_) wakeups_.push({start, rid});
  }
}

void ConservativeBackfillDispatch::replan(const std::vector<JobId>& order,
                                          Time now, std::size_t limit) {
  ++stats_.replans;
  // Re-plan the first `limit` reserved jobs (queue order) from `now`.
  // Capacity only ever increased since the previous plan, so each
  // re-placed reservation is at or before its old time — the conservative
  // guarantee survives compression.
  const bool full_coverage = limit >= reserved_.size();

  planned_.clear();
  for (JobId id : order) {
    if (planned_.size() >= limit) break;
    auto it = reserved_.find(id);
    if (it == reserved_.end()) continue;  // dormant (beyond depth)
    const Job& j = store_->get(id);
    planned_.push_back({id, it->second, j.estimate, j.nodes});
  }
  if (!planned_.empty()) {
    if (params_.scratch_replan) {
      replace_from(0, now);  // reference semantics: lift and re-place all
    } else {
      replan_incremental(now);
    }
  }
  // The plan is a compressed fixed point again: every window member now
  // holds a standing certificate "no earlier fit exists", valid until
  // capacity grows across its width (growth_ collects the candidate
  // spans). Members are recorded so jobs surfacing into the window later
  // — which carry no certificate — are recognized and screened in full.
  prev_window_.clear();
  prev_window_.reserve(planned_.size());
  for (const PlannedJob& p : planned_) prev_window_.push_back(p.id);
  std::sort(prev_window_.begin(), prev_window_.end());
  growth_.clear();
  screen_all_ = false;
  if (full_coverage) compression_debt_ = false;
}

void ConservativeBackfillDispatch::replan_incremental(Time now) {
  // Phase 1 — screening. The scratch procedure lifts every planned
  // reservation, then re-places them in queue order; screening finds the
  // first queue position whose re-placement would actually move, without
  // touching the profile. The overlay carries the allocations of the
  // not-yet-reached window positions k..end, so while positions 0..k-1
  // are proven unmoved (their allocations, being identical, stay live),
  // `profile_ + overlay` is bit-for-bit the profile the scratch procedure
  // would query before placing position k. A job whose screened fit
  // equals its reservation is reused in place; the first mismatch ends
  // the screen. Exactness does not depend on the cutoff being tight:
  // scratch re-placement of an unmoved job is a no-op on the canonical
  // profile, so handing any suffix starting at or before the true first
  // mover to replace_from() reproduces the scratch schedule exactly —
  // which is why the screen may also bail out early on budget.
  spans_.clear();
  spans_.reserve(planned_.size());
  for (const PlannedJob& p : planned_) {
    spans_.push_back({p.start, span_end(p.start, p.estimate), p.nodes});
  }
  overlay_.build(spans_);
  // Window entrants are capacity growth too: when the certificates were
  // proven, an entrant's reservation was a dormant blocker outside the
  // window; now the overlay lifts it, so a certified predecessor may
  // legitimately move into its slot. Fold their spans into the growth set
  // the crossing-hull query reads. (Entrants created since the last replan
  // never blocked anything — counting them is merely conservative.)
  if (!screen_all_) {
    for (const PlannedJob& p : planned_) {
      if (!std::binary_search(prev_window_.begin(), prev_window_.end(),
                              p.id)) {
        growth_.push_back({p.start, span_end(p.start, p.estimate), p.nodes});
      }
    }
  }
  growth_overlay_.build(growth_);
  const std::uint64_t restarts_before = cursor_.restarts();
  const std::uint64_t steps_before = cursor_.steps();
  std::size_t first_affected = planned_.size();
  for (std::size_t k = 0; k < planned_.size(); ++k) {
    const PlannedJob& p = planned_[k];
    bool unmoved;
    if (p.start == now) {
      // Cannot move: the screened fit is >= now and <= its old start.
      unmoved = true;
    } else if (p.start < now) {
      // Overdue reservation whose wakeup has not been delivered yet; the
      // scratch procedure re-places it from `now`, which is a move.
      unmoved = false;
    } else {
      // The individual bounded walk over `profile_ + overlay` is the exact
      // arbiter. A job certified by the previous replan (a window member
      // then, no wholesale rebuild since) is walked only where an earlier
      // fit can have appeared: the previous replan proved no fit starts
      // in [now, start); with positions 0..k-1 unmoved, `profile_ +
      // overlay` differs from the capacity it was proven against only by
      // the growth spans (shrinks cannot create fits, re-placements of
      // later window positions are lifted out either way). A window that
      // fits now but did not then must contain an instant where growth
      // lifted the combined capacity across the job's width, so its start
      // lies in [first - d + 1, last - 1] for the hull [first, last) of
      // those crossings. An empty hull certifies the job outright; an
      // uncertified job (new window member, post-rebuild) or an unknown
      // hull screens all of [now, start).
      Time from = now;
      Time last_start = kTimeInfinity;
      if (!screen_all_ &&
          std::binary_search(prev_window_.begin(), prev_window_.end(),
                             p.id)) {
        const sim::Profile::CrossingHull hull = profile_.crossing_hull(
            overlay_, growth_overlay_, now, span_end(p.start, p.estimate),
            p.nodes, kCrossingStepBudget);
        stats_.screen_steps += hull.steps;
        from = hull.empty() ? p.start
                            : std::max(now, hull.first - p.estimate + 1);
        last_start = hull.last - 1;
      }
      if (from >= p.start) {
        // No candidate start precedes the job's own slot: unmoved
        // without a walk.
        unmoved = true;
        ++stats_.certified;
      } else {
        const Time fit = profile_.earliest_fit_with(
            overlay_, cursor_, from, p.estimate, p.nodes, p.start,
            last_start, kScreenStepBudget);
        unmoved = fit == p.start;  // moved — or kTimeInfinity on budget
      }
    }
    if (!unmoved) {
      first_affected = k;
      break;
    }
    overlay_.subtract(p.start, span_end(p.start, p.estimate), p.nodes);
    ++stats_.reused;
  }
  stats_.cursor_restarts += cursor_.restarts() - restarts_before;
  stats_.screen_steps += cursor_.steps() - steps_before;
  // Phase 2 — scratch from the first affected position (absent entirely
  // in the common zero-move replan).
  if (first_affected < planned_.size()) replace_from(first_affected, now);
}

void ConservativeBackfillDispatch::replace_from(std::size_t from, Time now) {
  {
    // A burst of releases with no interleaved queries: defer the
    // profile's segment-tree maintenance to the first re-placement query.
    sim::Profile::BulkUpdate bulk(profile_);
    for (std::size_t k = from; k < planned_.size(); ++k) {
      profile_.release(planned_[k].start, planned_[k].estimate,
                       planned_[k].nodes);
    }
  }
  for (std::size_t k = from; k < planned_.size(); ++k) {
    const PlannedJob& p = planned_[k];
    const Time start = profile_.earliest_fit(now, p.estimate, p.nodes);
    profile_.allocate(start, p.estimate, p.nodes);
    ++stats_.replaced;
    // When the reservation lands exactly where it was, the map entry is
    // already right and a valid heap entry for (start, id) still exists —
    // skip the redundant store and push.
    if (start != p.start) {
      ++stats_.moved;
      reserved_.find(p.id)->second = start;
      wakeups_.push({start, p.id});
    }
  }
}

void ConservativeBackfillDispatch::on_reorder(const std::vector<JobId>& order,
                                              Time now) {
  // A new priority order invalidates every reservation: lift all of them
  // and re-place in the new order.
  {
    sim::Profile::BulkUpdate bulk(profile_);
    for (const auto& [id, start] : reserved_) {
      const Job& j = store_->get(id);
      profile_.release(start, j.estimate, j.nodes);
    }
  }
  const std::size_t count = reserved_.size();
  std::size_t planned = 0;
  wakeups_ = {};
  for (JobId id : order) {
    if (planned >= count) break;
    if (!reserved_.contains(id)) continue;
    reserve(id, now);
    ++planned;
  }
  // Every reservation was just re-placed from `now`: the plan is fully
  // compressed, so the next on-time completion has nothing to replan.
  compression_debt_ = false;
  growth_.clear();
  screen_all_ = true;  // placements outside replan(): no certificates
}

void ConservativeBackfillDispatch::on_capacity_change(
    Time now, int available_nodes, const std::vector<JobId>& order,
    const std::vector<RunningJob>& running) {
  (void)running;
  // Every reservation assumed the old capacity: lift them all, adjust the
  // open-ended outage allocation to the new down count, and re-place in
  // queue order. Shrinking is always legal — after the simulator's kills,
  // running jobs use at most `available_nodes`, so with reservations
  // lifted the profile has at least the extra outage free at every
  // instant. Growing releases the recovered slice of the outage.
  const int down = profile_.total_nodes() - available_nodes;
  {
    sim::Profile::BulkUpdate bulk(profile_);
    for (const auto& [id, start] : reserved_) {
      const Job& j = store_->get(id);
      profile_.release(start, j.estimate, j.nodes);
    }
    if (down > down_nodes_) {
      profile_.allocate(now, kTimeInfinity, down - down_nodes_);
    } else if (down < down_nodes_) {
      profile_.release(now, kTimeInfinity, down_nodes_ - down);
    }
  }
  down_nodes_ = down;
  reserved_.clear();
  wakeups_ = {};
  std::size_t planned = 0;
  for (JobId id : order) {
    if (planned >= params_.reservation_depth) break;
    if (!reservable(id)) continue;  // parked until capacity recovers
    reserve(id, now);
    ++planned;
  }
  // The whole reserved set was just re-placed from `now`: fully
  // compressed by construction.
  compression_debt_ = false;
  growth_.clear();
  screen_all_ = true;  // placements outside replan(): no certificates
}

void ConservativeBackfillDispatch::adopt(
    Time now, const std::vector<JobId>& order,
    const std::vector<RunningJob>& running) {
  // Rebuild the profile from scratch: running jobs occupy capacity until
  // their estimated ends, then every queued job gets a fresh reservation
  // in the adopted order. The rebuild assumes full capacity; when nodes
  // are down the owner (PhasedScheduler) re-delivers on_capacity_change
  // right after adopting, restoring the outage allocation.
  profile_ = sim::Profile(profile_.total_nodes());
  down_nodes_ = 0;
  reserved_.clear();
  wakeups_ = {};
  {
    sim::Profile::BulkUpdate bulk(profile_);
    for (const RunningJob& r : running) {
      if (r.estimated_end > now) {
        profile_.allocate(now, r.estimated_end - now, r.nodes);
      }
    }
  }
  for (JobId id : order) {
    if (reserved_.size() >= params_.reservation_depth) break;
    reserve(id, now);
  }
  compression_debt_ = false;  // fresh plan: fully compressed by construction
  growth_.clear();
  screen_all_ = true;  // placements outside replan(): no certificates
}

void ConservativeBackfillDispatch::promote(const std::vector<JobId>& order,
                                           Time now) {
  if (reserved_.size() >= params_.reservation_depth ||
      reserved_.size() >= order.size()) {
    return;
  }
  for (JobId id : order) {
    if (reserved_.size() >= params_.reservation_depth) break;
    if (!reserved_.contains(id) && reservable(id)) {
      reserve(id, now);
      // The promoted job may rank anywhere in the current order (e.g. a
      // SMART arrival folded in by a reorder before it was ever enqueued
      // here), but earliest-fit placed it behind every existing
      // reservation — the plan is no longer the fixed point of a replay
      // in queue order, so compression has real work again.
      compression_debt_ = true;
    }
  }
}

void ConservativeBackfillDispatch::select(Time now, int free_nodes,
                                          const std::vector<JobId>& order,
                                          const std::vector<RunningJob>&,
                                          std::vector<JobId>& starts) {
  promote(order, now);

  starts.clear();
  [[maybe_unused]] int budget = free_nodes;

  // Start every reservation that is due. Capacity is guaranteed by the
  // profile, so they all fit together.
  while (!wakeups_.empty() && wakeups_.top().t <= now) {
    const Wakeup w = wakeups_.top();
    wakeups_.pop();
    auto it = reserved_.find(w.id);
    if (it == reserved_.end() || it->second != w.t) continue;  // stale
    const Job& j = store_->get(w.id);
    assert(j.nodes <= budget);
    budget -= j.nodes;
    // Normalize the allocation when the reservation was planned for an
    // earlier instant that had no event of its own, then retire the
    // reservation here so duplicate heap entries cannot start it twice.
    if (w.t < now) {
      profile_.release(w.t, j.estimate, j.nodes);
      profile_.allocate(now, j.estimate, j.nodes);
      growth_.push_back({w.t, span_end(w.t, j.estimate), j.nodes});
      compression_debt_ = true;  // the shifted tail perturbed the plan
    }
    reserved_.erase(it);
    starts.push_back(w.id);
  }

  if (!starts.empty()) profile_.compact(now);
}

Time ConservativeBackfillDispatch::next_wakeup(Time) const {
  while (!wakeups_.empty()) {
    const Wakeup w = wakeups_.top();
    auto it = reserved_.find(w.id);
    if (it == reserved_.end() || it->second != w.t) {
      wakeups_.pop();  // stale
      continue;
    }
    return w.t;
  }
  return kTimeInfinity;
}

Time ConservativeBackfillDispatch::reservation_of(JobId id) const {
  auto it = reserved_.find(id);
  return it == reserved_.end() ? kTimeInfinity : it->second;
}

}  // namespace jsched::core
