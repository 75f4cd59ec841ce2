// Future node-availability profile.
//
// Backfilling (paper §5.2) plans against *estimated* completion times: the
// profile is a piecewise-constant map from time to free nodes, updated as
// jobs are allocated (running jobs until their estimated end, reservations
// for queued jobs) and as capacity is returned early when a job finishes
// before its estimate.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/time.h"

namespace jsched::sim {

/// One hypothetical capacity span for a CapacityOverlay: `nodes` extra free
/// nodes over [start, end).
struct CapacitySpan {
  Time start;
  Time end;
  int nodes;
};

/// Additive step function of *extra* free capacity, laid over a Profile in
/// what-if queries (Profile::earliest_fit_with). The canonical use is
/// conservative-backfill compression screening: the overlay holds the
/// allocations of the reservations that a scratch replan *would* lift, so
/// `profile + overlay` is exactly the profile the scratch procedure would
/// query — without mutating the profile at all.
///
/// Built once from a batch of spans (O(n log n)), then spans are retired
/// one at a time with subtract() as the screen walks the queue. subtract()
/// never inserts breakpoints — every span boundary was materialized by
/// build() — so the time vector is immutable between builds and a retire
/// is two binary searches plus a linear range add.
class CapacityOverlay {
 public:
  /// Replace the overlay with the sum of `spans` (empty spans are ignored).
  void build(const std::vector<CapacitySpan>& spans);

  /// Remove one span previously included in build(). Precondition: the
  /// span was part of the built batch (its boundaries exist and its
  /// capacity is still present); asserted in debug builds.
  void subtract(Time start, Time end, int nodes);

  void clear() noexcept {
    t_.clear();
    add_.clear();
  }
  bool empty() const noexcept { return t_.empty(); }
  std::size_t breakpoints() const noexcept { return t_.size(); }

  /// Extra free nodes at time `t` (0 before the first breakpoint).
  int at(Time t) const;

 private:
  friend class Profile;
  // Parallel arrays: add_[i] applies on [t_[i], t_[i+1]), and 0 outside.
  // Adjacent equal values are not merged — subtract() relies on stable
  // indices, and the merged walk in earliest_fit_with tolerates redundant
  // breakpoints.
  std::vector<Time> t_;
  std::vector<int> add_;
};

/// Piecewise-constant free-capacity timeline.
///
/// Stored as a flat sorted vector of {time, free} breakpoints, each valid
/// from its time until the next breakpoint; the final breakpoint extends to
/// infinity. There is always a breakpoint at or before any queried time
/// (the initial one sits at time 0, or at the `now` passed to compact()).
/// The vector may carry a dead prefix of [0, front_) retired breakpoints:
/// compact() advances the offset in O(1) and the storage is physically
/// erased only once the dead prefix dominates (amortized O(1) per call).
///
/// The breakpoints are augmented with an implicit segment tree over the
/// free-capacity values (range-min for fits(), plus range-max to jump
/// between candidate windows), so
///   * fits() is one range-min query                       — O(log n),
///   * earliest_fit() is a descent over candidate windows  — O(log n) per
///     window inspected, and each under-capacity run is inspected at most
///     once per query (no restart scans over breakpoints),
///   * allocate()/release() that only modify breakpoint values in place
///     (no insert/erase, the steady-state case) repair the tree over the
///     touched leaf span immediately — O(touched + log n) — and leave any
///     pending suffix dirtiness untouched,
///   * structural allocate()/release() (edge inserted or merged away) mark
///     the tree dirty from the first shifted leaf; queries repair lazily —
///     fits() only up to its own right boundary, earliest_fit() fully
///     (its descents may inspect any suffix node).
///
/// A BulkUpdate scope defers even the in-place repairs, so a burst of
/// mutations (a replan lifting k reservations) pays one combined repair at
/// the first query after the burst instead of k interleaved ones.
///
/// The adjacent-equal-value merge rule keeps the representation canonical:
/// two profiles that agree as step functions store identical breakpoints.
class Profile {
 public:
  explicit Profile(int total_nodes);

  int total_nodes() const noexcept { return total_; }

  /// Free nodes at time t.
  int capacity_at(Time t) const;

  /// True if `nodes` are free throughout [start, start + duration).
  bool fits(Time start, Duration duration, int nodes) const;

  /// Earliest t >= from such that `nodes` are free throughout
  /// [t, t + duration). Always exists (the profile eventually returns to
  /// full capacity).
  Time earliest_fit(Time from, Duration duration, int nodes) const;

  /// Resumable scan state for batched earliest-fit queries. A cursor
  /// remembers which segment contained the previous query's `from`, so a
  /// run of queries anchored at the same instant skips the per-query
  /// binary search, and a query whose `from` moved forward re-anchors by a
  /// binary search over the breakpoints right of the cached segment only.
  /// The cursor revalidates itself against the owning profile and its
  /// mutation counter: any profile mutation (or a different profile)
  /// forces one fresh binary search over the whole live range, counted in
  /// restarts(). Stale cursors are therefore always safe, never wrong.
  class Cursor {
   public:
    /// Queries that could not resume from the cached segment (first use,
    /// profile mutated, or `from` moved backwards).
    std::uint64_t restarts() const noexcept { return restarts_; }
    /// Merged breakpoints walked by all queries through this cursor,
    /// added once per query (a deterministic, host-independent cost).
    std::uint64_t steps() const noexcept { return steps_; }

   private:
    friend class Profile;
    const Profile* owner_ = nullptr;
    std::uint64_t version_ = 0;
    std::size_t idx_ = 0;  // segment index of the previous query's `from`
    std::uint64_t restarts_ = 0;
    std::uint64_t steps_ = 0;
  };

  /// Earliest fit of (duration, nodes) in the pointwise sum
  /// `*this + extra` that starts in [from, last_start], scanning merged
  /// breakpoints linearly from `from`, clamped at `stop`. Precondition:
  /// `stop` is itself a known fit — the caller guarantees `nodes` free
  /// throughout [stop, stop + duration) in the sum (compression screening
  /// satisfies this trivially: the reservation under test is allocated in
  /// the profile and lifted by the overlay, so its own window has >= nodes
  /// free). Under that guarantee the result is exact: the earliest fit
  /// starting in [from, min(last_start, stop - 1)] if there is one, else
  /// `stop` — and the walk never advances past `stop`, nor past
  /// `last_start` unless a window opened at or before it is still being
  /// measured, which is what makes screening cheap when reservations are
  /// close to now or the candidate starts are known to be few. Pass
  /// kTimeInfinity as `last_start` for an unbounded screen. Unlike
  /// earliest_fit() this never touches the segment tree (and so never pays
  /// a deferred rebuild). Returns kTimeInfinity when `max_steps` merged
  /// breakpoints were consumed first ("unknown — caller falls back"); a
  /// real fit is always finite.
  Time earliest_fit_with(const CapacityOverlay& extra, Cursor& cursor,
                         Time from, Duration duration, int nodes, Time stop,
                         Time last_start, std::size_t max_steps) const;

  /// Result of crossing_hull(): the crossing instants lie in
  /// [first, last); `steps` merged breakpoints were walked to find them.
  struct CrossingHull {
    Time first;
    Time last;
    std::size_t steps;
    bool empty() const noexcept { return first >= last; }
  };

  /// Certificate revalidation: the hull of the instants u in [from, to)
  /// where the capacity described by `growth` lifts the combined capacity
  /// (*this + extra) across width `nodes` — growth(u) > 0 and
  /// combined(u) - growth(u) < nodes <= combined(u). A window that had no
  /// fit before the growth and fits now must contain such an instant
  /// (every previously-blocked window keeps its blocker unless growth
  /// lifted it), so a width-`nodes`, length-d window can have become
  /// feasible only if it starts in [first - d + 1, last - 1]. An empty
  /// hull extends a previous "no earlier fit" verdict exactly. Only the
  /// growth region is walked — the cost is proportional to the capacity
  /// returned since the last replan, not to the replan window. When
  /// `max_steps` breakpoints are consumed first the answer is unknown and
  /// the whole range [from, to) is returned, which localizes nothing (the
  /// caller's screen covers everything, exactly as without a hull).
  CrossingHull crossing_hull(const CapacityOverlay& extra,
                             const CapacityOverlay& growth, Time from, Time to,
                             int nodes, std::size_t max_steps) const;

  /// Subtract `nodes` over [start, start + duration). Precondition: fits().
  void allocate(Time start, Duration duration, int nodes);

  /// Add `nodes` back over [start, start + duration). Inverse of allocate;
  /// also used to return capacity early when a job beats its estimate.
  void release(Time start, Duration duration, int nodes);

  /// Drop breakpoints strictly before `now` (keeping the value in effect
  /// at `now`). Call as simulation time advances to keep operations
  /// O(future). A no-op when `now` is inside (or at the start of) the
  /// first segment; otherwise O(1) amortized — the dead prefix is only
  /// spliced out of storage once it dominates. Precondition (asserted):
  /// `now` is not earlier than the first breakpoint — time never flows
  /// backwards in the simulator.
  void compact(Time now);

  /// Scoped batch-mutation mode: while at least one BulkUpdate is alive,
  /// allocate()/release() defer all segment-tree maintenance (queries are
  /// still valid — they repair on demand). Open one around a burst of
  /// mutations with no interleaved queries, e.g. a replan lifting every
  /// reservation, so the burst pays one combined repair at the next query
  /// instead of one per mutation. Mutations and queries remain legal (and
  /// byte-identical in effect) inside the scope; only their cost changes.
  class BulkUpdate {
   public:
    explicit BulkUpdate(Profile& p) noexcept : p_(&p) { ++p.bulk_depth_; }
    ~BulkUpdate() { --p_->bulk_depth_; }
    BulkUpdate(const BulkUpdate&) = delete;
    BulkUpdate& operator=(const BulkUpdate&) = delete;

   private:
    Profile* p_;
  };

  /// Number of stored (live) breakpoints (for tests/benchmarks).
  std::size_t breakpoints() const noexcept { return pts_.size() - front_; }

  /// Debug rendering "t0:c0 t1:c1 ...".
  std::string dump() const;

 private:
  struct Breakpoint {
    Time t;
    int free;
  };

  void add_over_range(Time start, Time end, int delta);

  /// Index of the segment containing t (pts_[i].t <= t < pts_[i+1].t).
  std::size_t segment_at(Time t) const;
  /// segment_at(t) for a live index i with pts_[i].t <= t: binary search
  /// right of i only, O(1) when t is still inside segment i.
  std::size_t segment_from(std::size_t i, Time t) const;

  /// First index with pts_[i].t >= t (== pts_.size() when none), searching
  /// the live range [front_, size).
  std::size_t lower_bound(Time t) const;

  // --- implicit segment tree over pts_[i].free -------------------------
  // Leaves [leaf_cap_, leaf_cap_ + n) mirror the physical pts_ array
  // (dead-prefix leaves are never consulted: every query starts at a live
  // index and only ever moves right), padded with sentinels; internal
  // node i covers children 2i and 2i+1.
  //
  // Invariant: every tree node that is not an ancestor of a leaf in
  // [dirty_from_, max(filled_, n)) agrees with pts_. In-place mutations
  // preserve it by repairing their touched span immediately; structural
  // mutations preserve it by lowering dirty_from_ to the first shifted
  // leaf. ensure_tree() restores it everywhere; ensure_tree_to(hi)
  // restores it for [0, hi) and advances dirty_from_ to hi, which is
  // enough for bottom-up range queries whose nodes lie entirely inside
  // [0, hi).
  void ensure_tree() const;
  void ensure_tree_to(std::size_t hi) const;
  /// Write leaves [lo, hi) from pts_ and recompute their ancestors.
  void repair_range(std::size_t lo, std::size_t hi) const;
  /// First index >= from with free < nodes (pts_.size() when none).
  std::size_t first_below(std::size_t from, int nodes) const;
  /// First index >= from with free >= nodes (pts_.size() when none).
  std::size_t first_at_least(std::size_t from, int nodes) const;
  /// Min free over segment indices [lo, hi).
  int range_min(std::size_t lo, std::size_t hi) const;

  static constexpr std::size_t kClean = static_cast<std::size_t>(-1);

  int total_;
  int bulk_depth_ = 0;
  std::vector<Breakpoint> pts_;
  std::size_t front_ = 0;  // first live breakpoint (dead prefix before it)
  // Bumped on every mutation that can move or revalue breakpoints
  // (allocate/release/compact); lets a Cursor detect that its cached
  // segment index may no longer be meaningful.
  std::uint64_t version_ = 1;
  mutable std::vector<int> tmin_, tmax_;
  mutable std::size_t leaf_cap_ = 0;
  mutable std::size_t filled_ = 0;      // leaves holding real values
  mutable std::size_t dirty_from_ = 0;  // first stale leaf; kClean if none
};

}  // namespace jsched::sim
