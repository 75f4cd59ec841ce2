// Differential fuzzing of sim::Profile (flat timeline + segment tree)
// against sim::ReferenceProfile (the seed std::map implementation).
//
// Both structures are driven with identical operation sequences shaped
// like real scheduler traffic — earliest_fit+allocate reservations, early
// completions returning capacity tails, periodic compaction as simulated
// time advances — and must stay byte-identical after every mutation: same
// breakpoints (dump()), same breakpoint count, same answers to every
// query. Any divergence prints the op index and both renderings.
#include "sim/profile.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "oracles/reference_profile.h"
#include "util/rng.h"

namespace jsched::sim {
namespace {

struct ActiveAllocation {
  Time start;
  Duration duration;  // kTimeInfinity marks an open-ended allocation
  int nodes;

  Time end() const {
    return start > kTimeInfinity - duration ? kTimeInfinity
                                            : start + duration;
  }
};

class Differ {
 public:
  explicit Differ(int total) : fast_(total), ref_(total) {}

  Profile& fast() { return fast_; }
  ReferenceProfile& ref() { return ref_; }

  void expect_identical(std::size_t op) const {
    ASSERT_EQ(fast_.breakpoints(), ref_.breakpoints()) << "op " << op;
    ASSERT_EQ(fast_.dump(), ref_.dump()) << "op " << op;
  }

  void expect_queries_agree(std::size_t op, Time from, Duration dur,
                            int nodes) const {
    ASSERT_EQ(fast_.capacity_at(from), ref_.capacity_at(from)) << "op " << op;
    ASSERT_EQ(fast_.fits(from, dur, nodes), ref_.fits(from, dur, nodes))
        << "op " << op;
    ASSERT_EQ(fast_.earliest_fit(from, dur, nodes),
              ref_.earliest_fit(from, dur, nodes))
        << "op " << op << " from=" << from << " dur=" << dur
        << " nodes=" << nodes;
  }

 private:
  Profile fast_;
  ReferenceProfile ref_;
};

void run_fuzz(std::uint64_t seed, std::size_t ops) {
  constexpr int kTotal = 64;
  Differ d(kTotal);
  util::Rng rng(seed);
  std::vector<ActiveAllocation> active;
  Time now = 0;
  // Nodes held by open-ended (infinite-duration) allocations. earliest_fit
  // only terminates for jobs narrower than the eventually-free capacity,
  // so the fuzzer keeps its requests within kTotal - open_nodes (the
  // explicit saturation/throw cases live in profile_test.cpp).
  int open_nodes = 0;

  for (std::size_t op = 0; op < ops; ++op) {
    const std::int64_t dice = rng.uniform_int(0, 99);
    if (dice < 45) {
      // Reserve like a backfilling scheduler: earliest fit, then allocate.
      const int nodes =
          static_cast<int>(rng.uniform_int(0, kTotal - open_nodes));
      const bool open_ended = rng.bernoulli(0.02) && nodes <= kTotal / 4;
      const Duration dur =
          open_ended ? kTimeInfinity : rng.uniform_int(1, 4000);
      const Time from = now + rng.uniform_int(0, 2000);
      const Time start = d.fast().earliest_fit(from, dur, nodes);
      ASSERT_EQ(start, d.ref().earliest_fit(from, dur, nodes)) << "op " << op;
      d.fast().allocate(start, dur, nodes);
      d.ref().allocate(start, dur, nodes);
      if (nodes > 0) {
        active.push_back({start, dur, nodes});
        if (open_ended) open_nodes += nodes;
      }
    } else if (dice < 70 && !active.empty()) {
      // Complete an allocation early: return the tail [t, end) to the
      // profile, exactly as a job beating its estimate would.
      const std::size_t pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(active.size()) - 1));
      const ActiveAllocation a = active[pick];
      active.erase(active.begin() + static_cast<std::ptrdiff_t>(pick));
      const Time release_from = std::max(a.start, now);
      if (a.end() > release_from) {
        const Duration tail = a.end() == kTimeInfinity
                                  ? kTimeInfinity
                                  : a.end() - release_from;
        d.fast().release(release_from, tail, a.nodes);
        d.ref().release(release_from, tail, a.nodes);
        if (a.end() == kTimeInfinity) open_nodes -= a.nodes;
      }
    } else if (dice < 80) {
      // Advance simulated time and drop history. Allocations wholly in
      // the past are retired from the bookkeeping (their capacity is
      // inside the compacted region for both structures alike).
      now += rng.uniform_int(0, 1500);
      d.fast().compact(now);
      d.ref().compact(now);
      std::erase_if(active, [&](const ActiveAllocation& a) {
        return a.end() <= now;
      });
    } else {
      // Pure queries.
      const Time from = now + rng.uniform_int(0, 8000);
      const Duration dur = rng.uniform_int(1, 5000);
      const int nodes =
          static_cast<int>(rng.uniform_int(0, kTotal - open_nodes));
      d.expect_queries_agree(op, from, dur, nodes);
    }
    d.expect_identical(op);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// Grid-aligned windows: after warm-up most range edges already exist as
// breakpoints, so allocate/release mostly hit the in-place segment-tree
// repair path, with merges (structural) whenever a value meets its
// neighbour — the steady-state mix a replanning scheduler produces. A
// slice of unaligned ops keeps the insert path in the mix, and periodic
// compaction exercises the dead-prefix offset against both repair paths.
void run_in_place_fuzz(std::uint64_t seed, std::size_t ops) {
  constexpr int kTotal = 64;
  constexpr Time kStep = 100;
  Differ d(kTotal);
  util::Rng rng(seed);
  std::vector<ActiveAllocation> active;
  Time now = 0;

  for (std::size_t op = 0; op < ops; ++op) {
    const std::int64_t dice = rng.uniform_int(0, 99);
    if (dice < 50) {
      const bool aligned = dice >= 5;  // 10% unaligned: structural inserts
      const Time start =
          now + (aligned ? rng.uniform_int(0, 40) * kStep
                         : rng.uniform_int(0, 40 * kStep));
      const Duration dur = aligned ? rng.uniform_int(1, 10) * kStep
                                   : rng.uniform_int(1, 10 * kStep);
      const int nodes = static_cast<int>(rng.uniform_int(1, 8));
      const bool fits = d.fast().fits(start, dur, nodes);
      ASSERT_EQ(fits, d.ref().fits(start, dur, nodes)) << "op " << op;
      if (fits) {
        d.fast().allocate(start, dur, nodes);
        d.ref().allocate(start, dur, nodes);
        active.push_back({start, dur, nodes});
      }
    } else if (dice < 85 && !active.empty()) {
      // Release a whole window (value-only update when its edges survive
      // in neighbouring allocations).
      const std::size_t pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(active.size()) - 1));
      const ActiveAllocation a = active[pick];
      active.erase(active.begin() + static_cast<std::ptrdiff_t>(pick));
      const Time release_from = std::max(a.start, now);
      if (a.end() > release_from) {
        d.fast().release(release_from, a.end() - release_from, a.nodes);
        d.ref().release(release_from, a.end() - release_from, a.nodes);
      }
    } else if (dice < 90) {
      // Advance time by whole steps so the grid alignment survives
      // compaction.
      now += rng.uniform_int(0, 5) * kStep;
      d.fast().compact(now);
      d.ref().compact(now);
      std::erase_if(active,
                    [&](const ActiveAllocation& a) { return a.end() <= now; });
    } else {
      const Time from = now + rng.uniform_int(0, 50 * kStep);
      const Duration dur = rng.uniform_int(1, 12 * kStep);
      const int nodes = static_cast<int>(rng.uniform_int(0, kTotal));
      d.expect_queries_agree(op, from, dur, nodes);
    }
    d.expect_identical(op);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// Batch-mutation mode: lift a burst of allocations inside a
// Profile::BulkUpdate scope (only the fast profile has one — the
// reference sees plain calls), then re-place them through earliest_fit,
// mirroring ConservativeBackfillDispatch::replan. Queries fired inside
// and right after the scope must see exactly the reference's answers.
void run_bulk_fuzz(std::uint64_t seed, std::size_t ops) {
  constexpr int kTotal = 64;
  Differ d(kTotal);
  util::Rng rng(seed);
  std::vector<ActiveAllocation> active;
  Time now = 0;

  for (std::size_t op = 0; op < ops;) {
    // Seed fresh reservations so there is something to lift.
    const std::size_t arrivals = static_cast<std::size_t>(
        rng.uniform_int(1, 4));
    for (std::size_t k = 0; k < arrivals && op < ops; ++k, ++op) {
      const int nodes = static_cast<int>(rng.uniform_int(1, kTotal / 2));
      const Duration dur = rng.uniform_int(1, 4000);
      const Time from = now + rng.uniform_int(0, 2000);
      const Time start = d.fast().earliest_fit(from, dur, nodes);
      ASSERT_EQ(start, d.ref().earliest_fit(from, dur, nodes)) << "op " << op;
      d.fast().allocate(start, dur, nodes);
      d.ref().allocate(start, dur, nodes);
      active.push_back({start, dur, nodes});
      d.expect_identical(op);
    }

    // Replan-shaped burst: release several windows under one BulkUpdate.
    const std::size_t burst = std::min<std::size_t>(
        active.size(), static_cast<std::size_t>(rng.uniform_int(0, 6)));
    std::vector<ActiveAllocation> lifted;
    {
      Profile::BulkUpdate bulk(d.fast());
      for (std::size_t k = 0; k < burst && op < ops; ++k, ++op) {
        const std::size_t pick = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(active.size()) - 1));
        const ActiveAllocation a = active[pick];
        active.erase(active.begin() + static_cast<std::ptrdiff_t>(pick));
        const Time release_from = std::max(a.start, now);
        if (a.end() <= release_from) continue;
        const Duration tail = a.end() - release_from;
        d.fast().release(release_from, tail, a.nodes);
        d.ref().release(release_from, tail, a.nodes);
        lifted.push_back({release_from, tail, a.nodes});
        if (rng.bernoulli(0.25)) {
          // Queries are legal inside the scope and repair on demand.
          d.expect_queries_agree(op, now + rng.uniform_int(0, 4000),
                                 rng.uniform_int(1, 3000),
                                 static_cast<int>(rng.uniform_int(0, kTotal)));
        }
      }
      d.expect_identical(op);
      if (::testing::Test::HasFatalFailure()) return;
    }

    // Re-place the lifted windows from `now` (phase 2: queries after the
    // scope closed).
    for (const ActiveAllocation& a : lifted) {
      if (op >= ops) break;
      const Time start = d.fast().earliest_fit(now, a.duration, a.nodes);
      ASSERT_EQ(start, d.ref().earliest_fit(now, a.duration, a.nodes))
          << "op " << op;
      d.fast().allocate(start, a.duration, a.nodes);
      d.ref().allocate(start, a.duration, a.nodes);
      active.push_back({start, a.duration, a.nodes});
      d.expect_identical(op);
      ++op;
    }
    if (::testing::Test::HasFatalFailure()) return;

    if (rng.bernoulli(0.2)) {
      now += rng.uniform_int(0, 1500);
      d.fast().compact(now);
      d.ref().compact(now);
      std::erase_if(active,
                    [&](const ActiveAllocation& a) { return a.end() <= now; });
      d.expect_identical(op);
    }
  }
}

// Capacity shrink/grow mode: machine capacity changes mid-run, modelled
// exactly the way ConservativeBackfillDispatch::on_capacity_change does —
// an outage is one open-ended allocation placed at `now` when nodes go
// down and released (from `now`, past prefix kept as history) when they
// come back, with every live reservation lifted under a BulkUpdate and
// re-placed through earliest_fit at the new capacity. The reference
// profile sees the same plain calls and must agree after every step.
void run_capacity_fuzz(std::uint64_t seed, std::size_t ops) {
  constexpr int kTotal = 64;
  Differ d(kTotal);
  util::Rng rng(seed);
  std::vector<ActiveAllocation> active;
  Time now = 0;
  int down = 0;  // nodes currently out, held by the open-ended allocation

  for (std::size_t op = 0; op < ops; ++op) {
    const std::int64_t dice = rng.uniform_int(0, 99);
    if (dice < 40) {
      // Reserve within the surviving capacity (wider jobs would make
      // earliest_fit spin forever against the open-ended outage).
      const int nodes = static_cast<int>(rng.uniform_int(0, kTotal - down));
      const Duration dur = rng.uniform_int(1, 4000);
      const Time from = now + rng.uniform_int(0, 2000);
      const Time start = d.fast().earliest_fit(from, dur, nodes);
      ASSERT_EQ(start, d.ref().earliest_fit(from, dur, nodes)) << "op " << op;
      d.fast().allocate(start, dur, nodes);
      d.ref().allocate(start, dur, nodes);
      if (nodes > 0) active.push_back({start, dur, nodes});
    } else if (dice < 60 && !active.empty()) {
      // Early completion: return the tail.
      const std::size_t pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(active.size()) - 1));
      const ActiveAllocation a = active[pick];
      active.erase(active.begin() + static_cast<std::ptrdiff_t>(pick));
      const Time release_from = std::max(a.start, now);
      if (a.end() > release_from) {
        d.fast().release(release_from, a.end() - release_from, a.nodes);
        d.ref().release(release_from, a.end() - release_from, a.nodes);
      }
    } else if (dice < 80) {
      // Capacity step. Lift everything still live, adjust the outage
      // allocation, re-place what still fits (a window wider than the new
      // capacity is parked — dropped here; the scheduler keeps it queued).
      const int new_down = static_cast<int>(rng.uniform_int(0, kTotal / 2));
      if (new_down == down) continue;
      std::vector<ActiveAllocation> lifted;
      {
        Profile::BulkUpdate bulk(d.fast());
        for (const ActiveAllocation& a : active) {
          const Time release_from = std::max(a.start, now);
          if (a.end() <= release_from) continue;
          const Duration tail = a.end() - release_from;
          d.fast().release(release_from, tail, a.nodes);
          d.ref().release(release_from, tail, a.nodes);
          lifted.push_back({release_from, tail, a.nodes});
        }
        if (new_down > down) {
          d.fast().allocate(now, kTimeInfinity, new_down - down);
          d.ref().allocate(now, kTimeInfinity, new_down - down);
        } else {
          d.fast().release(now, kTimeInfinity, down - new_down);
          d.ref().release(now, kTimeInfinity, down - new_down);
        }
        down = new_down;
      }
      d.expect_identical(op);
      if (::testing::Test::HasFatalFailure()) return;
      active.clear();
      for (const ActiveAllocation& a : lifted) {
        if (a.nodes > kTotal - down) continue;  // parked at this capacity
        const Time start = d.fast().earliest_fit(now, a.duration, a.nodes);
        ASSERT_EQ(start, d.ref().earliest_fit(now, a.duration, a.nodes))
            << "op " << op;
        d.fast().allocate(start, a.duration, a.nodes);
        d.ref().allocate(start, a.duration, a.nodes);
        active.push_back({start, a.duration, a.nodes});
      }
    } else if (dice < 88) {
      now += rng.uniform_int(0, 1500);
      d.fast().compact(now);
      d.ref().compact(now);
      std::erase_if(active,
                    [&](const ActiveAllocation& a) { return a.end() <= now; });
    } else {
      const Time from = now + rng.uniform_int(0, 8000);
      const Duration dur = rng.uniform_int(1, 5000);
      const int nodes = static_cast<int>(rng.uniform_int(0, kTotal - down));
      d.expect_queries_agree(op, from, dur, nodes);
    }
    d.expect_identical(op);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(ProfileDifferential, SchedulerShapedOpsSeed1) { run_fuzz(1, 10'000); }
TEST(ProfileDifferential, SchedulerShapedOpsSeed2) { run_fuzz(2, 10'000); }
TEST(ProfileDifferential, SchedulerShapedOpsSeed3) { run_fuzz(3, 10'000); }
TEST(ProfileDifferential, SchedulerShapedOpsSeed1999) { run_fuzz(1999, 10'000); }

TEST(ProfileDifferential, InPlaceMutationMixSeed7) {
  run_in_place_fuzz(7, 10'000);
}
TEST(ProfileDifferential, InPlaceMutationMixSeed8) {
  run_in_place_fuzz(8, 10'000);
}

TEST(ProfileDifferential, BulkUpdateBatchModeSeed11) { run_bulk_fuzz(11, 10'000); }
TEST(ProfileDifferential, BulkUpdateBatchModeSeed12) { run_bulk_fuzz(12, 10'000); }

TEST(ProfileDifferential, CapacityShrinkGrowSeed21) {
  run_capacity_fuzz(21, 10'000);
}
TEST(ProfileDifferential, CapacityShrinkGrowSeed22) {
  run_capacity_fuzz(22, 10'000);
}

TEST(ProfileDifferential, DenseSmallMachineStressesMerging) {
  // A 3-node machine forces constant breakpoint merging/splitting at tiny
  // capacities, where off-by-one merge bugs would show first.
  Differ d(3);
  util::Rng rng(42);
  std::vector<ActiveAllocation> active;
  for (std::size_t op = 0; op < 10'000; ++op) {
    const int nodes = static_cast<int>(rng.uniform_int(0, 3));
    const Duration dur = rng.uniform_int(1, 30);
    const Time from = rng.uniform_int(0, 200);
    if (rng.bernoulli(0.5) || active.empty()) {
      const Time start = d.fast().earliest_fit(from, dur, nodes);
      ASSERT_EQ(start, d.ref().earliest_fit(from, dur, nodes)) << "op " << op;
      d.fast().allocate(start, dur, nodes);
      d.ref().allocate(start, dur, nodes);
      if (nodes > 0) active.push_back({start, dur, nodes});
    } else {
      const std::size_t pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(active.size()) - 1));
      const ActiveAllocation a = active[pick];
      active.erase(active.begin() + static_cast<std::ptrdiff_t>(pick));
      d.fast().release(a.start, a.duration, a.nodes);
      d.ref().release(a.start, a.duration, a.nodes);
    }
    d.expect_identical(op);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// --- screening queries: earliest_fit_with and crossing_hull ---------------

/// Brute-force view of `profile + extra` with a separate `growth` layer:
/// the reference profile's capacity plus explicitly summed spans, sampled
/// on the union of every edge any layer can have. Between two consecutive
/// edges all three layers are constant, so each elementary piece is
/// evaluated once and every query is a scan over pieces.
class ScreenOracle {
 public:
  ScreenOracle(const ReferenceProfile& ref,
               const std::vector<ActiveAllocation>& allocations,
               const std::vector<CapacitySpan>& extra,
               const std::vector<CapacitySpan>& growth, Time now) {
    std::vector<Time> edges{now};
    for (const ActiveAllocation& a : allocations) {
      edges.push_back(a.start);
      if (a.end() != kTimeInfinity) edges.push_back(a.end());
    }
    for (const auto* spans : {&extra, &growth}) {
      for (const CapacitySpan& s : *spans) {
        edges.push_back(s.start);
        if (s.end != kTimeInfinity) edges.push_back(s.end);
      }
    }
    std::sort(edges.begin(), edges.end());
    edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
    for (Time e : edges) {
      if (e < now) continue;  // compacted history: not queryable
      const auto sum = [e](const std::vector<CapacitySpan>& spans) {
        int total = 0;
        for (const CapacitySpan& s : spans) {
          if (s.start <= e && e < s.end) total += s.nodes;
        }
        return total;
      };
      start_.push_back(e);
      combined_.push_back(ref.capacity_at(e) + sum(extra));
      growth_.push_back(sum(growth));
    }
  }

  /// Earliest t in [from, last] (inclusive) with `nodes` free throughout
  /// [t, t + duration), or kTimeInfinity. Candidates are `from` and the
  /// piece starts after it: a fit inside a piece implies one at its start.
  Time earliest_fit(Time from, Duration duration, int nodes,
                    Time last) const {
    for (std::size_t k = piece_at(from); k < start_.size(); ++k) {
      const Time t = std::max(from, start_[k]);
      if (t > last) break;
      if (fits_from(k, t, duration, nodes)) return t;
    }
    return kTimeInfinity;
  }

  /// Hull [first, last) of the crossing instants in [from, to); empty
  /// hulls come back as first >= last.
  std::pair<Time, Time> crossing_hull(Time from, Time to, int nodes) const {
    Time first = kTimeInfinity;
    Time last = kTimeInfinity;
    for (std::size_t k = piece_at(from); k < start_.size(); ++k) {
      const Time lo = std::max(from, start_[k]);
      const Time hi =
          std::min(to, k + 1 < start_.size() ? start_[k + 1] : kTimeInfinity);
      if (lo >= to) break;
      const int c = combined_[k];
      const int g = growth_[k];
      if (lo < hi && g > 0 && c >= nodes && c - g < nodes) {
        if (first == kTimeInfinity) first = lo;
        last = hi;
      }
    }
    if (first == kTimeInfinity) return {to, to};
    return {first, last};
  }

 private:
  std::size_t piece_at(Time t) const {
    const auto it = std::upper_bound(start_.begin(), start_.end(), t);
    EXPECT_TRUE(it != start_.begin()) << "query at " << t << " before now";
    return it == start_.begin()
               ? 0
               : static_cast<std::size_t>(it - start_.begin()) - 1;
  }

  bool fits_from(std::size_t k, Time t, Duration duration, int nodes) const {
    const Time end = t > kTimeInfinity - duration ? kTimeInfinity : t + duration;
    for (; k < start_.size() && start_[k] < end; ++k) {
      if (combined_[k] < nodes) return false;
    }
    return true;
  }

  std::vector<Time> start_;  // piece k covers [start_[k], start_[k + 1])
  std::vector<int> combined_;
  std::vector<int> growth_;
};

/// Differential fuzz of the two compression-screening queries on
/// profiles with hundreds of breakpoints. Each round reshapes the profile
/// (reservations, early releases, compaction), lays an overlay of lifted
/// allocations and an independent growth layer over it, and fires
/// queries whose `from`, `stop`, last-start bound and step budget are
/// drawn around the profile's own breakpoints, where off-by-one errors
/// live. Small budgets must answer "unknown" (kTimeInfinity, or the whole
/// range for the hull) or the exact answer, never a wrong one.
void run_screen_fuzz(std::uint64_t seed, std::size_t rounds) {
  constexpr int kTotal = 64;
  Differ d(kTotal);
  util::Rng rng(seed);
  std::vector<ActiveAllocation> active;
  Time now = 0;
  Profile::Cursor cursor;
  std::size_t moved = 0;
  std::size_t bounded_out = 0;
  std::size_t crossed = 0;

  const auto random_span = [&](Time lo, Time width) {
    const Time start = lo + rng.uniform_int(0, width);
    return CapacitySpan{start, start + rng.uniform_int(1, width / 4),
                        static_cast<int>(rng.uniform_int(1, kTotal / 4))};
  };

  for (std::size_t round = 0; round < rounds; ++round) {
    // Reshape: keep ~150 live allocations (hundreds of breakpoints).
    while (active.size() < 150) {
      const int nodes = static_cast<int>(rng.uniform_int(1, kTotal / 2));
      const Duration dur = rng.uniform_int(1, 3000);
      const Time from = now + rng.uniform_int(0, 20'000);
      const Time start = d.fast().earliest_fit(from, dur, nodes);
      ASSERT_EQ(start, d.ref().earliest_fit(from, dur, nodes));
      d.fast().allocate(start, dur, nodes);
      d.ref().allocate(start, dur, nodes);
      active.push_back({start, dur, nodes});
    }
    for (int k = 0; k < 10; ++k) {
      const std::size_t pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(active.size()) - 1));
      const ActiveAllocation a = active[pick];
      active.erase(active.begin() + static_cast<std::ptrdiff_t>(pick));
      const Time release_from = std::max(a.start, now);
      if (a.end() > release_from) {
        d.fast().release(release_from, a.end() - release_from, a.nodes);
        d.ref().release(release_from, a.end() - release_from, a.nodes);
      }
    }
    now += rng.uniform_int(0, 400);
    d.fast().compact(now);
    d.ref().compact(now);
    std::erase_if(active,
                  [&](const ActiveAllocation& a) { return a.end() <= now; });
    d.expect_identical(round);
    if (::testing::Test::HasFatalFailure()) return;
    ASSERT_GE(d.fast().breakpoints(), 100u) << "round " << round;

    // Overlay: lift a random subset of the live allocations, as a replan
    // screen lifts the reservations it has not reached yet.
    std::vector<CapacitySpan> extra_spans;
    for (const ActiveAllocation& a : active) {
      if (a.start >= now && rng.bernoulli(0.3)) {
        extra_spans.push_back({a.start, a.end(), a.nodes});
      }
    }
    // Allocation edges at or after `now`: anchors that land exactly on a
    // breakpoint, where a segment lookup is most easily off by one.
    std::vector<Time> edges;
    for (const ActiveAllocation& a : active) {
      if (a.start >= now) edges.push_back(a.start);
      if (a.end() >= now) edges.push_back(a.end());
    }
    std::sort(edges.begin(), edges.end());
    const auto edge_after = [&](Time t) {
      const auto it = std::lower_bound(edges.begin(), edges.end(), t);
      if (it == edges.end()) return t;
      const auto span = std::min<std::int64_t>(edges.end() - it, 8);
      return *(it + rng.uniform_int(0, span - 1));
    };
    std::vector<CapacitySpan> growth_spans;
    const std::int64_t growth_count = rng.uniform_int(0, 6);
    for (std::int64_t k = 0; k < growth_count; ++k) {
      CapacitySpan g = random_span(now, 20'000);
      if (rng.bernoulli(0.5)) g.start = std::min(edge_after(g.start), g.end - 1);
      growth_spans.push_back(g);
    }
    CapacityOverlay extra;
    extra.build(extra_spans);
    CapacityOverlay growth;
    growth.build(growth_spans);
    const ScreenOracle oracle(d.ref(), active, extra_spans, growth_spans, now);

    // Screens from a drifting anchor: mostly forward (cursor resumes or
    // jumps ahead), sometimes backwards (cursor must re-anchor).
    Time from = now;
    for (int q = 0; q < 40; ++q) {
      const Time prev_from = from;
      if (rng.bernoulli(0.15)) {
        from = now + rng.uniform_int(0, 20'000);
      } else {
        from += rng.uniform_int(0, 300);
      }
      if (rng.bernoulli(0.3)) from = edge_after(from);
      const Duration dur = rng.uniform_int(1, 4000);
      const int nodes = static_cast<int>(rng.uniform_int(1, kTotal));
      const Time stop = oracle.earliest_fit(from + rng.uniform_int(0, 6000),
                                            dur, nodes, kTimeInfinity);
      // The last-start bound: none, arbitrary, or within one second of
      // the unbounded answer.
      const Time free_fit = oracle.earliest_fit(from, dur, nodes, stop - 1);
      Time last_start = kTimeInfinity;
      switch (rng.uniform_int(0, 2)) {
        case 0:
          break;
        case 1:
          last_start = from + rng.uniform_int(-5, 6000);
          break;
        default:
          last_start = std::min(free_fit, stop) + rng.uniform_int(-1, 1);
      }
      const Time fit = oracle.earliest_fit(from, dur, nodes,
                                           std::min(last_start, stop - 1));
      const Time expected = fit == kTimeInfinity ? stop : fit;
      if (expected < stop) ++moved;
      if (free_fit < stop && expected == stop) ++bounded_out;
      const std::uint64_t restarts = cursor.restarts();
      const std::uint64_t steps = cursor.steps();
      ASSERT_EQ(d.fast().earliest_fit_with(extra, cursor, from, dur, nodes,
                                           stop, last_start, 1u << 20),
                expected)
          << "round " << round << " query " << q << " from=" << from
          << " dur=" << dur << " nodes=" << nodes << " stop=" << stop
          << " last_start=" << last_start;
      // The profile is unchanged within a round: after the round's first
      // query the cursor resumes whenever `from` did not move backwards
      // (a backward move re-anchors unless it stays in the same segment).
      if (q > 0) {
        EXPECT_LE(cursor.restarts(), restarts + (from < prev_from ? 1 : 0))
            << "round " << round << " query " << q;
      }
      EXPECT_LE(cursor.steps() - steps, 1u << 20);
      // Tight budgets: exact, or "unknown".
      const std::size_t budget =
          static_cast<std::size_t>(rng.uniform_int(0, 40));
      const Time bounded = d.fast().earliest_fit_with(
          extra, cursor, from, dur, nodes, stop, last_start, budget);
      ASSERT_TRUE(bounded == expected || bounded == kTimeInfinity)
          << "round " << round << " query " << q << " budget " << budget;

      // Crossing hull over the window a certified job at `stop` owns.
      const Time to = stop + dur;
      const auto [first, last] = oracle.crossing_hull(from, to, nodes);
      const Profile::CrossingHull hull =
          d.fast().crossing_hull(extra, growth, from, to, nodes, 1u << 20);
      if (first >= last) {
        ASSERT_TRUE(hull.empty()) << "round " << round << " query " << q
                                  << " hull [" << hull.first << ", "
                                  << hull.last << ")";
      } else {
        ++crossed;
        ASSERT_EQ(hull.first, first) << "round " << round << " query " << q;
        ASSERT_EQ(hull.last, last) << "round " << round << " query " << q;
      }
      const Profile::CrossingHull cut =
          d.fast().crossing_hull(extra, growth, from, to, nodes, budget);
      const bool exact = cut.empty() ? first >= last
                                     : cut.first == hull.first &&
                                           cut.last == hull.last;
      const bool unknown = cut.first == from && cut.last == to;
      ASSERT_TRUE(exact || (unknown && cut.steps > budget))
          << "round " << round << " query " << q << " budget " << budget;
    }
    if (::testing::Test::HasFatalFailure()) return;
  }
  // The draws must reach every outcome the screen distinguishes.
  EXPECT_GT(moved, rounds);        // earlier fits found before `stop`
  EXPECT_GT(bounded_out, rounds);  // fits cut off by the last-start bound
  EXPECT_GT(crossed, rounds);      // non-empty crossing hulls
}

TEST(ProfileDifferential, ScreenQueriesMatchOracleSeed31) {
  run_screen_fuzz(31, 60);
}
TEST(ProfileDifferential, ScreenQueriesMatchOracleSeed32) {
  run_screen_fuzz(32, 60);
}

}  // namespace
}  // namespace jsched::sim
