// Queue-order fit index shared by the EASY and first-fit dispatchers.
//
// Both backfill passes used to scan the whole wait queue on every select,
// testing each job against the free nodes (and, for EASY, against the
// head's shadow time and extra nodes). Behind a blocked head on a deep
// backlog almost every one of those tests fails. The index mirrors the
// wait order in a slot array with a min-tree on top, so a pass can jump
// over every run of jobs that provably cannot start and visit only the
// ones that can.
//
//  * Slots: appends go at the end; a started job leaves a tombstone; the
//    array is compacted once tombstones outnumber live jobs, and rebuilt
//    wholesale on a reorder. Live slots, read left to right, are exactly
//    the dispatcher's `order`.
//  * Summaries: every tree node keeps the minimum node count and the
//    minimum estimate over its subtree, saturated to 32 bits (they only
//    prune; the exact test reads the job store). Tombstones carry the
//    maximum in both fields, so no query ever stops on one.
//  * Pruning: a subtree is skipped when its narrowest job needs more than
//    the free nodes, or when its narrowest job exceeds the extra nodes
//    *and* its shortest estimate overruns the horizon. Either way no job
//    in it passes the exact EASY test, and since the free and extra nodes
//    only shrink as a pass starts jobs, a skipped job would never have
//    passed later in the same pass either. Passes therefore pick exactly
//    the jobs the linear scan picked, in the same order.
//
// The index is fed only by the dispatcher hooks (see core/dispatch.h):
// on_enqueue appends, on_start tombstones, on_reorder/adopt rebuild.
// begin_select() checks the live count against the queue and throws
// std::logic_error on a mismatch rather than scheduling from a stale
// index.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/job_store.h"
#include "util/time.h"

namespace jsched::core {

class FitIndex {
 public:
  /// Drop every slot and read job data from `store` from now on.
  void reset(const JobStore& store);

  /// A job joined the end of the queue.
  void append(JobId id);

  /// Replace the mirrored queue with `order` (a reorder or an adoption).
  void assign(const std::vector<JobId>& order);

  /// A job picked by the last select started: tombstone its slot. Starts
  /// must be reported in pick order (vetoed picks may be left out); throws
  /// std::logic_error if `id` is not among the picks still unreported.
  void mark_started(JobId id);

  /// Open a select over a queue of `queue_length` jobs: verify the index
  /// mirrors it (throws std::logic_error, naming `who`, when a hook was
  /// missed), forget the previous select's picks and compact if due.
  void begin_select(std::size_t queue_length, const char* who);

  /// Pick the first `count` live jobs (a greedy head prefix the caller
  /// already chose from the queue) and return the slot of the live job
  /// after them, the blocked head. Throws std::logic_error if that slot
  /// does not hold `head_id` (the mirrored order has diverged from the
  /// queue); pass kInvalidJob when the prefix is the whole queue.
  std::size_t pick_prefix(std::size_t count, JobId head_id);

  /// The backfill pass: walk live jobs in queue order from slot `from` and
  /// pick (appending ids to `starts`) every job that passes the EASY test
  ///   nodes <= free_nodes && (estimate <= horizon || nodes <= extra),
  /// taking its nodes off `free_nodes`, and off `extra` when its estimate
  /// overruns the horizon. Stops once no node is free. First fit is the
  /// same pass from slot 0 with an unbounded horizon.
  void pick_fits(std::size_t from, int free_nodes, Duration horizon,
                 int extra, std::vector<JobId>& starts);

 private:
  /// Subtree minima. Live values saturate at kMaxLive; kTomb marks a
  /// tombstone or an unused slot.
  struct Summary {
    std::uint32_t nodes;
    std::uint32_t estimate;
  };
  static constexpr std::uint32_t kTomb = UINT32_MAX;
  static constexpr std::uint32_t kMaxLive = UINT32_MAX - 1;
  static constexpr Summary kEmpty{kTomb, kTomb};
  static constexpr std::size_t kMinCapacity = 64;

  static Summary combine(const Summary& l, const Summary& r);
  Summary leaf_of(JobId id) const;
  void set_leaf(std::size_t slot, Summary s);
  /// Recompute the internal nodes above leaves [0, n); every other leaf
  /// must be unchanged since the tree was last consistent.
  void rebuild_prefix(std::size_t n);
  /// Array size (a power of two) a queue of `n` jobs is given.
  static std::size_t capacity_for(std::size_t n);
  /// Move the used slots into an array of `cap` leaves (a power of two).
  void set_capacity(std::size_t cap);
  /// Leftmost slot at or after `from` whose leaf passes `may_hold`, or
  /// used_ if none. Subtrees whose summary fails `may_hold` are skipped
  /// whole, so `may_hold` must accept every summary above a leaf it
  /// accepts.
  template <class MayHold>
  std::size_t next_slot(std::size_t from, MayHold may_hold) const;
  /// Squeeze out tombstones. Slot numbers change, so the last select's
  /// picks are forgotten.
  void compact();

  const JobStore* store_ = nullptr;
  std::vector<JobId> slots_;     // queue mirror, tombstones included
  std::vector<Summary> tree_;    // 1-based heap layout, leaves at cap_
  std::size_t cap_ = 0;          // leaf count (power of two)
  std::size_t used_ = 0;         // slots in use (live + tombstones)
  std::size_t live_ = 0;
  std::vector<std::size_t> picked_;  // slots picked by the last select
  std::size_t picked_cursor_ = 0;    // first pick not yet reported
};

}  // namespace jsched::core
