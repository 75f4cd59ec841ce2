// Forwarding decorators around jsched's extension points.
//
// Each wraps one layer's public interface and forwards every call
// unchanged, so a decorated run makes exactly the decisions of an
// undecorated one (the benchmark checks this through the schedule
// fingerprint). They differ only in what they observe:
//
//  * RoundTimer (untraced runs) times each scheduling round of the
//    simulator — from the first completion, arrival or start callback at
//    an event time up to the select_starts call that starts nothing —
//    with two clock reads per round, the measurement serve::serve makes of
//    its own rounds;
//  * TracedScheduler, TracedSource, TracedSink and TracedFeed (the traced
//    run) record every call as a leaf span of a Tracer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/conservative_backfill.h"
#include "serve/feed.h"
#include "sim/scheduler.h"
#include "sim/streaming.h"
#include "tracer.h"
#include "util/latency.h"
#include "workload/job_source.h"

namespace perfbench {

using jsched::JobId;
using jsched::Time;

class RoundTimer final : public jsched::sim::Scheduler {
 public:
  /// Records one sample per round, in nanoseconds, into `rounds` (not
  /// owned; must outlive the timer).
  RoundTimer(std::unique_ptr<jsched::sim::Scheduler> inner,
             jsched::util::LatencyHistogram& rounds);

  std::string name() const override;
  void reset(const jsched::sim::Machine& machine) override;
  void on_submit(const jsched::Submission& job, Time now) override;
  void on_complete(JobId id, Time now) override;
  void on_capacity_change(Time now, int available_nodes) override;
  void select_starts(Time now, int free_nodes,
                     std::vector<JobId>& starts) override;
  Time next_wakeup(Time now) const override;
  std::size_t queue_length() const override;

 private:
  void open_round() noexcept;

  std::unique_ptr<jsched::sim::Scheduler> inner_;
  jsched::util::LatencyHistogram* rounds_;
  bool in_round_ = false;
  std::int64_t round_start_ns_ = 0;
};

/// Scheduler-side observations the traced run folds across every
/// scheduler instance of a run.
struct CoreStats {
  std::size_t queue_peak = 0;
  std::size_t breakpoints_peak = 0;
  double breakpoints_sum = 0.0;
  std::uint64_t breakpoints_samples = 0;
  jsched::core::ConservativeBackfillDispatch::ReplanStats cons{};
};

class TracedScheduler final : public jsched::sim::Scheduler {
 public:
  /// `tracer` and `stats` are not owned and must outlive the scheduler.
  TracedScheduler(std::unique_ptr<jsched::sim::Scheduler> inner,
                  Tracer& tracer, CoreStats& stats);
  /// Folds the conservative-backfill replan counters into the stats: the
  /// serve daemon owns and destroys its scheduler before returning.
  ~TracedScheduler() override;
  TracedScheduler(const TracedScheduler&) = delete;
  TracedScheduler& operator=(const TracedScheduler&) = delete;
  TracedScheduler(TracedScheduler&&) = delete;
  TracedScheduler& operator=(TracedScheduler&&) = delete;

  std::string name() const override;
  void reset(const jsched::sim::Machine& machine) override;
  void on_submit(const jsched::Submission& job, Time now) override;
  void on_complete(JobId id, Time now) override;
  void on_capacity_change(Time now, int available_nodes) override;
  void select_starts(Time now, int free_nodes,
                     std::vector<JobId>& starts) override;
  Time next_wakeup(Time now) const override;
  std::size_t queue_length() const override;

 private:
  std::unique_ptr<jsched::sim::Scheduler> inner_;
  Tracer& tracer_;
  CoreStats& stats_;
  // Null unless the inner scheduler is a list scheduler dispatching with
  // conservative backfilling.
  const jsched::core::ConservativeBackfillDispatch* cons_ = nullptr;
  Tracer::LeafSite submit_;
  Tracer::LeafSite complete_;
  Tracer::LeafSite capacity_;
  Tracer::LeafSite select_;
};

class TracedSource final : public jsched::workload::JobSource {
 public:
  /// Neither argument is owned; both must outlive the decorator.
  TracedSource(jsched::workload::JobSource& inner, Tracer& tracer);

  bool next(jsched::Job& out) override;
  std::size_t size_hint() const noexcept override;
  const std::string& name() const noexcept override;

 private:
  jsched::workload::JobSource& inner_;
  Tracer& tracer_;
  Tracer::LeafSite next_;
};

class TracedSink final : public jsched::sim::RecordSink {
 public:
  /// Neither argument is owned; both must outlive the decorator.
  TracedSink(jsched::sim::RecordSink& inner, Tracer& tracer);

  void on_record(JobId id, const jsched::sim::JobRecord& record,
                 const jsched::Job& j) override;
  void on_attempt(const jsched::sim::AttemptRecord& attempt) override;
  void on_capacity_event(Time t, int capacity) override;

 private:
  jsched::sim::RecordSink& inner_;
  Tracer& tracer_;
  Tracer::LeafSite record_;
};

class TracedFeed final : public jsched::serve::Feed {
 public:
  /// Neither argument is owned; both must outlive the decorator.
  TracedFeed(jsched::serve::Feed& inner, Tracer& tracer);

  bool poll(Time vnow, std::vector<jsched::serve::SubmitRecord>& out) override;
  Time next_submit() const override;

  /// Records the inner feed appended across every poll.
  std::size_t records() const noexcept { return records_; }

 private:
  jsched::serve::Feed& inner_;
  Tracer& tracer_;
  Tracer::LeafSite poll_;
  std::size_t records_ = 0;
};

}  // namespace perfbench
