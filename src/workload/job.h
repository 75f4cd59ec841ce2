// The rigid parallel job model of the paper (Example 5, Rule 2):
// the user provides the exact number of nodes and an upper limit for the
// execution time; jobs exceeding the limit may be cancelled.
#pragma once

#include <cstdint>

#include "util/time.h"

namespace jsched {

/// Stable job identifier; dense indices into the owning Workload.
using JobId = std::uint32_t;

inline constexpr JobId kInvalidJob = static_cast<JobId>(-1);

/// Bounds the SWF and feed-protocol readers check a parsed field against
/// before narrowing it to the model types (beyond them a cast is undefined
/// or a later sum overflows). Times and durations are seconds — 1e15 s is
/// ~30 million years, far beyond any archive; processor counts, users and
/// ids fit int32.
inline constexpr std::int64_t kMaxTimeField = 1'000'000'000'000'000;
inline constexpr std::int64_t kMaxIntField = 2'000'000'000;

/// Outcome of the job in the originating trace (SWF field 11). Synthetic
/// workloads and traces without the field report kCompleted. Purely
/// descriptive metadata: the simulator runs every job it is given; use
/// SwfOptions::drop_unsuccessful to exclude failed/cancelled records at
/// parse time.
enum class JobStatus : std::int8_t {
  kCompleted,  // SWF status 1 (and the default)
  kFailed,     // SWF status 0
  kCancelled,  // SWF status 5
  kUnknown,    // anything else (partial-execution codes 2-4, missing -1)
};

/// One rigid batch job.
///
/// The *scheduler* may only ever look at `submit`, `nodes` and `estimate`
/// (plus `user`/`priority_class` for policy layers); `runtime` is ground
/// truth known to the simulator alone and revealed through completion
/// events — this is the paper's on-line model (§2, §5.2).
struct Job {
  JobId id = kInvalidJob;

  /// Submission (release) time.
  Time submit = 0;

  /// Requested number of nodes (rigid). 1 <= nodes <= machine size.
  int nodes = 1;

  /// User-provided upper limit for the execution time (seconds, > 0).
  Duration estimate = 1;

  /// Actual execution time (seconds, > 0, <= estimate in valid workloads;
  /// the simulator cancels at `estimate` otherwise, per Rule 2).
  Duration runtime = 1;

  /// Submitting user (used by policy rules and per-user limits).
  std::int32_t user = 0;

  /// Priority class assigned by the scheduling policy (0 = normal). Higher
  /// values are more important (e.g. Example 1's drug-design lab).
  std::int32_t priority_class = 0;

  /// Trace-reported outcome (see JobStatus); kCompleted for synthetic
  /// jobs. Not part of the submission data a scheduler sees.
  JobStatus status = JobStatus::kCompleted;

  /// Resource consumption ("area") of the job: nodes x actual runtime.
  /// This is the weight of the average *weighted* response time objective
  /// (paper §4).
  double area() const noexcept {
    return static_cast<double>(nodes) * static_cast<double>(runtime);
  }

  /// Area as projected from the user estimate; what on-line algorithms may
  /// use for their decisions (SMART/PSRS weights, §5.4/§5.5).
  double estimated_area() const noexcept {
    return static_cast<double>(nodes) * static_cast<double>(estimate);
  }

  friend bool operator==(const Job&, const Job&) = default;
};

/// The submission-data slice of a Job: exactly the fields an on-line
/// scheduler may see (§2's information boundary), with no runtime member
/// at all. The simulator hands this to Scheduler::on_submit instead of
/// copying the full Job and scrubbing its runtime per arrival — the type
/// itself now enforces the on-line model.
struct Submission {
  JobId id;
  Time submit;
  int nodes;
  Duration estimate;
  std::int32_t user;
  std::int32_t priority_class;

  // Implicit: any Job can be viewed as its submission data.
  Submission(const Job& j) noexcept
      : id(j.id),
        submit(j.submit),
        nodes(j.nodes),
        estimate(j.estimate),
        user(j.user),
        priority_class(j.priority_class) {}

  /// Materialize a Job carrying submission data only (runtime scrubbed to
  /// 0, as the scheduler-side JobStore documents).
  Job to_job() const noexcept {
    Job j;
    j.id = id;
    j.submit = submit;
    j.nodes = nodes;
    j.estimate = estimate;
    j.runtime = 0;
    j.user = user;
    j.priority_class = priority_class;
    return j;
  }
};

}  // namespace jsched
