// Internal helpers shared by the eval translation units; not installed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "eval/experiment.h"

namespace jsched::eval::detail {

/// Runs the cells of every sweep: cells 0..count-1 on
/// options.threads workers (0 = one per hardware thread) and returns
/// their outcomes in index order, whatever the completion order.
/// `cell(i, opts)` runs cell i; with more than one worker, `opts` is
/// `options` with on_run serialized by a mutex so progress output never
/// interleaves. Under kFailFast a failing cell stops the pool from
/// starting further cells (in-flight ones drain) before its exception is
/// rethrown here.
std::vector<RunOutcome> run_cells(
    std::size_t count, const ExperimentOptions& options,
    const std::function<RunOutcome(std::size_t, const ExperimentOptions&)>&
        cell);

/// Re-thrown wrapper that pins an exception to a specific RunErrorKind —
/// used where the phase cannot be told from the exception type alone
/// (e.g. a workload generator throwing std::runtime_error). Only raised
/// when the harness is catching (kIsolate / kRetryN); under kFailFast the
/// original exception propagates untouched.
class PhaseError : public std::runtime_error {
 public:
  PhaseError(RunErrorKind kind, const std::string& what)
      : std::runtime_error(what), kind_(kind) {}
  RunErrorKind kind() const noexcept { return kind_; }

 private:
  RunErrorKind kind_;
};

/// Classify the in-flight exception (call inside a catch block only) into
/// a RunError for `scheduler`. See outcome.h for the type -> kind map.
RunError classify_current_exception(const std::string& scheduler);

/// Run one sweep cell under the options' error policy and journal:
/// journal lookup first (hit -> attempts == 0), then `attempt` once (or
/// 1 + max_retries times under kRetryN), recording a success into the
/// journal. Under kFailFast nothing is caught: `attempt`'s exception
/// propagates with its original type.
RunOutcome run_cell_protected(const ExperimentOptions& options,
                              std::uint64_t key,
                              const core::AlgorithmSpec& spec,
                              const std::function<RunResult()>& attempt);

}  // namespace jsched::eval::detail
