#include "eval/experiment.h"

#include <mutex>
#include <stdexcept>

#include "eval/internal.h"
#include "eval/journal.h"
#include "eval/shard.h"
#include "metrics/streaming.h"
#include "sim/schedule.h"
#include "sim/simulator.h"
#include "sim/streaming.h"
#include "util/fnv.h"
#include "util/journal.h"
#include "util/thread_pool.h"

namespace jsched::eval {

void ShardSpec::validate() const {
  if (count == 0) {
    throw std::invalid_argument("ShardSpec: count must be >= 1");
  }
  if (index >= count) {
    throw std::invalid_argument("ShardSpec: index " + std::to_string(index) +
                                " out of range for " + std::to_string(count) +
                                " shard" + (count == 1 ? "" : "s"));
  }
}

namespace detail {

std::vector<RunOutcome> run_cells(
    std::size_t count, const ExperimentOptions& options,
    const std::function<RunOutcome(std::size_t, const ExperimentOptions&)>&
        cell) {
  std::vector<RunOutcome> out(count);
  const std::size_t threads = options.threads == 0
                                  ? util::ThreadPool::hardware_threads()
                                  : options.threads;
  if (threads <= 1) {
    for (std::size_t i = 0; i < count; ++i) out[i] = cell(i, options);
    return out;
  }
  // Slot i of the output is written only by task i.
  std::mutex on_run_mu;
  ExperimentOptions per_task = options;
  if (options.on_run) {
    per_task.on_run = [&options, &on_run_mu](const std::string& name) {
      std::lock_guard<std::mutex> lock(on_run_mu);
      options.on_run(name);
    };
  }
  util::ThreadPool::ParallelOptions pool_options;
  pool_options.stop_on_error = options.error_policy == ErrorPolicy::kFailFast;
  util::parallel_for_each(
      count, threads, [&](std::size_t i) { out[i] = cell(i, per_task); },
      pool_options);
  return out;
}

RunError classify_current_exception(const std::string& scheduler) {
  RunError err;
  err.scheduler = scheduler;
  try {
    throw;
  } catch (const sim::CancelledError& e) {
    err.kind = e.reason() == sim::CancelledError::Reason::kDeadline
                   ? RunErrorKind::kTimeout
                   : RunErrorKind::kCancelled;
    err.message = e.what();
  } catch (const PhaseError& e) {
    err.kind = e.kind();
    err.message = e.what();
  } catch (const sim::ValidationError& e) {
    err.kind = RunErrorKind::kValidation;
    err.message = e.what();
  } catch (const std::logic_error& e) {
    // The simulator's event-loop contract checks (bad start selections,
    // overallocation, out-of-order events) throw logic_error: the
    // scheduler, not the harness, broke the rules.
    err.kind = RunErrorKind::kScheduler;
    err.message = e.what();
  } catch (const std::exception& e) {
    err.kind = RunErrorKind::kSimulation;
    err.message = e.what();
  } catch (...) {
    err.kind = RunErrorKind::kSimulation;
    err.message = "unknown non-standard exception";
  }
  return err;
}

RunOutcome run_cell_protected(const ExperimentOptions& options,
                              std::uint64_t key,
                              const core::AlgorithmSpec& spec,
                              const std::function<RunResult()>& attempt) {
  if (options.journal != nullptr) {
    RunResult cached;
    if (options.journal->lookup(key, spec, &cached)) {
      return RunOutcome::success(std::move(cached), 0);
    }
  }
  const auto record = [&](const RunResult& r) {
    if (options.journal != nullptr) options.journal->record(key, r);
  };
  if (options.error_policy == ErrorPolicy::kFailFast) {
    // Nothing is caught: callers observe the original exception type.
    RunResult r = attempt();
    record(r);
    return RunOutcome::success(std::move(r), 1);
  }
  const std::size_t total_attempts =
      options.error_policy == ErrorPolicy::kRetryN ? 1 + options.max_retries
                                                   : 1;
  RunError err;
  for (std::size_t tries = 1; tries <= total_attempts; ++tries) {
    try {
      RunResult r = attempt();
      record(r);
      return RunOutcome::success(std::move(r), tries);
    } catch (...) {
      err = classify_current_exception(spec.display_name());
      err.attempts = tries;
    }
  }
  return RunOutcome::failure(std::move(err));
}

namespace {

/// The event-core options of one run. `token` is the run's deadline token,
/// chained to the sweep-wide token (if any) so an external cancel and a
/// local deadline both stop the run; it must outlive the run.
sim::CoreOptions core_options(const ExperimentOptions& options,
                              sim::CancelToken& token) {
  sim::CoreOptions result;
  result.measure_scheduler_cpu = options.measure_cpu;
  result.faults = options.faults;
  token.set_clock(options.clock);
  if (options.run_deadline.count() != 0) {
    token.set_deadline_after(options.run_deadline);
  }
  if (options.cancel != nullptr || options.run_deadline.count() != 0) {
    result.cancel = &token;
  }
  return result;
}

/// What a simulation reports besides its records.
struct RunStats {
  double scheduler_cpu_seconds = 0.0;
  std::size_t max_queue_length = 0;
};

/// The steps run_one and run_streamed share. `simulate(scheduler, core,
/// fold)` runs the simulation and hands `fold` every record in JobId
/// order, then every killed attempt, then every capacity event; the
/// RunResult is built from the folded metrics.
template <typename Simulate>
RunResult measure(const sim::Machine& machine, const core::AlgorithmSpec& spec,
                  const ExperimentOptions& options, Simulate&& simulate) {
  if (options.on_run) options.on_run(spec.display_name());

  auto scheduler = options.scheduler_factory ? options.scheduler_factory(spec)
                                             : core::make_scheduler(spec);
  sim::CancelToken token(options.cancel);
  metrics::StreamingAggregator fold(machine.nodes);
  const RunStats stats =
      simulate(*scheduler, core_options(options, token), fold);
  const metrics::StreamedMetrics m = fold.finish();

  RunResult r;
  r.spec = spec;
  r.scheduler_name = scheduler->name();
  r.jobs = m.jobs;
  r.art = m.art;
  r.awrt = m.awrt;
  r.wait = m.wait;
  r.makespan = static_cast<double>(m.makespan);
  r.utilization = m.utilization;
  r.scheduler_cpu_seconds = stats.scheduler_cpu_seconds;
  r.max_queue_length = stats.max_queue_length;
  r.schedule_fnv = m.schedule_fnv;
  r.goodput_node_seconds = m.resilience.useful_node_seconds;
  r.wasted_node_seconds = m.resilience.wasted_node_seconds;
  r.goodput_fraction = m.resilience.goodput_fraction;
  r.availability = m.resilience.availability;
  r.availability_weighted_utilization =
      m.resilience.availability_weighted_utilization;
  r.kills = m.resilience.kills;
  r.jobs_hit = m.resilience.jobs_hit;
  return r;
}

/// run_grid_outcomes with every journal key salted by `salt`.
GridResult grid_outcomes(const sim::Machine& machine, core::WeightKind weight,
                         const workload::Workload& workload,
                         const ExperimentOptions& options, std::uint64_t salt) {
  options.shard.validate();
  const std::vector<core::AlgorithmSpec> specs = core::paper_grid(weight);
  // Cell keys serve two masters: journal checkpointing and the shard
  // partition. Either one needs the workload fingerprint computed.
  const bool keyed = options.journal != nullptr || options.shard.active();
  const std::uint64_t workload_fnv =
      keyed ? workload::fingerprint(workload) : 0;
  const std::vector<std::uint64_t> keys =
      keyed ? grid_cell_keys(workload_fnv, machine.nodes, weight, salt)
            : std::vector<std::uint64_t>(specs.size(), 0);
  // The shard assignment is a pure function of this grid's key set, so
  // every shard process derives the identical disjoint partition with no
  // coordination (see shard.h).
  std::unique_ptr<ShardPlan> plan;
  if (options.shard.active()) {
    plan = std::make_unique<ShardPlan>(keys, options.shard.count);
  }

  GridResult out;
  if (options.journal != nullptr) {
    // Bind the journal to this sweep before any lookup: cells recorded
    // for a different workload/machine are stale and must not linger as
    // silent dead weight (their keys would never hit anyway — the point
    // is the explicit report and the fresh segment).
    out.journal_note = options.journal->open_segment(
        sweep_fingerprint(workload_fnv, machine.nodes));
  }
  out.cells = detail::run_cells(
      specs.size(), options,
      [&](std::size_t i, const ExperimentOptions& opts) {
        const core::AlgorithmSpec& spec = specs[i];
        if (plan != nullptr && plan->shard_of(keys[i]) != opts.shard.index) {
          return RunOutcome::other_shard();
        }
        return detail::run_cell_protected(
            opts, keys[i], spec,
            [&] { return run_one(machine, spec, workload, opts); });
      });
  return out;
}

}  // namespace

}  // namespace detail

std::vector<RunResult> GridResult::results_or_throw(
    const std::string& sweep) const {
  // Only reachable under kIsolate / kRetryN: kFailFast already threw the
  // original exception from inside the sweep.
  if (!all_ok()) {
    std::string msg = sweep + ": " + std::to_string(failed()) + " of " +
                      std::to_string(cells.size()) + " cells failed:";
    for (const RunError& e : failures()) msg += "\n  " + e.describe();
    throw std::runtime_error(msg);
  }
  return results();
}

RunResult run_streamed(const sim::Machine& machine,
                       const core::AlgorithmSpec& spec,
                       workload::JobSource& source,
                       const ExperimentOptions& options) {
  return detail::measure(
      machine, spec, options,
      [&](sim::Scheduler& scheduler, const sim::CoreOptions& core,
          metrics::StreamingAggregator& fold) {
        const sim::StreamStats stats =
            sim::simulate_stream(machine, scheduler, source, fold, core);
        return detail::RunStats{stats.scheduler_cpu_seconds,
                                stats.max_queue_length};
      });
}

RunResult run_one(const sim::Machine& machine, const core::AlgorithmSpec& spec,
                  const workload::Workload& workload,
                  const ExperimentOptions& options) {
  return detail::measure(
      machine, spec, options,
      [&](sim::Scheduler& scheduler, const sim::CoreOptions& core,
          metrics::StreamingAggregator& fold) {
        sim::SimOptions sim_options{core};
        sim_options.validate = options.validate;
        const sim::Schedule s =
            sim::simulate(machine, scheduler, workload, sim_options);
        for (JobId id = 0; id < s.size(); ++id) {
          fold.on_record(id, s[id], workload.job(id));
        }
        for (const sim::AttemptRecord& a : s.attempts) fold.on_attempt(a);
        for (const auto& [t, capacity] : s.capacity_events) {
          fold.on_capacity_event(t, capacity);
        }
        return detail::RunStats{s.scheduler_cpu_seconds, s.max_queue_length};
      });
}

RunOutcome run_one_outcome(const sim::Machine& machine,
                           const core::AlgorithmSpec& spec,
                           const workload::Workload& workload,
                           const ExperimentOptions& options) {
  const std::uint64_t key =
      options.journal == nullptr
          ? 0
          : cell_key(workload::fingerprint(workload), machine.nodes, spec, 0);
  return detail::run_cell_protected(
      options, key, spec,
      [&] { return run_one(machine, spec, workload, options); });
}

GridResult run_grid_outcomes(const sim::Machine& machine,
                             core::WeightKind weight,
                             const workload::Workload& workload,
                             const ExperimentOptions& options) {
  return detail::grid_outcomes(machine, weight, workload, options, 0);
}

std::vector<RunResult> run_grid(const sim::Machine& machine,
                                core::WeightKind weight,
                                const workload::Workload& workload,
                                const ExperimentOptions& options) {
  if (options.shard.active()) {
    throw std::invalid_argument(
        "run_grid: a sharded sweep produces a partial grid; use "
        "run_grid_outcomes and merge the shard journals");
  }
  return run_grid_outcomes(machine, weight, workload, options)
      .results_or_throw("run_grid");
}

std::vector<GridResult> run_fault_sweep(
    const sim::Machine& machine, core::WeightKind weight,
    const workload::Workload& workload,
    const std::vector<FaultSweepPoint>& points,
    const ExperimentOptions& options) {
  std::vector<GridResult> out;
  out.reserve(points.size());
  for (const FaultSweepPoint& point : points) {
    ExperimentOptions per_point = options;
    per_point.faults = point.faults;
    // The same grid cell under different fault intensities is different
    // work, so each point's keys are salted with the FNV-1a of its label.
    out.push_back(detail::grid_outcomes(machine, weight, workload, per_point,
                                        util::fnv1a(point.label)));
  }
  return out;
}

const RunResult& find(const std::vector<RunResult>& results,
                      core::OrderKind order, core::DispatchKind dispatch) {
  for (const RunResult& r : results) {
    if (r.spec.order == order && r.spec.dispatch == dispatch) return r;
  }
  throw std::out_of_range(std::string("eval::find: configuration ") +
                          core::to_string(order) + "+" +
                          core::to_string(dispatch) + " not in results");
}

}  // namespace jsched::eval
