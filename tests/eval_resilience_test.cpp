// Failure isolation in the evaluation harness: error policies, the
// RunError taxonomy, retry accounting, fault-sweep isolation and the
// replication layer's workload-phase classification.
#include <gtest/gtest.h>

#include <atomic>
#include <exception>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/factory.h"
#include "eval/experiment.h"
#include "eval/internal.h"
#include "eval/replication.h"
#include "eval/reporting.h"
#include "sim/cancel.h"
#include "sim/schedule.h"
#include "sim/scheduler.h"
#include "test_support.h"

namespace jsched {
namespace {

/// Throws `error` on the first submission of every simulation.
class ThrowingScheduler : public sim::Scheduler {
 public:
  explicit ThrowingScheduler(std::string what) : what_(std::move(what)) {}
  std::string name() const override { return "throwing"; }
  void reset(const sim::Machine&) override {}
  void on_submit(const Submission&, Time) override {
    throw std::logic_error(what_);
  }
  void on_complete(JobId, Time) override {}
  void select_starts(Time, int, std::vector<JobId>&) override {}
  std::size_t queue_length() const override { return 0; }

 private:
  std::string what_;
};

/// Factory injecting a ThrowingScheduler for exactly one configuration.
eval::ExperimentOptions throwing_options(core::OrderKind order,
                                         core::DispatchKind dispatch) {
  eval::ExperimentOptions opt;
  opt.measure_cpu = false;
  opt.scheduler_factory = [order, dispatch](const core::AlgorithmSpec& spec)
      -> std::unique_ptr<sim::Scheduler> {
    if (spec.order == order && spec.dispatch == dispatch) {
      return std::make_unique<ThrowingScheduler>("injected scheduler bug");
    }
    return core::make_scheduler(spec);
  };
  return opt;
}

TEST(Resilience, FailFastPreservesOriginalExceptionType) {
  const workload::Workload w = test::small_mixed_workload();
  sim::Machine m;
  m.nodes = 16;
  auto opt = throwing_options(core::OrderKind::kSmartNfiw,
                              core::DispatchKind::kEasy);
  // Default policy: the injected std::logic_error must escape untouched —
  // no wrapping, no classification.
  EXPECT_THROW(eval::run_grid(m, core::WeightKind::kUnit, w, opt),
               std::logic_error);
}

TEST(Resilience, IsolateCompletesHealthyCells) {
  const workload::Workload w = test::small_mixed_workload();
  sim::Machine m;
  m.nodes = 16;
  auto opt = throwing_options(core::OrderKind::kSmartNfiw,
                              core::DispatchKind::kEasy);
  opt.error_policy = eval::ErrorPolicy::kIsolate;
  const eval::GridResult grid =
      eval::run_grid_outcomes(m, core::WeightKind::kUnit, w, opt);
  ASSERT_EQ(grid.cells.size(), 13u);
  EXPECT_EQ(grid.failed(), 1u);
  const auto failures = grid.failures();
  ASSERT_EQ(failures.size(), 1u);
  EXPECT_EQ(failures[0].kind, eval::RunErrorKind::kScheduler);
  EXPECT_EQ(failures[0].scheduler, "SMART-NFIW+EASY");
  EXPECT_NE(failures[0].message.find("injected scheduler bug"),
            std::string::npos);
  EXPECT_EQ(failures[0].attempts, 1u);
  // Every other cell carries a real result.
  for (const auto& c : grid.cells) {
    if (c.ok) {
      EXPECT_GT(c.result.jobs, 0u);
      EXPECT_NE(c.result.schedule_fnv, 0u);
    }
  }
  // The legacy vector API throws a summary naming the failed cell.
  try {
    eval::run_grid(m, core::WeightKind::kUnit, w, opt);
    FAIL() << "expected summary exception";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("SMART-NFIW+EASY"),
              std::string::npos);
  }
}

TEST(Resilience, ShardedGridReportsOnlyItsOwnFailures) {
  // Cells owned by another shard are skipped, not failed: they must not
  // show up in failures() or in failure_summary's per-kind counts.
  const workload::Workload w = test::small_mixed_workload();
  sim::Machine m;
  m.nodes = 16;
  auto opt = throwing_options(core::OrderKind::kSmartNfiw,
                              core::DispatchKind::kEasy);
  opt.error_policy = eval::ErrorPolicy::kIsolate;
  std::size_t failed = 0;
  for (std::size_t index = 0; index < 2; ++index) {
    opt.shard = {index, 2};
    const eval::GridResult grid =
        eval::run_grid_outcomes(m, core::WeightKind::kUnit, w, opt);
    EXPECT_GT(grid.skipped(), 0u);
    ASSERT_EQ(grid.failures().size(), grid.failed());
    for (const eval::RunError& e : grid.failures()) {
      EXPECT_EQ(e.scheduler, "SMART-NFIW+EASY");
    }
    EXPECT_EQ(eval::failure_summary(grid).find("simulation"),
              std::string::npos);
    failed += grid.failed();
  }
  EXPECT_EQ(failed, 1u);  // exactly one shard owns the throwing cell
}

TEST(Resilience, IsolateMatchesSerialResultsThreaded) {
  // Isolation must not perturb the healthy cells: threaded isolate run ==
  // serial fail-free run, cell for cell.
  const workload::Workload w = test::small_mixed_workload();
  sim::Machine m;
  m.nodes = 16;
  eval::ExperimentOptions plain;
  plain.measure_cpu = false;
  const auto reference = eval::run_grid(m, core::WeightKind::kUnit, w, plain);

  auto opt = throwing_options(core::OrderKind::kSmartNfiw,
                              core::DispatchKind::kEasy);
  opt.error_policy = eval::ErrorPolicy::kIsolate;
  opt.threads = 4;
  const eval::GridResult grid =
      eval::run_grid_outcomes(m, core::WeightKind::kUnit, w, opt);
  ASSERT_EQ(grid.cells.size(), reference.size());
  for (std::size_t i = 0; i < grid.cells.size(); ++i) {
    if (!grid.cells[i].ok) continue;
    EXPECT_EQ(grid.cells[i].result.schedule_fnv, reference[i].schedule_fnv)
        << "cell " << i;
  }
}

TEST(Resilience, RetryConsumesAllAttemptsOnDeterministicFailure) {
  const workload::Workload w = test::small_mixed_workload();
  sim::Machine m;
  m.nodes = 16;
  auto opt = throwing_options(core::OrderKind::kFcfs,
                              core::DispatchKind::kList);
  opt.error_policy = eval::ErrorPolicy::kRetryN;
  opt.max_retries = 2;
  const eval::RunOutcome out = eval::run_one_outcome(
      m, core::AlgorithmSpec{}, w, opt);  // FCFS+kList is the throwing cell
  ASSERT_FALSE(out.ok);
  EXPECT_EQ(out.attempts, 3u);  // 1 + max_retries
  EXPECT_EQ(out.error.attempts, 3u);
  EXPECT_NE(out.error.describe().find("after 3 attempts"), std::string::npos);
}

TEST(Resilience, RetrySucceedsAfterTransientFailures) {
  // A scheduler factory that fails twice then behaves: retry must succeed
  // on the third attempt and record the count.
  const workload::Workload w = test::small_mixed_workload();
  sim::Machine m;
  m.nodes = 16;
  auto failures_left = std::make_shared<std::atomic<int>>(2);
  eval::ExperimentOptions opt;
  opt.measure_cpu = false;
  opt.error_policy = eval::ErrorPolicy::kRetryN;
  opt.max_retries = 2;
  opt.scheduler_factory = [failures_left](const core::AlgorithmSpec& spec)
      -> std::unique_ptr<sim::Scheduler> {
    if (failures_left->fetch_sub(1) > 0) {
      return std::make_unique<ThrowingScheduler>("transient");
    }
    return core::make_scheduler(spec);
  };
  const eval::RunOutcome out =
      eval::run_one_outcome(m, core::AlgorithmSpec{}, w, opt);
  ASSERT_TRUE(out.ok);
  EXPECT_EQ(out.attempts, 3u);
  // The successful attempt produced a real schedule, identical to an
  // unfaulted run.
  eval::ExperimentOptions plain;
  plain.measure_cpu = false;
  const eval::RunResult reference =
      eval::run_one(m, core::AlgorithmSpec{}, w, plain);
  EXPECT_EQ(out.result.schedule_fnv, reference.schedule_fnv);
}

TEST(Resilience, ExceptionTaxonomyClassification) {
  // The full exception-type -> RunErrorKind map of outcome.h, exercised
  // directly against the classifier.
  const auto classify = [](std::exception_ptr e) {
    try {
      std::rethrow_exception(std::move(e));
    } catch (...) {
      return eval::detail::classify_current_exception("CONFIG");
    }
  };
  using Kind = eval::RunErrorKind;
  EXPECT_EQ(classify(std::make_exception_ptr(
                         sim::ValidationError("schedule: overlap")))
                .kind,
            Kind::kValidation);
  EXPECT_EQ(classify(std::make_exception_ptr(std::logic_error("contract")))
                .kind,
            Kind::kScheduler);
  EXPECT_EQ(classify(std::make_exception_ptr(std::runtime_error("io"))).kind,
            Kind::kSimulation);
  EXPECT_EQ(classify(std::make_exception_ptr(sim::CancelledError(
                         sim::CancelledError::Reason::kDeadline, "late")))
                .kind,
            Kind::kTimeout);
  EXPECT_EQ(classify(std::make_exception_ptr(sim::CancelledError(
                         sim::CancelledError::Reason::kCancelled, "stop")))
                .kind,
            Kind::kCancelled);
  EXPECT_EQ(classify(std::make_exception_ptr(eval::detail::PhaseError(
                         Kind::kWorkload, "generator died")))
                .kind,
            Kind::kWorkload);
  const eval::RunError err =
      classify(std::make_exception_ptr(std::logic_error("contract")));
  EXPECT_EQ(err.scheduler, "CONFIG");
  EXPECT_EQ(err.message, "contract");
}

TEST(Resilience, StarvedJobsClassifyAsSchedulerBug) {
  // A scheduler that silently drops every job starves the event loop; the
  // simulator's no-progress guard throws logic_error, which the taxonomy
  // files under kScheduler.
  class DroppingScheduler : public sim::Scheduler {
   public:
    std::string name() const override { return "dropping"; }
    void reset(const sim::Machine&) override {}
    void on_submit(const Submission&, Time) override {}
    void on_complete(JobId, Time) override {}
    void select_starts(Time, int, std::vector<JobId>&) override {}
    std::size_t queue_length() const override { return 0; }
  };
  const workload::Workload w = test::small_mixed_workload();
  sim::Machine m;
  m.nodes = 16;
  eval::ExperimentOptions opt;
  opt.measure_cpu = false;
  opt.error_policy = eval::ErrorPolicy::kIsolate;
  opt.scheduler_factory = [](const core::AlgorithmSpec&)
      -> std::unique_ptr<sim::Scheduler> {
    return std::make_unique<DroppingScheduler>();
  };
  const eval::RunOutcome out =
      eval::run_one_outcome(m, core::AlgorithmSpec{}, w, opt);
  ASSERT_FALSE(out.ok);
  EXPECT_EQ(out.error.kind, eval::RunErrorKind::kScheduler);
  EXPECT_NE(out.error.message.find("starved"), std::string::npos);
}

TEST(Resilience, FaultSweepIsolatesMidSweepFailure) {
  // A scheduler throwing in every point of a fault sweep: each point's
  // grid completes its other 12 cells and reports the failure; the
  // throwing accessor names the point.
  const workload::Workload w = test::small_mixed_workload();
  sim::Machine m;
  m.nodes = 16;
  std::vector<eval::FaultSweepPoint> points(2);
  points[0].label = "p0";
  points[1].label = "p1";

  auto opt = throwing_options(core::OrderKind::kPsrs,
                              core::DispatchKind::kConservative);
  opt.error_policy = eval::ErrorPolicy::kIsolate;
  const auto sweep =
      eval::run_fault_sweep(m, core::WeightKind::kUnit, w, points, opt);
  ASSERT_EQ(sweep.size(), 2u);
  for (const auto& grid : sweep) {
    EXPECT_EQ(grid.failed(), 1u);
    EXPECT_EQ(grid.failures()[0].kind, eval::RunErrorKind::kScheduler);
    EXPECT_EQ(grid.cells.size() - grid.failed(), 12u);
  }
  try {
    (void)sweep[0].results_or_throw(points[0].label);
    FAIL() << "expected summary exception";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("p0"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("PSRS+CONS"), std::string::npos);
  }
}

TEST(Resilience, ReplicationClassifiesWorkloadFailures) {
  // Seed 2's workload generator explodes: under isolate the replicate is
  // filed as kWorkload and the statistics aggregate the other seeds.
  sim::Machine m;
  m.nodes = 16;
  const auto make = [](std::uint64_t seed) {
    if (seed == 2) throw std::runtime_error("generator exploded");
    return test::small_mixed_workload();
  };
  const std::uint64_t seeds[] = {1, 2, 3};
  eval::ExperimentOptions opt;
  opt.measure_cpu = false;
  opt.error_policy = eval::ErrorPolicy::kIsolate;
  const eval::ReplicatedResult rep =
      eval::run_replicated(m, core::AlgorithmSpec{}, make, seeds, opt);
  EXPECT_EQ(rep.failed_replicates, 1u);
  EXPECT_EQ(rep.art.count(), 2u);
  ASSERT_EQ(rep.outcomes.size(), 3u);
  EXPECT_TRUE(rep.outcomes[0].ok);
  ASSERT_FALSE(rep.outcomes[1].ok);
  EXPECT_EQ(rep.outcomes[1].error.kind, eval::RunErrorKind::kWorkload);
  EXPECT_NE(rep.outcomes[1].error.message.find("seed=2"), std::string::npos);
  EXPECT_TRUE(rep.outcomes[2].ok);
}

TEST(Resilience, ReplicationFailFastPreservesGeneratorException) {
  sim::Machine m;
  m.nodes = 16;
  const auto make = [](std::uint64_t seed) -> workload::Workload {
    if (seed == 2) throw std::invalid_argument("bad seed");
    return test::small_mixed_workload();
  };
  const std::uint64_t seeds[] = {1, 2, 3};
  eval::ExperimentOptions opt;
  opt.measure_cpu = false;
  EXPECT_THROW(eval::run_replicated(m, core::AlgorithmSpec{}, make, seeds, opt),
               std::invalid_argument);
}

TEST(Resilience, FailureTableAndSummaryRender) {
  const workload::Workload w = test::small_mixed_workload();
  sim::Machine m;
  m.nodes = 16;
  auto opt = throwing_options(core::OrderKind::kSmartNfiw,
                              core::DispatchKind::kEasy);
  opt.error_policy = eval::ErrorPolicy::kIsolate;
  const eval::GridResult grid =
      eval::run_grid_outcomes(m, core::WeightKind::kUnit, w, opt);
  const std::string table =
      eval::failure_table(grid, "failures").to_ascii();
  EXPECT_NE(table.find("SMART-NFIW+EASY"), std::string::npos);
  EXPECT_NE(table.find("scheduler"), std::string::npos);
  const std::string summary = eval::failure_summary(grid);
  EXPECT_EQ(summary, "12/13 cells ok, 1 failed (scheduler=1)");
}

TEST(Resilience, ErrorPolicyStringsRoundTrip) {
  EXPECT_EQ(eval::error_policy_from_string("fail_fast"),
            eval::ErrorPolicy::kFailFast);
  EXPECT_EQ(eval::error_policy_from_string("isolate"),
            eval::ErrorPolicy::kIsolate);
  EXPECT_EQ(eval::error_policy_from_string("retry"),
            eval::ErrorPolicy::kRetryN);
  EXPECT_THROW(eval::error_policy_from_string("whatever"),
               std::invalid_argument);
  EXPECT_EQ(eval::to_string(eval::RunErrorKind::kTimeout), "timeout");
  EXPECT_EQ(eval::to_string(eval::ErrorPolicy::kIsolate), "isolate");
}

}  // namespace
}  // namespace jsched
