#include "core/phased_scheduler.h"

#include <gtest/gtest.h>

#include "core/conservative_backfill.h"
#include "core/easy_backfill.h"
#include "core/smart.h"
#include "fault/fault.h"
#include "sim/simulator.h"
#include "test_support.h"
#include "workload/ctc_model.h"
#include "workload/transforms.h"

namespace jsched::core {
namespace {

using test::make_job;

PhaseWindow day_window() { return PhaseWindow{7 * kHour, 20 * kHour, true}; }

TEST(PhaseWindow, ContainsDaytimeWeekdays) {
  const PhaseWindow w = day_window();
  EXPECT_TRUE(w.contains(9 * kHour));                // Monday 9am
  EXPECT_FALSE(w.contains(6 * kHour));               // Monday 6am
  EXPECT_FALSE(w.contains(21 * kHour));              // Monday 9pm
  EXPECT_FALSE(w.contains(5 * kDay + 9 * kHour));    // Saturday 9am
  EXPECT_TRUE(w.contains(7 * kDay + 12 * kHour));    // next Monday noon
}

TEST(PhaseWindow, WrappingWindow) {
  const PhaseWindow w{20 * kHour, 7 * kHour, false};
  EXPECT_TRUE(w.contains(23 * kHour));
  EXPECT_TRUE(w.contains(kDay + 3 * kHour));
  EXPECT_FALSE(w.contains(12 * kHour));
}

TEST(PhaseWindow, NextBoundaryExact) {
  const PhaseWindow w = day_window();
  EXPECT_EQ(w.next_boundary(0), 7 * kHour);            // Monday 0:00 -> 7am
  EXPECT_EQ(w.next_boundary(9 * kHour), 20 * kHour);   // in window -> 8pm
  // Friday 8pm -> Monday 7am.
  EXPECT_EQ(w.next_boundary(4 * kDay + 20 * kHour), 7 * kDay + 7 * kHour);
}

TEST(PhaseWindow, DegenerateWindowHasNoBoundary) {
  const PhaseWindow all{0, kDay, false};
  EXPECT_EQ(all.next_boundary(123), kTimeInfinity);
}

std::unique_ptr<PhasedScheduler> make_phased() {
  SmartParams smart;
  return std::make_unique<PhasedScheduler>(
      day_window(), std::make_unique<SmartOrder>(smart),
      std::make_unique<EasyBackfillDispatch>(), std::make_unique<FcfsOrder>(),
      std::make_unique<FirstFitDispatch>());
}

TEST(PhasedScheduler, NameDescribesBothPhases) {
  const auto s = make_phased();
  EXPECT_EQ(s->name(), "day[SMART-FFIA+EASY]/night[FCFS+FF]");
}

TEST(PhasedScheduler, RejectsNullComponents) {
  EXPECT_THROW(PhasedScheduler(day_window(), nullptr,
                               std::make_unique<EasyBackfillDispatch>(),
                               std::make_unique<FcfsOrder>(),
                               std::make_unique<FirstFitDispatch>()),
               std::invalid_argument);
}

TEST(PhasedScheduler, ValidScheduleOnMixedWorkload) {
  auto s = make_phased();
  sim::Machine m;
  m.nodes = 16;
  const auto schedule = sim::simulate(m, *s, test::small_mixed_workload());
  EXPECT_EQ(schedule.size(), test::small_mixed_workload().size());
}

TEST(PhasedScheduler, FlipsAcrossTheWindowBoundary) {
  // Two long jobs spanning the 20:00 boundary plus arrivals on both sides.
  auto s = make_phased();
  sim::Machine m;
  m.nodes = 16;
  // Anchor at t=0 so finalize() keeps the intended clock (it shifts the
  // origin to the first submission).
  const auto w = test::make_workload({
      make_job(0, 1, 1, 1),                                  // anchor
      make_job(8 * kHour, 8, 10 * kHour, 10 * kHour),        // day phase
      make_job(8 * kHour + 60, 8, 14 * kHour, 14 * kHour),   // day phase
      make_job(21 * kHour, 8, 3600, 3600),                   // night arrival
      make_job(22 * kHour, 4, 3600, 3600),                   // night arrival
  });
  const auto schedule = sim::simulate(m, *s, w);
  EXPECT_GE(s->phase_flips(), 1u);
  EXPECT_EQ(schedule.size(), w.size());
}

TEST(PhasedScheduler, NightPhaseBehavesLikeGareyGraham) {
  // Everything happens Monday night (20:00+): the phased scheduler must
  // replicate pure G&G decisions.
  auto phased = make_phased();
  core::AlgorithmSpec gg;
  gg.dispatch = core::DispatchKind::kFirstFit;
  auto pure = make_scheduler(gg);

  const auto w = test::make_workload({
      make_job(0, 1, 1, 1),                      // anchor (night: Monday 0:00)
      make_job(100, 6, 1000, 1000),
      make_job(101, 4, 500, 500),                // blocked
      make_job(102, 2, 100, 100),                // G&G jumps it ahead
  });
  sim::Machine m;
  m.nodes = 8;
  const auto sp = sim::simulate(m, *phased, w);
  const auto sg = sim::simulate(m, *pure, w);
  for (JobId i = 0; i < w.size(); ++i) {
    EXPECT_EQ(sp[i].start, sg[i].start) << "job " << i;
  }
}

TEST(PhasedScheduler, DayPhaseBehavesLikeSmartEasy) {
  auto phased = make_phased();
  core::AlgorithmSpec se;
  se.order = core::OrderKind::kSmartFfia;
  se.dispatch = core::DispatchKind::kEasy;
  auto pure = make_scheduler(se);

  // Anchor at t=0 (Monday midnight); the real jobs all fall inside the
  // Monday 8:00-20:00 day window. The anchor itself is a trivial 1-second
  // job both schedulers start identically at the origin.
  std::vector<Job> jobs;
  jobs.push_back(make_job(0, 1, 1, 1));
  for (int i = 0; i < 30; ++i) {
    jobs.push_back(make_job(8 * kHour + i * 40, 1 + (i * 5) % 16,
                            300 + (i * 37) % 900, 1800));
  }
  const auto w = test::make_workload(std::move(jobs));
  sim::Machine m;
  m.nodes = 16;
  const auto sp = sim::simulate(m, *phased, w);
  const auto sg = sim::simulate(m, *pure, w);
  for (JobId i = 0; i < w.size(); ++i) {
    EXPECT_EQ(sp[i].start, sg[i].start) << "job " << i;
  }
}

TEST(PhasedScheduler, CombinedFactoryRunsPaperScaleWorkload) {
  auto s = make_institution_b_combined();
  workload::CtcModelParams p;
  p.job_count = 2000;
  const auto w = workload::trim_to_machine(workload::generate_ctc(p, 3), 256);
  sim::Machine m;
  m.nodes = 256;
  const auto schedule = sim::simulate(m, *s, w);
  EXPECT_EQ(schedule.size(), w.size());
}

TEST(PhasedScheduler, ConservativeDispatcherSurvivesAdoption) {
  // Day: FCFS+CONS; night: FCFS+FF. Jobs running across the boundary must
  // be accounted for when the conservative profile is rebuilt on the flip
  // back.
  auto phased = std::make_unique<PhasedScheduler>(
      day_window(), std::make_unique<FcfsOrder>(),
      std::make_unique<ConservativeBackfillDispatch>(),
      std::make_unique<FcfsOrder>(), std::make_unique<FirstFitDispatch>());
  sim::Machine m;
  m.nodes = 16;
  const auto w = test::make_workload({
      make_job(0, 1, 1, 1),                            // anchor (origin)
      make_job(19 * kHour, 12, 6 * kHour, 8 * kHour),  // spans 20:00
      make_job(19 * kHour + 60, 8, 3600, 7200),        // queued at flip
      make_job(21 * kHour, 8, 3600, 3600),
      make_job(kDay + 8 * kHour, 8, 3600, 3600),       // next morning (flip back)
      make_job(kDay + 8 * kHour + 10, 4, 600, 1200),
  });
  const auto schedule = sim::simulate(m, *phased, w);
  EXPECT_EQ(schedule.size(), w.size());
  EXPECT_GE(phased->phase_flips(), 2u);
}

TEST(PhasedScheduler, ResetAfterARunEndingInTheDayPhase) {
  // A run that ends in the day phase leaves the day pair active; reset()
  // must hand the empty machine back to the night pair active at t = 0, so
  // a reused instance schedules exactly like a fresh one.
  const auto w = test::make_workload({
      make_job(0, 1, 1, 1),                        // anchor (night)
      make_job(9 * kHour, 8, 3600, 7200),          // day
      make_job(21 * kHour, 12, 3600, 3600),        // night
      make_job(kDay + 8 * kHour, 8, 600, 1200),    // next morning
      make_job(kDay + 8 * kHour + 10, 12, 600, 600),
  });
  sim::Machine m;
  m.nodes = 16;
  auto reused = make_phased();
  const auto first = sim::simulate(m, *reused, w);
  EXPECT_TRUE(reused->in_day_phase());
  const auto second = sim::simulate(m, *reused, w);
  const auto fresh = sim::simulate(m, *make_phased(), w);
  EXPECT_EQ(sim::schedule_fingerprint(second), sim::schedule_fingerprint(first));
  EXPECT_EQ(sim::schedule_fingerprint(fresh), sim::schedule_fingerprint(first));
}

// --- pinned phased schedules --------------------------------------------
//
// Schedule fingerprints and flip counts of phased runs, recorded before
// PhasedScheduler became a phase switch over ListScheduler. Nothing else
// pins phased output; a mismatch means a flip moved some start.

TEST(PhasedSchedulerPins, InstitutionBCombinedOnCtcTrace) {
  auto s = make_institution_b_combined();
  workload::CtcModelParams p;
  p.job_count = 2000;
  const auto w = workload::trim_to_machine(workload::generate_ctc(p, 3), 256);
  sim::Machine m;
  m.nodes = 256;
  const auto schedule = sim::simulate(m, *s, w);
  EXPECT_EQ(sim::schedule_fingerprint(schedule), 0x7444bc2f2b1ed081ull)
      << std::hex << sim::schedule_fingerprint(schedule);
  EXPECT_EQ(dynamic_cast<const PhasedScheduler&>(*s).phase_flips(), 12u);
}

TEST(PhasedSchedulerPins, ConservativeDayFirstFitNightAcrossOutages) {
  // 96 of 256 nodes are down from Monday 18:00 to 23:00 (across the 20:00
  // flip to the night pair) and 128 from Tuesday 06:00 to 09:00 (across
  // the 07:00 flip back), so each flip hands over during an outage and the
  // incoming dispatcher must be told the reduced capacity.
  workload::CtcModelParams p;
  p.job_count = 600;
  const auto w = workload::trim_to_machine(workload::generate_ctc(p, 7), 256);
  const fault::FailureTrace trace = fault::make_failure_trace(
      {{18 * kHour, -96},
       {23 * kHour, 96},
       {kDay + 6 * kHour, -128},
       {kDay + 9 * kHour, 128}},
      256);
  struct Pin {
    fault::RecoveryPolicy policy;
    std::uint64_t fnv;
    std::size_t flips;
  };
  const Pin pins[] = {
      {fault::RecoveryPolicy::kRequeueFromScratch, 0x6358b8c30bbf835full, 6},
      {fault::RecoveryPolicy::kCheckpointRestart, 0x6528b3a8325738ebull, 6},
  };
  for (const Pin& pin : pins) {
    PhasedScheduler s(day_window(), std::make_unique<FcfsOrder>(),
                      std::make_unique<ConservativeBackfillDispatch>(),
                      std::make_unique<FcfsOrder>(),
                      std::make_unique<FirstFitDispatch>());
    sim::Machine m;
    m.nodes = 256;
    sim::SimOptions options;
    options.faults.trace = &trace;
    options.faults.recovery = {pin.policy, 30 * kMinute, kMinute};
    const auto schedule = sim::simulate(m, s, w, options);
    ASSERT_FALSE(schedule.attempts.empty());
    EXPECT_EQ(sim::schedule_fingerprint(schedule), pin.fnv)
        << std::hex << sim::schedule_fingerprint(schedule);
    EXPECT_EQ(s.phase_flips(), pin.flips);
  }
}

}  // namespace
}  // namespace jsched::core
