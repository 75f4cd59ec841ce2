#include "sim/schedule.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "test_support.h"

namespace jsched::sim {
namespace {

using test::make_job;

Machine machine(int nodes) {
  Machine m;
  m.nodes = nodes;
  return m;
}

TEST(Schedule, RecordsRoundTrip) {
  Schedule s(machine(8), 2, "X");
  s.record_start(0, 5, 10, 4);
  s.record_end(0, 30, false);
  EXPECT_EQ(s[0].wait(), 5);
  EXPECT_EQ(s[0].response(), 25);
  EXPECT_EQ(s.scheduler_name(), "X");
}

TEST(Schedule, MakespanIsLastCompletion) {
  Schedule s(machine(8), 2, "X");
  s.record_start(0, 0, 0, 1);
  s.record_end(0, 100, false);
  s.record_start(1, 0, 50, 1);
  s.record_end(1, 80, false);
  EXPECT_EQ(s.makespan(), 100);
}

class ValidateTest : public ::testing::Test {
 protected:
  workload::Workload w_ = test::make_workload({
      make_job(0, 4, 20, 30),   // job 0
      make_job(5, 6, 10, 10),   // job 1
  });
  Schedule s_{machine(8), 2, "X"};
};

TEST_F(ValidateTest, AcceptsValidSchedule) {
  s_.record_start(0, 0, 0, 4);
  s_.record_end(0, 20, false);
  s_.record_start(1, 5, 20, 6);
  s_.record_end(1, 30, false);
  EXPECT_NO_THROW(validate_schedule(s_, w_));
}

TEST_F(ValidateTest, AcceptsBackToBackAtFullCapacity) {
  // Job 1 starts exactly when job 0's nodes free up: 4+6 > 8 would overlap,
  // but end-at-t release before start-at-t acquire makes this valid.
  s_.record_start(0, 0, 0, 4);
  s_.record_end(0, 20, false);
  s_.record_start(1, 5, 20, 6);
  s_.record_end(1, 30, false);
  EXPECT_NO_THROW(validate_schedule(s_, w_));
}

TEST_F(ValidateTest, RejectsCapacityViolation) {
  s_.record_start(0, 0, 0, 4);
  s_.record_end(0, 20, false);
  s_.record_start(1, 5, 10, 6);  // overlaps job 0: 10 > 8 nodes
  s_.record_end(1, 20, false);
  EXPECT_THROW(validate_schedule(s_, w_), std::logic_error);
}

TEST_F(ValidateTest, RejectsStartBeforeSubmit) {
  s_.record_start(0, 0, 0, 4);
  s_.record_end(0, 20, false);
  s_.record_start(1, 5, 2, 6);
  s_.record_end(1, 12, false);
  EXPECT_THROW(validate_schedule(s_, w_), std::logic_error);
}

TEST_F(ValidateTest, RejectsWrongRuntime) {
  s_.record_start(0, 0, 0, 4);
  s_.record_end(0, 25, false);  // ran 25, runtime is 20 (no time sharing)
  s_.record_start(1, 5, 25, 6);
  s_.record_end(1, 35, false);
  EXPECT_THROW(validate_schedule(s_, w_), std::logic_error);
}

TEST_F(ValidateTest, RejectsUnfinishedJob) {
  s_.record_start(0, 0, 0, 4);
  s_.record_end(0, 20, false);
  s_.record_start(1, 5, 20, 6);  // never ended
  EXPECT_THROW(validate_schedule(s_, w_), std::logic_error);
}

TEST_F(ValidateTest, RejectsNodeMismatch) {
  s_.record_start(0, 0, 0, 5);  // job 0 asked for 4
  s_.record_end(0, 20, false);
  s_.record_start(1, 5, 20, 6);
  s_.record_end(1, 30, false);
  EXPECT_THROW(validate_schedule(s_, w_), std::logic_error);
}

TEST_F(ValidateTest, RejectsJobCountMismatch) {
  Schedule s(machine(8), 1, "X");
  EXPECT_THROW(validate_schedule(s, w_), std::logic_error);
}

TEST(ValidateCancellation, AcceptsCancellationAtTheLimit) {
  // Runtime 80 exceeds the 50 s estimate: Rule 2 cancels at start+50.
  const workload::Workload w =
      test::make_workload({make_job(0, 2, 80, 50)});
  Schedule s(machine(8), 1, "X");
  s.record_start(0, 0, 0, 2);
  s.record_end(0, 50, true);
  EXPECT_NO_THROW(validate_schedule(s, w));
}

TEST(ValidateCancellation, RejectsCancellationElsewhere) {
  const workload::Workload w =
      test::make_workload({make_job(0, 2, 80, 50)});
  Schedule s(machine(8), 1, "X");
  s.record_start(0, 0, 0, 2);
  s.record_end(0, 40, true);  // cancelled before the limit
  EXPECT_THROW(validate_schedule(s, w), std::logic_error);
}

TEST(ValidateCancellation, RejectsCancellingAFittingJob) {
  const workload::Workload w =
      test::make_workload({make_job(0, 2, 30, 50)});
  Schedule s(machine(8), 1, "X");
  s.record_start(0, 0, 0, 2);
  s.record_end(0, 50, true);  // claims cancellation though 30 <= 50
  EXPECT_THROW(validate_schedule(s, w), std::logic_error);
}

// --- fault-injected schedules ---------------------------------------------

/// The message of the ValidationError `validate_schedule` throws, or ""
/// when it accepts the schedule.
std::string verdict(const Schedule& s, const workload::Workload& w) {
  try {
    validate_schedule(s, w);
  } catch (const ValidationError& e) {
    return e.what();
  }
  return "";
}

class ValidateFaultyTest : public ValidateTest {
 protected:
  // Job 0 is killed at 10 when 4 of the 8 nodes fail, restarts from
  // scratch on the surviving 4 and runs its full 20 s; job 1 (6 nodes)
  // starts once the nodes are back at 30.
  void SetUp() override {
    s_.attempts.push_back({0, 0, 10, 4, 0});
    s_.record_start(0, 0, 10, 4);
    s_.record_end(0, 30, false);
    s_.record_start(1, 5, 30, 6);
    s_.record_end(1, 40, false);
    s_.capacity_events = {{10, 4}, {30, 8}};
  }
};

TEST_F(ValidateFaultyTest, AcceptsValidSchedule) {
  EXPECT_EQ(verdict(s_, w_), "");
}

TEST_F(ValidateFaultyTest, RejectsAttemptOverlappingTheFinalAttempt) {
  s_.attempts[0].end = 15;  // still running when the final attempt starts
  EXPECT_EQ(verdict(s_, w_),
            "schedule: attempt of job 0: killed attempt overlaps the final "
            "attempt");
}

TEST_F(ValidateFaultyTest, RejectsSavedWorkOutsideTheAttempt) {
  s_.attempts[0].saved = 11;  // the attempt ran only 10 s
  EXPECT_EQ(verdict(s_, w_),
            "schedule: attempt of job 0: saved work outside the attempt");
  s_.attempts[0].saved = -1;
  EXPECT_EQ(verdict(s_, w_),
            "schedule: attempt of job 0: saved work outside the attempt");
}

TEST_F(ValidateFaultyTest, RejectsExecutingLessThanTheLifetime) {
  s_.record_end(0, 19, false);  // 10 + 9 s executed; runtime is 20
  EXPECT_EQ(verdict(s_, w_),
            "schedule: job 0: executed less than its lifetime");
}

TEST_F(ValidateFaultyTest, RejectsCapacityExceededAfterAStep) {
  s_.capacity_events[0].second = 3;  // job 0's restart needs 4
  EXPECT_EQ(verdict(s_, w_), "schedule: node capacity exceeded at time 10");
}

TEST_F(ValidateFaultyTest, RejectsAttemptOfAnUnknownJob) {
  s_.attempts.push_back({7, 0, 5, 1, 0});
  EXPECT_EQ(verdict(s_, w_), "schedule: attempt of job 7: unknown job");
}

}  // namespace
}  // namespace jsched::sim
