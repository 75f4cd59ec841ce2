// Differential witness for the queue-order fit index behind EASY and first
// fit: on randomized scheduler-shaped event sequences, the indexed
// dispatchers must return exactly the starts of the linear scans they
// replaced, at every select. The linear scans live only here, as the
// executable specification. Also pins the hook contract: a dispatcher
// whose index missed a hook throws instead of scheduling from stale state.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/dispatch.h"
#include "core/drain_window.h"
#include "core/easy_backfill.h"
#include "core/list_scheduler.h"
#include "core/ordering.h"
#include "core/phased_scheduler.h"
#include "core/psrs.h"
#include "core/smart.h"
#include "fault/failure_model.h"
#include "fault/fault.h"
#include "sim/simulator.h"
#include "test_support.h"

namespace jsched::core {
namespace {

// ------------------------------------------------------ linear oracles

/// EASY backfilling as a full scan of the queue behind the head.
class LinearEasy final : public Dispatcher {
 public:
  std::string name() const override { return "EASY"; }
  void reset(const sim::Machine&, const JobStore& store) override {
    store_ = &store;
  }
  void select(Time now, int free_nodes, const std::vector<JobId>& order,
              const std::vector<RunningJob>& running,
              std::vector<JobId>& starts) override {
    starts.clear();
    std::size_t head = 0;
    while (head < order.size()) {
      const Job& j = store_->get(order[head]);
      if (j.nodes > free_nodes) break;
      free_nodes -= j.nodes;
      starts.push_back(order[head]);
      ++head;
    }
    if (head >= order.size()) return;

    std::vector<RunningJob> active(running.begin(), running.end());
    for (JobId id : starts) {
      const Job& j = store_->get(id);
      active.push_back({id, now, now + j.estimate, j.nodes});
    }
    const Job& head_job = store_->get(order[head]);
    std::sort(active.begin(), active.end(),
              [](const RunningJob& a, const RunningJob& b) {
                return a.estimated_end < b.estimated_end;
              });
    Time shadow = now;
    int avail = free_nodes;
    for (const auto& r : active) {
      if (avail >= head_job.nodes) break;
      avail += r.nodes;
      shadow = r.estimated_end;
    }
    int extra = avail - head_job.nodes;

    for (std::size_t i = head + 1; i < order.size() && free_nodes > 0; ++i) {
      const Job& j = store_->get(order[i]);
      if (j.nodes > free_nodes) continue;
      const bool ends_before_shadow = now + j.estimate <= shadow;
      if (ends_before_shadow || j.nodes <= extra) {
        free_nodes -= j.nodes;
        if (!ends_before_shadow) extra -= j.nodes;
        starts.push_back(order[i]);
      }
    }
  }

 private:
  const JobStore* store_ = nullptr;
};

/// Garey & Graham first fit as a full scan of the queue.
class LinearFirstFit final : public Dispatcher {
 public:
  std::string name() const override { return "FF"; }
  void reset(const sim::Machine&, const JobStore& store) override {
    store_ = &store;
  }
  void select(Time, int free_nodes, const std::vector<JobId>& order,
              const std::vector<RunningJob>&,
              std::vector<JobId>& starts) override {
    starts.clear();
    for (JobId id : order) {
      if (free_nodes == 0) break;
      const int need = store_->get(id).nodes;
      if (need <= free_nodes) {
        free_nodes -= need;
        starts.push_back(id);
      }
    }
  }

 private:
  const JobStore* store_ = nullptr;
};

// --------------------------------------------------- side-by-side twin

struct TwinStats {
  std::size_t events = 0;  // hooks delivered plus selects
  std::size_t selects = 0;
  std::size_t started = 0;
  std::size_t reorders = 0;
  std::size_t adoptions = 0;
  std::size_t max_queue = 0;
  std::size_t empty_queue_selects = 0;
  std::size_t mismatches = 0;
  std::string first_mismatch;
};

/// Forwards every hook to the indexed dispatcher and to its linear oracle,
/// and compares their starts element for element at every select.
class Twin final : public Dispatcher {
 public:
  Twin(std::unique_ptr<Dispatcher> indexed, std::unique_ptr<Dispatcher> oracle,
       TwinStats& stats)
      : indexed_(std::move(indexed)), oracle_(std::move(oracle)),
        stats_(stats) {}

  std::string name() const override { return indexed_->name(); }
  void reset(const sim::Machine& m, const JobStore& store) override {
    indexed_->reset(m, store);
    oracle_->reset(m, store);
  }
  void on_enqueue(JobId id, Time now) override {
    ++stats_.events;
    indexed_->on_enqueue(id, now);
    oracle_->on_enqueue(id, now);
  }
  void on_start(JobId id, Time now) override {
    ++stats_.events;
    ++stats_.started;
    indexed_->on_start(id, now);
    oracle_->on_start(id, now);
  }
  void on_complete(JobId id, Time now, Time estimated_end,
                   const std::vector<JobId>& order) override {
    ++stats_.events;
    indexed_->on_complete(id, now, estimated_end, order);
    oracle_->on_complete(id, now, estimated_end, order);
  }
  void on_reorder(const std::vector<JobId>& order, Time now) override {
    ++stats_.events;
    ++stats_.reorders;
    indexed_->on_reorder(order, now);
    oracle_->on_reorder(order, now);
  }
  void on_capacity_change(Time now, int available_nodes,
                          const std::vector<JobId>& order,
                          const std::vector<RunningJob>& running) override {
    ++stats_.events;
    indexed_->on_capacity_change(now, available_nodes, order, running);
    oracle_->on_capacity_change(now, available_nodes, order, running);
  }
  void adopt(Time now, const std::vector<JobId>& order,
             const std::vector<RunningJob>& running) override {
    ++stats_.events;
    ++stats_.adoptions;
    indexed_->adopt(now, order, running);
    oracle_->adopt(now, order, running);
  }
  void select(Time now, int free_nodes, const std::vector<JobId>& order,
              const std::vector<RunningJob>& running,
              std::vector<JobId>& starts) override {
    ++stats_.events;
    ++stats_.selects;
    stats_.max_queue = std::max(stats_.max_queue, order.size());
    if (order.empty()) ++stats_.empty_queue_selects;
    indexed_->select(now, free_nodes, order, running, starts);
    oracle_->select(now, free_nodes, order, running, expected_);
    if (starts != expected_ && stats_.mismatches++ == 0) {
      std::ostringstream os;
      os << "select #" << stats_.selects << " at t=" << now << " free="
         << free_nodes << " queue=" << order.size() << ": indexed {";
      for (JobId id : starts) os << ' ' << id;
      os << " } vs linear {";
      for (JobId id : expected_) os << ' ' << id;
      os << " }";
      stats_.first_mismatch = os.str();
    }
  }

 private:
  std::unique_ptr<Dispatcher> indexed_;
  std::unique_ptr<Dispatcher> oracle_;
  TwinStats& stats_;
  std::vector<JobId> expected_;
};

std::unique_ptr<Dispatcher> easy_twin(TwinStats& stats) {
  return std::make_unique<Twin>(std::make_unique<EasyBackfillDispatch>(),
                                std::make_unique<LinearEasy>(), stats);
}

std::unique_ptr<Dispatcher> first_fit_twin(TwinStats& stats) {
  return std::make_unique<Twin>(std::make_unique<FirstFitDispatch>(),
                                std::make_unique<LinearFirstFit>(), stats);
}

// ------------------------------------------------------------ workloads

/// Bursty arrivals separated by quiet spells long enough for the queue to
/// drain to zero, widths skewed narrow with occasional near-machine jobs,
/// runtimes over three orders of magnitude, estimates from exact to wild,
/// a few estimates beyond 32 bits (saturated summaries), and priority
/// classes for PRIO-FCFS.
workload::Workload random_workload(std::uint64_t seed, std::size_t jobs,
                                   int machine_nodes, double mean_gap,
                                   bool huge_estimates = true) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> uni(0.0, 1.0);
  std::vector<Job> js;
  js.reserve(jobs);
  Time t = 0;
  for (std::size_t i = 0; i < jobs; ++i) {
    if (uni(rng) < 0.004) t += 40 * kHour;  // idle: the queue drains
    if (uni(rng) > 0.3) t += static_cast<Time>(uni(rng) * 2.0 * mean_gap);
    const int nodes =
        1 + static_cast<int>((machine_nodes - 1) * std::pow(uni(rng), 2.5));
    const auto runtime =
        static_cast<Duration>(1.0 + uni(rng) * uni(rng) * 7200.0);
    Duration estimate = runtime;
    const double e = uni(rng);
    if (huge_estimates && e < 0.01) {
      estimate = 6'000'000'000LL;  // past any 32-bit summary
    } else if (e > 0.35) {
      estimate = static_cast<Duration>(static_cast<double>(runtime) *
                                       (1.0 + 9.0 * uni(rng)));
    }
    Job j = test::make_job(t, nodes, runtime, estimate);
    j.priority_class = uni(rng) < 0.15 ? static_cast<std::int32_t>(1 + i % 2) : 0;
    js.push_back(j);
  }
  return test::make_workload(std::move(js));
}

struct Case {
  std::string label;
  TwinStats stats;
};

void expect_identical(const Case& c, std::size_t min_events = 10'000) {
  EXPECT_EQ(c.stats.mismatches, 0u) << c.label << ": " << c.stats.first_mismatch;
  EXPECT_GT(c.stats.events, min_events) << c.label;
  EXPECT_GT(c.stats.started, 0u) << c.label;
}

sim::Schedule simulate(sim::Scheduler& s, const workload::Workload& w,
                       int nodes, const sim::SimOptions& options = {}) {
  sim::Machine m;
  m.nodes = nodes;
  return sim::simulate(m, s, w, options);
}

std::unique_ptr<OrderingPolicy> make_order(const std::string& kind) {
  if (kind == "FCFS") return std::make_unique<FcfsOrder>();
  if (kind == "PRIO-FCFS") return std::make_unique<PriorityFcfsOrder>();
  if (kind == "SMART-FFIA" || kind == "SMART-NFIW") {
    SmartParams p;
    p.variant = kind == "SMART-FFIA" ? SmartVariant::kFfia : SmartVariant::kNfiw;
    return std::make_unique<SmartOrder>(p);
  }
  return std::make_unique<PsrsOrder>(PsrsParams{});
}

// ----------------------------------------------------------------- tests

TEST(EasyIndexDifferential, ListSchedulerOrdersMatchLinearScan) {
  // FCFS appends; PRIO-FCFS mid-queue inserts arrive as on_reorder; SMART
  // and PSRS replans arrive as on_reorder of the whole queue. A 32-node
  // machine under this load keeps a queue hundreds deep, so the slot
  // array grows past its minimum capacity, compacts, and drains to zero
  // in the idle spells.
  for (const std::string order :
       {"FCFS", "PRIO-FCFS", "SMART-FFIA", "SMART-NFIW", "PSRS"}) {
    for (const bool easy : {true, false}) {
      for (std::uint64_t seed : {3u, 17u}) {
        Case c{order + (easy ? "+EASY" : "+FF") + " seed " +
                   std::to_string(seed),
               {}};
        const auto w = random_workload(seed, 2500, 32, 60.0);
        ListScheduler s(make_order(order),
                        easy ? easy_twin(c.stats) : first_fit_twin(c.stats));
        simulate(s, w, 32);
        expect_identical(c);
        EXPECT_GT(c.stats.max_queue, 256u) << c.label;
        EXPECT_GT(c.stats.empty_queue_selects, 0u) << c.label;
        if (order != "FCFS") {
          EXPECT_GT(c.stats.reorders, 0u) << c.label;
        }
      }
    }
  }
}

TEST(EasyIndexDifferential, DrainWindowVetoesStayQueued) {
  // Vetoed picks get no on_start, so they must stay live in the index.
  // (No 32-bit-overflowing estimates here: such a job crosses every
  // future window, so it could never start.)
  PhaseWindow drain{10 * kHour, 11 * kHour, false};
  for (const bool easy : {true, false}) {
    Case c{easy ? "DRAIN(EASY)" : "DRAIN(FF)", {}};
    const auto w = random_workload(29, 3000, 32, 60.0, false);
    auto inner = easy ? easy_twin(c.stats) : first_fit_twin(c.stats);
    auto drain_dispatch =
        std::make_unique<DrainWindowDispatch>(std::move(inner), drain);
    const DrainWindowDispatch* d = drain_dispatch.get();
    ListScheduler s(std::make_unique<FcfsOrder>(), std::move(drain_dispatch));
    simulate(s, w, 32);
    expect_identical(c);
    EXPECT_GT(d->vetoed(), 0u) << c.label;
  }
}

TEST(EasyIndexDifferential, PhaseFlipsRebuildTheStaleDispatcher) {
  // The inactive dispatcher receives no hooks and goes stale; adopt()
  // must rebuild it from the queue on every flip.
  Case c{"day[SMART+EASY]/night[FCFS+FF]", {}};
  const auto w = random_workload(41, 4000, 32, 90.0);
  PhasedScheduler s(PhaseWindow{7 * kHour, 20 * kHour, false},
                    make_order("SMART-FFIA"), easy_twin(c.stats),
                    make_order("FCFS"), first_fit_twin(c.stats));
  simulate(s, w, 32);
  expect_identical(c);
  EXPECT_GT(s.phase_flips(), 4u);
  EXPECT_GE(c.stats.adoptions, s.phase_flips());
}

TEST(EasyIndexDifferential, FaultResubmissionsAndCapacityChanges) {
  // Kills re-submit the same job id while its old slot is a tombstone;
  // capacity drops hand select() fewer nodes than the running set frees.
  fault::FailureModelParams params;
  params.nodes = 32;
  params.horizon = 30 * kDay;
  params.mtbf = 2.0 * static_cast<double>(kDay);
  params.mttr = 2.0 * static_cast<double>(kHour);
  const fault::FailureTrace trace = fault::generate_failures(params, 5);
  ASSERT_FALSE(trace.empty());
  for (const fault::RecoveryPolicy policy :
       {fault::RecoveryPolicy::kRequeueFromScratch,
        fault::RecoveryPolicy::kCheckpointRestart}) {
    for (const std::string order : {"FCFS", "PSRS"}) {
      for (const bool easy : {true, false}) {
        Case c{order + (easy ? "+EASY" : "+FF") + " faults", {}};
        const auto w = random_workload(53, 2500, 32, 60.0);
        ListScheduler s(make_order(order),
                        easy ? easy_twin(c.stats) : first_fit_twin(c.stats));
        sim::SimOptions options;
        options.faults.trace = &trace;
        options.faults.recovery = {policy, kHour, kMinute};
        simulate(s, w, 32, options);
        expect_identical(c);
      }
    }
  }
  // Phase flips during outages re-deliver capacity after adopt().
  Case c{"phased faults", {}};
  const auto w = random_workload(61, 2500, 32, 90.0);
  PhasedScheduler s(PhaseWindow{7 * kHour, 20 * kHour, false},
                    make_order("PSRS"), easy_twin(c.stats), make_order("FCFS"),
                    first_fit_twin(c.stats));
  sim::SimOptions options;
  options.faults.trace = &trace;
  simulate(s, w, 32, options);
  expect_identical(c);
}

TEST(EasyIndexDifferential, RandomHookSequencesAtCapacityBoundaries) {
  // Drives the dispatchers directly, without a simulator, so queue
  // lengths sweep through every growth and compaction boundary of the
  // slot array (powers of two from 64 up) and down to zero repeatedly.
  std::mt19937_64 rng(97);
  std::uniform_real_distribution<double> uni(0.0, 1.0);
  sim::Machine machine;
  machine.nodes = 64;
  for (const bool easy : {true, false}) {
    Case c{easy ? "direct EASY" : "direct FF", {}};
    JobStore store;
    auto d = easy ? easy_twin(c.stats) : first_fit_twin(c.stats);
    d->reset(machine, store);
    std::vector<JobId> order;
    std::vector<RunningJob> running;
    std::vector<JobId> starts;
    JobId next_id = 0;
    Time now = 0;
    // Queue depths to steer toward, phase by phase: across capacity
    // boundaries, deep enough to grow the array twice, and down to zero.
    const std::size_t targets[] = {700, 0, 1100, 63, 64, 65, 0, 300, 129, 0};
    std::size_t target = 0;
    for (int step = 0; step < 12'000; ++step) {
      if (step % 1200 == 0) target = targets[step / 1200];
      now += static_cast<Time>(uni(rng) * 30);
      // Arrivals push the queue toward the target depth.
      while (order.size() < target && uni(rng) < 0.95) {
        Job j;
        j.id = next_id++;
        j.nodes = 1 + static_cast<int>(63 * std::pow(uni(rng), 2.0));
        j.estimate = 1 + static_cast<Duration>(uni(rng) * 5000);
        j.runtime = 0;
        store.put(j);
        order.push_back(j.id);
        d->on_enqueue(j.id, now);
      }
      // A shuffle of the tail now and then (a replan).
      if (uni(rng) < 0.02 && order.size() > 2) {
        std::shuffle(order.begin() + 1, order.end(), rng);
        d->on_reorder(order, now);
      }
      // Completions free nodes; more of them when the queue is over target.
      int busy = 0;
      for (const RunningJob& r : running) busy += r.nodes;
      while (!running.empty() &&
             (uni(rng) < 0.3 || order.size() > target)) {
        const std::size_t k = static_cast<std::size_t>(uni(rng) *
                                                       static_cast<double>(running.size()));
        const RunningJob r = running[std::min(k, running.size() - 1)];
        running.erase(running.begin() +
                      static_cast<std::ptrdiff_t>(std::min(k, running.size() - 1)));
        busy -= r.nodes;
        d->on_complete(r.id, now, r.estimated_end, order);
        store.erase(r.id);
        if (uni(rng) < 0.5) break;
      }
      d->select(now, machine.nodes - busy, order, running, starts);
      for (JobId id : starts) {
        order.erase(std::find(order.begin(), order.end(), id));
        d->on_start(id, now);
        const Job& j = store.get(id);
        running.push_back({id, now, now + j.estimate, j.nodes});
      }
    }
    expect_identical(c);
    EXPECT_GT(c.stats.max_queue, 600u) << c.label;
    EXPECT_GT(c.stats.empty_queue_selects, 0u) << c.label;
  }
}

// ---------------------------------------------------------- hook contract

class FitIndexContract : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    machine_.nodes = 8;
    if (GetParam()) {
      d_ = std::make_unique<EasyBackfillDispatch>();
    } else {
      d_ = std::make_unique<FirstFitDispatch>();
    }
    d_->reset(machine_, store_);
  }

  JobId enqueue(int nodes, Duration estimate, bool notify = true) {
    Job j;
    j.id = next_id_++;
    j.nodes = nodes;
    j.estimate = estimate;
    j.runtime = 0;
    store_.put(j);
    order_.push_back(j.id);
    if (notify) d_->on_enqueue(j.id, 0);
    return j.id;
  }

  void select(int free_nodes) {
    d_->select(0, free_nodes, order_, running_, starts_);
  }

  sim::Machine machine_;
  JobStore store_;
  std::unique_ptr<Dispatcher> d_;
  std::vector<JobId> order_;
  std::vector<RunningJob> running_;
  std::vector<JobId> starts_;
  JobId next_id_ = 0;
};

TEST_P(FitIndexContract, MissedEnqueueThrows) {
  enqueue(2, 10);
  enqueue(2, 10, /*notify=*/false);
  EXPECT_THROW(select(8), std::logic_error);
}

TEST_P(FitIndexContract, MissedStartThrows) {
  enqueue(2, 10);
  enqueue(2, 10);
  select(2);
  ASSERT_EQ(starts_.size(), 1u);
  // The caller removes the started job from its queue but never reports
  // the start: the next select must not schedule from the stale index.
  order_.erase(order_.begin());
  EXPECT_THROW(select(8), std::logic_error);
}

TEST_P(FitIndexContract, StartOfUnpickedJobThrows) {
  const JobId a = enqueue(2, 10);
  const JobId b = enqueue(6, 10);
  select(2);
  ASSERT_EQ(starts_, std::vector<JobId>{a});
  EXPECT_THROW(d_->on_start(b, 0), std::logic_error);
  d_->on_start(a, 0);
  EXPECT_THROW(d_->on_start(a, 0), std::logic_error);  // reported twice
}

TEST_P(FitIndexContract, VetoedPickStaysQueued) {
  const JobId a = enqueue(2, 10);
  const JobId b = enqueue(2, 10);
  select(4);
  ASSERT_EQ(starts_, (std::vector<JobId>{a, b}));
  d_->on_start(b, 0);  // a was vetoed by a decorator: still queued
  order_.erase(order_.begin() + 1);
  select(2);
  EXPECT_EQ(starts_, std::vector<JobId>{a});
}

TEST(FitIndexContractEasy, MissedReorderThrows) {
  // Same jobs, new order, no on_reorder: the live count still matches, but
  // the blocked head is not where the index has it.
  sim::Machine machine;
  machine.nodes = 8;
  JobStore store;
  EasyBackfillDispatch d;
  d.reset(machine, store);
  std::vector<JobId> order;
  for (JobId id = 0; id < 3; ++id) {
    Job j;
    j.id = id;
    j.nodes = 4 + static_cast<int>(id);
    j.estimate = 100;
    j.runtime = 0;
    store.put(j);
    order.push_back(id);
    d.on_enqueue(id, 0);
  }
  std::vector<JobId> starts;
  d.select(0, 1, order, {}, starts);
  EXPECT_TRUE(starts.empty());
  std::swap(order[0], order[2]);
  EXPECT_THROW(d.select(0, 1, order, {}, starts), std::logic_error);
  d.on_reorder(order, 0);
  EXPECT_NO_THROW(d.select(0, 1, order, {}, starts));
}

INSTANTIATE_TEST_SUITE_P(EasyAndFirstFit, FitIndexContract,
                         ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& p) {
                           return p.param ? "Easy" : "FirstFit";
                         });

}  // namespace
}  // namespace jsched::core
