#include "test_support.h"

#include <unistd.h>

#include <cstdio>

#include <gtest/gtest.h>

namespace jsched::test {

Job make_job(Time submit, int nodes, Duration runtime, Duration estimate) {
  Job j;
  j.submit = submit;
  j.nodes = nodes;
  j.runtime = runtime;
  j.estimate = estimate == 0 ? runtime : estimate;
  return j;
}

workload::Workload make_workload(std::vector<Job> jobs) {
  return workload::Workload(std::move(jobs), "test");
}

sim::Schedule run(const core::AlgorithmSpec& spec, const workload::Workload& w,
                  int nodes) {
  sim::Machine m;
  m.nodes = nodes;
  auto scheduler = core::make_scheduler(spec);
  return sim::simulate(m, *scheduler, w);
}

std::uint64_t run_fingerprint(const core::AlgorithmSpec& spec,
                              const workload::Workload& w, int nodes) {
  return sim::schedule_fingerprint(run(spec, w, nodes));
}

workload::Workload small_mixed_workload() {
  // Designed around a 16-node machine: a wide job blocks the queue while
  // narrow jobs could backfill; estimates over-state runtimes to exercise
  // early completions.
  return make_workload({
      make_job(0, 8, 100, 120),     // 0: starts immediately
      make_job(0, 8, 50, 200),      // 1: starts immediately
      make_job(10, 16, 80, 100),    // 2: full-machine job, must wait
      make_job(20, 2, 30, 40),      // 3: backfill candidate
      make_job(25, 2, 500, 600),    // 4: long narrow job
      make_job(30, 12, 60, 90),     // 5
      make_job(40, 1, 10, 3600),    // 6: tiny job, wild over-estimate
      make_job(200, 4, 100, 150),   // 7
      make_job(210, 16, 40, 50),    // 8: another full-machine job
      make_job(220, 1, 20, 30),     // 9
  });
}

TempFile::TempFile(const std::string& stem, const std::string& extension) {
  static int counter = 0;
  std::string test = "none";
  if (const auto* info =
          ::testing::UnitTest::GetInstance()->current_test_info()) {
    test = std::string(info->test_suite_name()) + "." + info->name();
  }
  for (char& c : test) {
    if (c == '/') c = '_';  // parameterized names
  }
  path_ = ::testing::TempDir() + stem + "-" + std::to_string(counter++) +
          "-" + std::to_string(::getpid()) + "-" + test + extension;
  std::remove(path_.c_str());
}

TempFile::~TempFile() { std::remove(path_.c_str()); }

}  // namespace jsched::test
