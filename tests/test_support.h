// Shared fixtures and builders for the test suite.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/factory.h"
#include "sim/machine.h"
#include "sim/schedule.h"
#include "sim/simulator.h"
#include "workload/workload.h"

namespace jsched::test {

/// Shorthand job builder (id assigned by Workload::finalize).
Job make_job(Time submit, int nodes, Duration runtime, Duration estimate = 0);

/// Build a finalized workload from jobs (estimates default to runtimes).
workload::Workload make_workload(std::vector<Job> jobs);

/// Simulate `spec` over `w` on an `nodes`-wide machine with validation on.
sim::Schedule run(const core::AlgorithmSpec& spec, const workload::Workload& w,
                  int nodes = 16);

/// A small mixed workload exercising queueing, backfilling holes and
/// over-estimation; deterministic.
workload::Workload small_mixed_workload();

/// Simulate `spec` over `w` and return the schedule's FNV-1a fingerprint
/// (sim::schedule_fingerprint). Two runs producing the same fingerprint
/// scheduled every job bit-identically — the one-assert witness used by
/// the golden-grid regression test and by future optimization PRs.
std::uint64_t run_fingerprint(const core::AlgorithmSpec& spec,
                              const workload::Workload& w, int nodes = 16);

/// A scratch file unique to the running test, removed on construction and
/// destruction. Its path is the gtest temp dir plus `stem`, a per-process
/// counter (one test may hold several files with the same stem), the
/// process id and the current test's full name, then `extension`: ctest
/// runs every case as its own process, in parallel under -j, so a path
/// shared between cases is a race.
class TempFile {
 public:
  explicit TempFile(const std::string& stem,
                    const std::string& extension = ".journal");
  ~TempFile();
  TempFile(const TempFile&) = delete;
  TempFile& operator=(const TempFile&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

}  // namespace jsched::test
