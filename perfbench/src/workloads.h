// The benchmark's four workloads.
//
// All run on one thread against a 256-node machine. A run sets its inputs
// up from the seed (several times, to time set-up), then runs *passes*
// while one more, as long as the longest so far, ends within the time
// budget (at least one pass):
//
//  * grid_ctc       one pass = the paper's 13-configuration unit-weight
//                   grid through eval::run_grid over the CTC-model trace
//                   trimmed to the machine;
//  * stream_ctc     one pass = one multi-million-job CtcJobSource streamed
//                   through sim::simulate_stream with FCFS+EASY into a
//                   metrics::StreamingAggregator;
//  * serve_cons_4x  one pass = serve::serve in free-run mode with FCFS+CONS
//                   over a 20,000-job Poisson stream at 4x capacity;
//  * serve_easy_4x  the same with FCFS+EASY.
//
// Pass k of stream_ctc and the serve workloads draws its inputs from
// pass_seed(seed, k); pass 0 uses the workload seed itself. Every grid
// pass replays the same trace.
//
// A traced run first makes untraced passes for half the budget, then
// repeats exactly those passes traced, and reports per-layer metrics from
// the traced half plus the tracing overhead between the two.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace jsched::util {
class LatencyHistogram;
}

namespace perfbench {

enum class WorkloadKind { kGridCtc, kStreamCtc, kServeCons4x, kServeEasy4x };

std::optional<WorkloadKind> parse_workload(std::string_view name);
const char* workload_name(WorkloadKind kind);

/// Input sizes. The defaults define the benchmark; tests shrink them.
struct Sizes {
  std::size_t grid_jobs = 79'164;  // CTC-model trace, before trimming
  std::size_t stream_jobs = 2'000'000;
  std::size_t serve_jobs = 20'000;
  int nodes = 256;
};

struct RunConfig {
  WorkloadKind workload = WorkloadKind::kGridCtc;
  std::uint64_t seed = 19'990'412;
  double seconds = 10.0;
  bool trace = false;
  Sizes sizes;
};

/// Seed of pass k: the workload seed for k = 0, a splitmix64 mix after.
std::uint64_t pass_seed(std::uint64_t seed, std::size_t k);

/// Quantile `q` of `h`, interpolated within its bucket as if the bucket's
/// samples were spread evenly over it. LatencyHistogram::quantile gives the
/// bucket's upper bound, which moves in steps of up to 3%, so a run-level
/// figure built from it can read the same on every run.
double interpolated_quantile_ns(const jsched::util::LatencyHistogram& h,
                                double q);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  // sample counts and bases, for the human-readable lines
};

/// What one pass produced: its input seed and size and the fingerprints of
/// its schedules (13 for a grid pass, one otherwise; 0 marks a failure).
struct PassRecord {
  std::uint64_t seed = 0;
  std::size_t size = 0;
  std::vector<std::uint64_t> fingerprints;
};

struct RunReport {
  std::vector<PassRecord> passes;  // untraced passes
  std::vector<PassRecord> traced;  // traced passes (traced runs only)
  /// Operations attempted and failed: grid cells for grid_ctc, offered jobs
  /// otherwise. Throws, sheds, rejections, lost jobs, fingerprints that
  /// differ between repeated or traced passes all count as failures.
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> problems;
  std::vector<Metric> metrics;
};

/// Run one workload. A traced run writes its spans to `trace_path` unless
/// it is empty; `host_fields` (a JSON object body) heads that file.
RunReport run_workload(const RunConfig& cfg, const std::string& trace_path = {},
                       const std::string& host_fields = {});

}  // namespace perfbench
