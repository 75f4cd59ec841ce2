// jsched_perfbench: run one benchmark workload and report its metrics.
//
//   jsched_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                    [--trace-out PATH]
//
// Prints the host block and any problems found, then, as the last line,
// one JSON object carrying the pass fingerprints, the attempted/failed
// counts and every metric with its unit. perfbench/run.py builds this
// program, checks the fingerprints against perfbench/pins.json and prints
// the benchmark's result line.
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "host.h"
#include "workloads.h"

namespace {

using namespace perfbench;

int usage(const char* why) {
  std::fprintf(stderr,
               "jsched_perfbench: %s\n"
               "usage: jsched_perfbench --workload grid_ctc|stream_ctc|"
               "serve_cons_4x|serve_easy_4x --seed N --seconds S --trace 0|1 "
               "[--trace-out PATH]\n",
               why);
  return 2;
}

bool parse_u64(const std::string& s, std::uint64_t& out) {
  if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  char* end = nullptr;
  errno = 0;
  out = std::strtoull(s.c_str(), &end, 10);
  return errno == 0 && end != nullptr && *end == '\0';
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string passes_json(const std::vector<PassRecord>& passes) {
  std::string out = "[";
  for (std::size_t i = 0; i < passes.size(); ++i) {
    const PassRecord& p = passes[i];
    out += i == 0 ? "" : ", ";
    out += "{\"seed\": " + std::to_string(p.seed) +
           ", \"size\": " + std::to_string(p.size) + ", \"fingerprints\": [";
    for (std::size_t j = 0; j < p.fingerprints.size(); ++j) {
      out += (j == 0 ? "\"" : ", \"") + hex(p.fingerprints[j]) + "\"";
    }
    out += "]}";
  }
  return out + "]";
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig cfg;
  std::string workload;
  std::string trace_out;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    std::uint64_t n = 0;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      if (!parse_u64(value, cfg.seed)) return usage("bad --seed");
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!parse_u64(value, n) || n == 0 || n > 3600) {
        return usage("bad --seconds");
      }
      cfg.seconds = static_cast<double>(n);
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return usage("bad --trace");
      cfg.trace = value == "1";
      have_trace = true;
    } else if (flag == "--trace-out") {
      trace_out = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  const auto kind = parse_workload(workload);
  if (!kind) return usage(("unknown workload '" + workload + "'").c_str());
  if (!have_seed || !have_seconds || !have_trace) {
    return usage("--seed, --seconds and --trace are required");
  }
  cfg.workload = *kind;

  const HostInfo host = host_info();
  const std::string host_fields = host_json_fields(host);
  std::printf("host: {%s}\n", host_fields.c_str());
  if (host.asserts_enabled) {
    std::fprintf(stderr,
                 "jsched_perfbench: refusing to measure an assert-enabled "
                 "build (NDEBUG unset); configure a Release or "
                 "RelWithDebInfo build\n");
    return 3;
  }

  RunReport report;
  try {
    report = run_workload(cfg, trace_out, host_fields);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "jsched_perfbench: %s\n", e.what());
    return 1;
  }

  for (const std::string& p : report.problems) {
    std::printf("problem: %s\n", p.c_str());
  }
  std::string metrics = "{";
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    metrics += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + value +
               ", \"unit\": \"" + m.unit + "\", \"note\": \"" +
               json_escape(m.note) + "\"}";
  }
  metrics += "}";
  std::string problems = "[";
  for (std::size_t i = 0; i < report.problems.size(); ++i) {
    problems += (i == 0 ? "\"" : ", \"") + json_escape(report.problems[i]) + "\"";
  }
  problems += "]";
  std::printf(
      "{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, \"host\": {%s}, "
      "\"attempted\": %zu, \"failed\": %zu, \"problems\": %s, "
      "\"passes\": %s, \"traced\": %s, \"metrics\": %s}\n",
      workload_name(cfg.workload), static_cast<unsigned long long>(cfg.seed),
      cfg.trace ? 1 : 0, host_fields.c_str(), report.attempted, report.failed,
      problems.c_str(), passes_json(report.passes).c_str(),
      passes_json(report.traced).c_str(), metrics.c_str());
  return 0;
}
