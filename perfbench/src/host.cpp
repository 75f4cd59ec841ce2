#include "host.h"

#include <unistd.h>

#include <fstream>

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

HostInfo host_info() {
  HostInfo h;
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  h.nproc = n > 0 ? static_cast<unsigned>(n) : 0;
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        h.cpu_model = line.substr(line.find_first_not_of(' ', colon + 1));
      }
      break;
    }
  }
  if (h.cpu_model.empty()) h.cpu_model = "unknown";
  h.compiler = PERFBENCH_COMPILER;
  h.build_type = PERFBENCH_BUILD_TYPE;
#ifdef NDEBUG
  h.asserts_enabled = false;
#else
  h.asserts_enabled = true;
#endif
  return h;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += ' ';
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string host_json_fields(const HostInfo& h) {
  return "\"nproc\": " + std::to_string(h.nproc) + ", \"cpu_model\": \"" +
         json_escape(h.cpu_model) + "\", \"compiler\": \"" +
         json_escape(h.compiler) + "\", \"build_type\": \"" +
         json_escape(h.build_type) + "\", \"asserts_enabled\": " +
         (h.asserts_enabled ? "true" : "false");
}

}  // namespace perfbench
