// The host block every benchmark output carries.
#pragma once

#include <string>

namespace perfbench {

struct HostInfo {
  unsigned nproc = 0;
  std::string cpu_model;
  std::string compiler;
  std::string build_type;
  bool asserts_enabled = false;  // NDEBUG unset
};

HostInfo host_info();

/// JSON object body (no braces) of `h`.
std::string host_json_fields(const HostInfo& h);

/// `s` with JSON string escapes applied (no surrounding quotes).
std::string json_escape(const std::string& s);

}  // namespace perfbench
