// The seed std::map-backed availability profile, retained verbatim as the
// differential-test oracle and benchmark baseline for sim::Profile. It is
// built into the jsched_oracles target, which only tests and benchmarks
// link; the shipped library does not contain it.
//
// Same public surface and observable behaviour as Profile (canonical
// merged breakpoints, identical compact()/earliest_fit() semantics), but
// with linear restart scans over the breakpoints — O(n) fits/earliest_fit.
// Production code must use Profile; this class exists so correctness and
// speedups can be measured against the original, not remembered.
#pragma once

#include <cstddef>
#include <map>
#include <string>

#include "util/time.h"

namespace jsched::sim {

class ReferenceProfile {
 public:
  explicit ReferenceProfile(int total_nodes);

  int total_nodes() const noexcept { return total_; }
  int capacity_at(Time t) const;
  bool fits(Time start, Duration duration, int nodes) const;
  Time earliest_fit(Time from, Duration duration, int nodes) const;
  void allocate(Time start, Duration duration, int nodes);
  void release(Time start, Duration duration, int nodes);
  void compact(Time now);
  std::size_t breakpoints() const noexcept { return cap_.size(); }
  std::string dump() const;

 private:
  void add_over_range(Time start, Time end, int delta);
  std::map<Time, int>::const_iterator at(Time t) const;

  int total_;
  std::map<Time, int> cap_;
};

}  // namespace jsched::sim
