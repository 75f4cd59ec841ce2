#include "sim/schedule.h"

#include <algorithm>
#include <stdexcept>

#include "util/fnv.h"

namespace jsched::sim {

Schedule::Schedule(Machine machine, std::size_t job_count,
                   std::string scheduler_name)
    : machine_(machine),
      scheduler_name_(std::move(scheduler_name)),
      records_(job_count) {
  machine_.validate();
}

void Schedule::record_start(JobId id, Time submit, Time start, int nodes) {
  JobRecord& r = records_.at(id);
  r.submit = submit;
  r.start = start;
  r.nodes = nodes;
  r.end = kTimeInfinity;
}

void Schedule::record_end(JobId id, Time end, bool cancelled) {
  JobRecord& r = records_.at(id);
  r.end = end;
  r.cancelled = cancelled;
}

std::uint64_t schedule_fingerprint(const Schedule& s) {
  // FNV-1a, folding each record field as its 64-bit representation.
  std::uint64_t h = util::kFnvOffset;
  const auto mix = [&h](std::uint64_t v) { util::fnv_mix(h, v); };
  for (JobId id = 0; id < s.size(); ++id) {
    const JobRecord& r = s[id];
    mix(static_cast<std::uint64_t>(r.submit));
    mix(static_cast<std::uint64_t>(r.start));
    mix(static_cast<std::uint64_t>(r.end));
    mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(r.nodes)));
    mix(r.cancelled ? 1u : 0u);
  }
  // Fault-injection extras. Both vectors are empty in fault-free runs, so
  // this folds nothing and the fingerprint equals the historical one.
  for (const AttemptRecord& a : s.attempts) {
    mix(static_cast<std::uint64_t>(a.id));
    mix(static_cast<std::uint64_t>(a.start));
    mix(static_cast<std::uint64_t>(a.end));
    mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(a.nodes)));
    mix(static_cast<std::uint64_t>(a.saved));
  }
  for (const auto& [t, capacity] : s.capacity_events) {
    mix(static_cast<std::uint64_t>(t));
    mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(capacity)));
  }
  return h;
}

Time Schedule::makespan() const noexcept {
  Time m = 0;
  for (const auto& r : records_) m = std::max(m, r.end);
  return m;
}

void validate_schedule(const Schedule& s, const workload::Workload& w) {
  auto fail = [](const std::string& msg) { throw ValidationError("schedule: " + msg); };
  auto fail_job = [&](JobId id, const char* msg) {
    fail("job " + std::to_string(id) + ": " + msg);
  };
  auto fail_attempt = [&](JobId id, const char* msg) {
    fail("attempt of job " + std::to_string(id) + ": " + msg);
  };
  if (s.size() != w.size()) fail("job count mismatch");
  // Under fault injection a job's final attempt may resume checkpointed
  // work, so exact durations give way to conservation: across all its
  // attempts a job executes at least its fault-free lifetime (requeued
  // work is re-executed; restart overhead only adds on top).
  const bool faulty = !s.attempts.empty() || !s.capacity_events.empty();
  std::vector<Duration> executed(faulty ? s.size() : 0, 0);

  // Capacity sweep edges. At equal instants the simulator releases
  // completions first, then applies capacity steps (kills release within
  // the step), then starts jobs; the kind order mirrors that, so a node
  // freed at t is usable by a job starting at t.
  enum EdgeKind { kRelease = 0, kCapacity = 1, kAcquire = 2 };
  struct Edge {
    Time t;
    int kind;
    int value;  // usage delta, or the new capacity for kCapacity edges
  };
  std::vector<Edge> edges;
  edges.reserve(2 * (s.size() + s.attempts.size()) + s.capacity_events.size());

  for (JobId id = 0; id < s.size(); ++id) {
    const JobRecord& r = s[id];
    const Job& j = w.job(id);
    if (r.end == kTimeInfinity) fail_job(id, "never completed");
    if (r.nodes != j.nodes) fail_job(id, "node count mismatch");
    if (r.submit != j.submit) fail_job(id, "submit time mismatch");
    if (r.start < j.submit) fail_job(id, "started before submission");
    if (faulty) {
      if (r.end <= r.start) fail_job(id, "non-positive final attempt");
      executed[id] = r.end - r.start;
    } else if (r.cancelled) {
      if (r.end - r.start != j.estimate) {
        fail_job(id, "cancelled at other than the upper limit");
      }
      if (j.runtime <= j.estimate) {
        fail_job(id, "cancelled although it fit its limit");
      }
    } else if (r.end - r.start != j.runtime) {
      fail_job(id, "ran for other than its runtime (no time sharing)");
    }
    edges.push_back({r.start, kAcquire, r.nodes});
    edges.push_back({r.end, kRelease, -r.nodes});
  }
  for (const AttemptRecord& a : s.attempts) {
    if (a.id >= s.size()) fail_attempt(a.id, "unknown job");
    const Job& j = w.job(a.id);
    if (a.nodes != j.nodes) fail_attempt(a.id, "node count mismatch");
    if (a.start < j.submit) fail_attempt(a.id, "started before submission");
    if (a.end <= a.start) fail_attempt(a.id, "non-positive attempt");
    if (a.end > s[a.id].start) {
      fail_attempt(a.id, "killed attempt overlaps the final attempt");
    }
    if (a.saved < 0 || a.saved > a.end - a.start) {
      fail_attempt(a.id, "saved work outside the attempt");
    }
    executed[a.id] += a.end - a.start;
    edges.push_back({a.start, kAcquire, a.nodes});
    edges.push_back({a.end, kRelease, -a.nodes});
  }
  for (JobId id = 0; id < executed.size(); ++id) {
    const Job& j = w.job(id);
    if (executed[id] < std::min(j.runtime, j.estimate)) {
      fail_job(id, "executed less than its lifetime");
    }
  }
  for (const auto& [t, capacity] : s.capacity_events) {
    edges.push_back({t, kCapacity, capacity});
  }

  std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
    if (a.t != b.t) return a.t < b.t;
    if (a.kind != b.kind) return a.kind < b.kind;
    return a.value < b.value;
  });
  int in_use = 0;
  int capacity = s.machine().nodes;
  for (const Edge& e : edges) {
    if (e.kind == kCapacity) {
      capacity = e.value;
    } else {
      in_use += e.value;
    }
    if (in_use < 0) fail("negative usage at time " + std::to_string(e.t));
    if (in_use > capacity) {
      fail("node capacity exceeded at time " + std::to_string(e.t));
    }
  }
  if (in_use != 0) fail("dangling allocations after last completion");
}

workload::Workload as_executed_workload(const Schedule& s,
                                        const workload::Workload& w) {
  workload::Workload out;
  out.reserve(s.size() + s.attempts.size());
  for (JobId id = 0; id < s.size(); ++id) {
    const JobRecord& r = s[id];
    Job j = w.job(id);
    j.submit = r.submit;
    j.runtime = r.end - r.start;
    j.status = r.cancelled ? JobStatus::kCancelled : JobStatus::kCompleted;
    out.add(j);
  }
  for (const AttemptRecord& a : s.attempts) {
    if (a.end <= a.start) continue;  // killed at its start instant
    Job j = w.job(a.id);
    j.runtime = a.end - a.start;
    j.status = JobStatus::kFailed;
    out.add(j);
  }
  out.set_name(w.name() + "-executed");
  out.finalize();
  return out;
}

}  // namespace jsched::sim
