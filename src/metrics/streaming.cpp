#include "metrics/streaming.h"

#include <algorithm>
#include <stdexcept>

#include "util/fnv.h"

namespace jsched::metrics {

using util::fnv_mix;

double available_node_seconds(
    const std::vector<std::pair<Time, int>>& capacity_events,
    int machine_nodes, Time makespan) {
  double available = 0.0;
  Time prev_t = 0;
  int capacity = machine_nodes;
  for (const auto& [t, cap] : capacity_events) {
    const Time clipped = std::min(t, makespan);
    if (clipped > prev_t) {
      available +=
          static_cast<double>(capacity) * static_cast<double>(clipped - prev_t);
      prev_t = clipped;
    }
    if (t >= makespan) break;
    capacity = cap;
  }
  if (prev_t < makespan) {
    available += static_cast<double>(capacity) *
                 static_cast<double>(makespan - prev_t);
  }
  return available;
}

StreamingAggregator::StreamingAggregator(int machine_nodes)
    : machine_nodes_(machine_nodes), record_fnv_(util::kFnvOffset) {}

void StreamingAggregator::on_record(JobId id, const sim::JobRecord& r,
                                    const Job& j) {
  (void)id;
  ++jobs_;
  const double response = static_cast<double>(r.response());
  const double wait = static_cast<double>(r.wait());
  const double weight =
      static_cast<double>(r.nodes) * static_cast<double>(r.end - r.start);
  response_sum_ += response;
  weighted_sum_ += weight * response;
  wait_sum_ += wait;
  busy_ += weight;
  executed_records_ += static_cast<double>(r.nodes) *
                       static_cast<double>(r.end - r.start);
  useful_ += static_cast<double>(j.nodes) *
             static_cast<double>(std::min(j.runtime, j.estimate));
  makespan_ = std::max(makespan_, r.end);
  response_stats_.add(response);
  wait_stats_.add(wait);
  fnv_mix(record_fnv_, static_cast<std::uint64_t>(r.submit));
  fnv_mix(record_fnv_, static_cast<std::uint64_t>(r.start));
  fnv_mix(record_fnv_, static_cast<std::uint64_t>(r.end));
  fnv_mix(record_fnv_,
          static_cast<std::uint64_t>(static_cast<std::int64_t>(r.nodes)));
  fnv_mix(record_fnv_, r.cancelled ? 1u : 0u);
}

void StreamingAggregator::on_attempt(const sim::AttemptRecord& attempt) {
  attempts_.push_back(attempt);
}

void StreamingAggregator::on_capacity_event(Time t, int capacity) {
  capacity_events_.emplace_back(t, capacity);
}

StreamedMetrics StreamingAggregator::finish() const {
  if (jobs_ == 0) {
    throw std::invalid_argument("streamed metrics of an empty schedule");
  }
  StreamedMetrics m;
  m.jobs = jobs_;
  const double n = static_cast<double>(jobs_);
  m.art = response_sum_ / n;
  m.awrt = weighted_sum_ / n;
  m.wait = wait_sum_ / n;
  m.makespan = makespan_;
  m.utilization =
      makespan_ > 0 ? busy_ / (static_cast<double>(machine_nodes_) *
                               static_cast<double>(makespan_))
                    : 0.0;
  m.response_stats = response_stats_;
  m.wait_stats = wait_stats_;

  // Fingerprint: the record chain was folded as records streamed by;
  // attempts and capacity events follow in batch order.
  std::uint64_t h = record_fnv_;
  for (const sim::AttemptRecord& a : attempts_) {
    fnv_mix(h, static_cast<std::uint64_t>(a.id));
    fnv_mix(h, static_cast<std::uint64_t>(a.start));
    fnv_mix(h, static_cast<std::uint64_t>(a.end));
    fnv_mix(h, static_cast<std::uint64_t>(static_cast<std::int64_t>(a.nodes)));
    fnv_mix(h, static_cast<std::uint64_t>(a.saved));
  }
  for (const auto& [t, capacity] : capacity_events_) {
    fnv_mix(h, static_cast<std::uint64_t>(t));
    fnv_mix(h, static_cast<std::uint64_t>(static_cast<std::int64_t>(capacity)));
  }
  m.schedule_fnv = h;

  // Resilience: the per-record sums accumulated in JobId order, then the
  // attempt folds — the exact addition order of metrics::resilience.
  ResilienceReport& r = m.resilience;
  r.executed_node_seconds = executed_records_;
  r.useful_node_seconds = useful_;
  for (const sim::AttemptRecord& a : attempts_) {
    r.executed_node_seconds +=
        static_cast<double>(a.nodes) * static_cast<double>(a.end - a.start);
  }
  r.kills = attempts_.size();
  std::vector<JobId> hit;
  hit.reserve(attempts_.size());
  for (const sim::AttemptRecord& a : attempts_) hit.push_back(a.id);
  std::sort(hit.begin(), hit.end());
  for (std::size_t i = 0; i < hit.size();) {
    std::size_t j = i;
    while (j < hit.size() && hit[j] == hit[i]) ++j;
    ++r.jobs_hit;
    r.max_resubmissions = std::max(r.max_resubmissions, j - i);
    i = j;
  }
  r.wasted_node_seconds = r.executed_node_seconds - r.useful_node_seconds;
  r.goodput_fraction = r.executed_node_seconds > 0.0
                           ? r.useful_node_seconds / r.executed_node_seconds
                           : 1.0;
  if (makespan_ > 0) {
    const double available =
        available_node_seconds(capacity_events_, machine_nodes_, makespan_);
    const double total = static_cast<double>(machine_nodes_) *
                         static_cast<double>(makespan_);
    r.availability = total > 0.0 ? available / total : 1.0;
    r.availability_weighted_utilization =
        available > 0.0 ? r.executed_node_seconds / available : 0.0;
  }
  return m;
}

}  // namespace jsched::metrics
