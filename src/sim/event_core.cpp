#include "sim/event_core.h"

#include <algorithm>
#include <ctime>
#include <stdexcept>
#include <string>
#include <utility>

namespace jsched::sim {
namespace {

/// Thread CPU time in seconds (Linux/glibc).
double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace

EventCore::EventCore(const Machine& machine, Scheduler& scheduler,
                     JobTable& jobs, RecordSink& sink,
                     const CoreOptions& options)
    : scheduler_(scheduler),
      jobs_(jobs),
      sink_(sink),
      measure_cpu_(options.measure_scheduler_cpu),
      cancel_(options.cancel),
      trace_(options.faults.active() ? options.faults.trace : nullptr),
      recovery_(options.faults.recovery),
      capacity_(machine.nodes),
      free_(machine.nodes) {
  if (trace_ != nullptr) {
    if (trace_->machine_nodes != machine.nodes) {
      throw std::invalid_argument(
          "simulate: failure trace built for " +
          std::to_string(trace_->machine_nodes) +
          " nodes but the machine has " + std::to_string(machine.nodes));
    }
    recovery_.validate();
    active_.reserve(64);
  }
  starts_.reserve(64);
  completed_.reserve(64);
  timed([&] { scheduler_.reset(machine); });
}

template <class Fn>
void EventCore::timed(Fn&& fn) {
  if (!measure_cpu_) {
    fn();
    return;
  }
  const double t0 = cpu_seconds();
  fn();
  cpu_ += cpu_seconds() - t0;
}

bool EventCore::stale(const Completion& c) {
  if (c.id < frontier_ || status(c.id) != kRunning) return true;
  const auto it = killed_.find(c.id);
  return c.epoch != (it == killed_.end() ? 0 : it->second.epoch);
}

Time EventCore::next_event_time() {
  if (trace_ != nullptr) {
    while (!completions_.empty() && stale(completions_.top())) {
      completions_.pop();
    }
  }
  Time t = completions_.empty() ? kTimeInfinity : completions_.top().t;
  if (trace_ != nullptr && next_fault_ < trace_->events.size()) {
    t = std::min(t, trace_->events[next_fault_].t);
  }
  const Time wake = scheduler_.next_wakeup(now_);
  if (wake > now_ && wake < t) t = wake;
  return t;
}

void EventCore::throw_starved() const {
  throw std::logic_error("simulate: no events left but " +
                         std::to_string(pending_) + " jobs pending (" +
                         scheduler_.name() + " starved them)");
}

void EventCore::step(Time t, JobId arrivals_end) {
  if (cancel_ != nullptr) cancel_->check();
  if (t == kTimeInfinity) throw_starved();
  now_ = t;

  complete_due(t);
  resubmit_.clear();
  if (trace_ != nullptr) apply_faults(t);

  for (; arrived_ < arrivals_end; ++arrived_) {
    status_.push_back(kQueued);
    ++pending_;
    const Job& j = jobs_.job(arrived_);
    timed([&] { scheduler_.on_submit(j, t); });
  }

  // The scheduler sees a re-submitted job as a fresh Submission whose
  // estimate covers the restart overhead, the remaining work and the
  // user's original slack — what the user would request for the resumed
  // job.
  for (const JobId id : resubmit_) {
    const Resume& r = killed_.at(id);
    Job resumed = jobs_.job(id);
    const Duration slack =
        resumed.estimate - std::min(resumed.runtime, resumed.estimate);
    resumed.submit = t;
    resumed.estimate = r.overhead + r.life + slack;
    timed([&] { scheduler_.on_submit(Submission(resumed), t); });
  }

  while (true) {
    timed([&] { scheduler_.select_starts(t, free_, starts_); });
    if (starts_.empty()) break;
    for (const JobId id : starts_) start(id, t);
  }
  max_queue_ = std::max(max_queue_, scheduler_.queue_length());
}

void EventCore::complete_due(Time t) {
  // Release first: a node freed at t is available to a job starting at t.
  // Draining the heap before notifying keeps the delivery order of
  // one-at-a-time draining while paying the CPU-clock reads once per
  // instant.
  completed_.clear();
  while (!completions_.empty() && completions_.top().t == t) {
    const Completion c = completions_.top();
    completions_.pop();
    if (trace_ != nullptr) {
      if (stale(c)) continue;
      active_.erase(
          std::find_if(active_.begin(), active_.end(),
                       [&](const Attempt& a) { return a.id == c.id; }));
      killed_.erase(c.id);
    }
    free_ += jobs_.job(c.id).nodes;
    status(c.id) = kDone;
    --pending_;
    completed_.push_back(c);
  }
  if (completed_.empty()) return;
  timed([&] {
    for (const Completion& c : completed_) scheduler_.on_complete(c.id, t);
  });
  for (const Completion& c : completed_) sink_.on_completed(c.id, c.epoch, t);
}

void EventCore::apply_faults(Time t) {
  const std::vector<fault::FailureEvent>& events = trace_->events;
  bool changed = false;
  while (next_fault_ < events.size() && events[next_fault_].t == t) {
    capacity_ += events[next_fault_].delta;
    free_ += events[next_fault_].delta;
    ++next_fault_;
    changed = true;
    while (free_ < 0) kill_one(t);
    sink_.on_capacity_event(t, capacity_);
  }
  if (changed) timed([&] { scheduler_.on_capacity_change(t, capacity_); });
}

void EventCore::kill_one(Time t) {
  if (active_.empty()) {
    // Only a trace not built by make_failure_trace can get here.
    throw std::invalid_argument(
        "simulate: failure trace drops capacity below zero at t=" +
        std::to_string(t));
  }
  // Latest start first (it loses the least work), larger id on ties.
  const auto victim = std::max_element(
      active_.begin(), active_.end(), [](const Attempt& a, const Attempt& b) {
        return a.start != b.start ? a.start < b.start : a.id < b.id;
      });
  const Attempt a = *victim;
  active_.erase(victim);
  const Job& j = jobs_.job(a.id);
  free_ += j.nodes;
  status(a.id) = kQueued;

  Resume& r =
      killed_.try_emplace(a.id, Resume{0, std::min(j.runtime, j.estimate), 0})
          .first->second;
  ++r.epoch;
  // Progress excludes the attempt's restart overhead; checkpoints save
  // whole intervals of progress only.
  const Duration elapsed = t - a.start;
  const Duration progress = elapsed - std::min(elapsed, a.overhead);
  const bool checkpointing =
      recovery_.policy == fault::RecoveryPolicy::kCheckpointRestart;
  const Duration saved =
      checkpointing ? (progress / recovery_.checkpoint_interval) *
                          recovery_.checkpoint_interval
                    : 0;
  r.life -= saved;
  r.overhead = checkpointing ? recovery_.restart_overhead : 0;
  sink_.on_attempt({a.id, a.start, t, j.nodes, saved});
  timed([&] { scheduler_.on_complete(a.id, t); });
  resubmit_.push_back(a.id);
}

void EventCore::start(JobId id, Time t) {
  if (id >= arrived_) {
    throw std::logic_error("simulate: scheduler started unknown job");
  }
  if (id < frontier_ || status(id) != kQueued) {
    throw std::logic_error("simulate: scheduler started job " +
                           std::to_string(id) + " twice");
  }
  const Job& j = jobs_.job(id);
  if (j.nodes > free_) {
    throw std::logic_error(
        "simulate: scheduler oversubscribed the machine with job " +
        std::to_string(id));
  }
  free_ -= j.nodes;
  status(id) = kRunning;

  Duration life = std::min(j.runtime, j.estimate);
  Duration overhead = 0;
  std::uint32_t epoch = 0;
  if (trace_ != nullptr) {
    if (const auto it = killed_.find(id); it != killed_.end()) {
      life = it->second.life;
      overhead = std::exchange(it->second.overhead, 0);
      epoch = it->second.epoch;
    }
    active_.push_back({id, t, overhead});
  }
  // Rule 2: a job whose true runtime exceeds its original estimate runs to
  // its (remaining) limit and is recorded as cancelled.
  const Time end = t + overhead + life;
  jobs_.record(id) = {j.submit, t, end, j.nodes, j.runtime > j.estimate};
  completions_.push({end, id, epoch});
  sink_.on_started(id, epoch, t);
}

void EventCore::retire() {
  while (!status_.empty() && status_.front() == kDone) {
    const JobRecord& rec = jobs_.record(frontier_);
    makespan_ = std::max(makespan_, rec.end);
    sink_.on_record(frontier_, rec, jobs_.job(frontier_));
    jobs_.retire();
    status_.pop_front();
    ++frontier_;
  }
}

}  // namespace jsched::sim
