#include "serve/daemon.h"

#include <algorithm>
#include <cmath>
#include <csignal>
#include <deque>
#include <stdexcept>
#include <vector>

#include "serve/journal.h"
#include "sim/event_core.h"

namespace jsched::serve {

namespace {

/// Crash drill: die *for real* once this run has journaled enough. Called
/// after each append point so the kill lands mid-stream, between a
/// journaled decision and whatever would have followed it.
void chaos_tick(const ServeOptions& options) {
  if (options.chaos_kill_after_appends > 0 &&
      options.journal->appends() >= options.chaos_kill_after_appends) {
    std::raise(SIGKILL);
  }
}

/// The event core's outputs in a served run: records and faults go to the
/// metrics aggregator and the report's counters, start and completion
/// decisions to the write-ahead journal.
class ServeSink final : public sim::RecordSink {
 public:
  ServeSink(const ServeOptions& options, ServeReport& report)
      : options_(options),
        report_(report),
        aggregator_(options.machine.nodes) {}

  metrics::StreamingAggregator& aggregator() { return aggregator_; }

  void on_record(JobId id, const sim::JobRecord& record,
                 const Job& j) override {
    aggregator_.on_record(id, record, j);
    ++report_.completed;
  }
  void on_attempt(const sim::AttemptRecord& attempt) override {
    aggregator_.on_attempt(attempt);
    ++report_.killed;
    ++report_.requeued;  // every kill is re-submitted at its instant
  }
  void on_capacity_event(Time t, int capacity) override {
    aggregator_.on_capacity_event(t, capacity);
    ++report_.capacity_events;
    report_.min_capacity = std::min(report_.min_capacity, capacity);
  }
  void on_started(JobId id, std::uint32_t epoch, Time t) override {
    if (options_.journal != nullptr) {
      journaled(options_.journal->record_start(id, epoch, t));
    }
  }
  void on_completed(JobId id, std::uint32_t epoch, Time t) override {
    if (options_.journal != nullptr) {
      journaled(options_.journal->record_done(id, epoch, t));
    }
  }

 private:
  void journaled(bool replayed) {
    if (replayed) {
      ++report_.replayed_decisions;
    } else {
      chaos_tick(options_);
    }
  }

  const ServeOptions& options_;
  ServeReport& report_;
  metrics::StreamingAggregator aggregator_;
};

}  // namespace

ServeReport serve(Feed& feed, const ServeOptions& options) {
  options.machine.validate();
  if (options.queue_capacity < 1) {
    throw std::invalid_argument("serve: queue_capacity must be >= 1");
  }
  if (options.speed < 0) {
    throw std::invalid_argument("serve: speed must be >= 0");
  }
  AdmissionJournal* const journal = options.journal;
  if (options.chaos_kill_after_appends > 0 && journal == nullptr) {
    throw std::invalid_argument(
        "serve: chaos_kill_after_appends requires a journal");
  }

  ServeReport report;
  report.min_capacity = options.machine.nodes;
  auto scheduler = options.scheduler_factory
                       ? options.scheduler_factory(options.spec)
                       : core::make_scheduler(options.spec);
  report.scheduler_name = scheduler->name();
  sim::LiveWindow window;
  ServeSink sink(options, report);
  sim::CoreOptions core_options;
  core_options.faults = options.faults;
  sim::EventCore core(options.machine, *scheduler, window, sink, core_options);
  const bool faults_active = options.faults.active();

  util::Clock& clock =
      options.clock != nullptr ? *options.clock : util::real_clock();
  bool paced = options.speed > 0;
  const double speed = options.speed;
  const util::Clock::time_point epoch = clock.now();

  // ---- Recovery preload. A journal with history turns the loop's first
  // phase into a replay: the recovered admissions feed the event loop
  // (bypassing admit() — they were stamped by the dead run), the feed
  // stays un-polled until the replay drains, and the dead run's
  // drop/late/delay counters are restored so the final report reads as if
  // the daemon had never died.
  std::deque<SubmitRecord> replay_queue;
  std::size_t skip_feed = 0;
  Time start_virtual = 0;
  if (journal != nullptr && journal->has_history()) {
    report.recovered = true;
    report.recovered_jobs = journal->admitted().size();
    report.recovered_completed = journal->completed_at_open();
    for (const JournaledJob& j : journal->admitted()) {
      replay_queue.push_back(j.record);
    }
    report.late_arrivals = journal->late_at_open();
    report.delayed_admissions = journal->delayed_at_open();
    report.rejected_invalid = journal->dropped_invalid();
    report.shed_capacity = journal->dropped_shed_capacity();
    report.shed_backlog = journal->dropped_shed_backlog();
    if (options.feed_restarts_from_start) {
      skip_feed = journal->consumed_feed_records();
    }
    // Resume the virtual clock at the last journaled instant: the replay
    // runs at memory speed regardless of pacing, and wall-time mapping
    // continues from where the dead run reached, not from zero.
    start_virtual = journal->last_event_time();
    if (options.log) {
      options.log("journal " + journal->path() + ": replaying " +
                  std::to_string(report.recovered_jobs) + " admission(s) (" +
                  std::to_string(report.recovered_completed) +
                  " completed), skipping " + std::to_string(skip_feed) +
                  " consumed feed record(s), resuming at t=" +
                  std::to_string(start_virtual));
    }
  }
  if (journal != nullptr) journal->begin_run();

  // Virtual/wall mapping. vnow = V0 + floor(elapsed * speed); an event at
  // virtual t falls due at epoch + ceil((t - V0) / speed) — the ceil
  // guarantees vnow(due(t)) >= t, so sleeping until due never wakes
  // early, and anything at or before the resume point V0 is due at once.
  const Time v0 = start_virtual;
  const auto vnow = [&]() -> Time {
    if (!paced) return kTimeInfinity;
    const auto elapsed = std::chrono::duration_cast<std::chrono::nanoseconds>(
        clock.now() - epoch);
    return v0 + static_cast<Time>(std::floor(
                    static_cast<double>(elapsed.count()) * speed * 1e-9));
  };
  const auto due_wall = [&](Time t) -> util::Clock::time_point {
    if (t <= v0) return epoch;
    const double ns = std::ceil(static_cast<double>(t - v0) * 1e9 / speed);
    return epoch + std::chrono::nanoseconds(static_cast<std::int64_t>(ns));
  };

  std::deque<SubmitRecord> admission;  // accepted, not yet delivered
  std::deque<SubmitRecord> holdover;   // polled, blocked on a full queue
  std::vector<SubmitRecord> batch;
  bool feed_open = true;
  Time last_stamp = v0;  // admission stamps are non-decreasing

  // Graceful degradation: under faults the backlog bound shrinks with the
  // surviving capacity (never below 1 — a transient total outage should
  // not shed the job that would start the moment nodes return). With no
  // faults, or a full machine, this is exactly options.max_backlog.
  const auto effective_max_backlog = [&]() -> std::size_t {
    if (options.max_backlog == 0) return 0;
    const int capacity = core.capacity();
    if (capacity >= options.machine.nodes) return options.max_backlog;
    if (capacity <= 0) return 1;
    const std::size_t scaled =
        options.max_backlog * static_cast<std::size_t>(capacity) /
        static_cast<std::size_t>(options.machine.nodes);
    return std::max<std::size_t>(scaled, 1);
  };

  // Stamp + enqueue one polled record; drops are counted (and journaled —
  // a dropped record is still a *consumed* one). `from_holdover` marks
  // records admitted late under kBlock backpressure.
  const auto admit = [&](SubmitRecord r, bool from_holdover) {
    if (r.nodes < 1 || r.runtime < 1 || r.estimate < 1 ||
        r.nodes > options.machine.nodes) {
      ++report.rejected_invalid;
      if (journal != nullptr) {
        journal->record_drop(DropKind::kInvalid);
        chaos_tick(options);
      }
      if (options.log) {
        options.log("rejected: " + std::to_string(r.nodes) + " nodes / " +
                    std::to_string(r.estimate) + "s estimate (machine has " +
                    std::to_string(options.machine.nodes) + " nodes)");
      }
      return;
    }
    const std::size_t backlog = effective_max_backlog();
    if (backlog > 0 &&
        scheduler->queue_length() + admission.size() >= backlog) {
      ++report.shed_backlog;
      if (journal != nullptr) {
        journal->record_drop(DropKind::kShedBacklog);
        chaos_tick(options);
      }
      return;
    }
    // Time can only move forward: a live record is stamped "now", and a
    // timed record that shows up after its moment is clamped to the
    // monotone floor (counted — late explicit submits are a client bug
    // worth surfacing, not a daemon crash).
    const Time floor_t =
        std::max<Time>(last_stamp, std::max<Time>(core.now(), 0));
    Time stamp;
    bool late = false;
    if (r.submit < 0) {
      const Time v = paced ? vnow() : floor_t;
      stamp = std::max(v, floor_t);
    } else {
      stamp = std::max(r.submit, floor_t);
      if (stamp != r.submit) {
        ++report.late_arrivals;
        late = true;
      }
    }
    if (from_holdover) ++report.delayed_admissions;
    r.submit = stamp;
    last_stamp = stamp;
    if (journal != nullptr) {
      journal->record_admit(r, late, from_holdover);
      chaos_tick(options);
    }
    admission.push_back(r);
    report.peak_admission_queue =
        std::max(report.peak_admission_queue, admission.size());
  };

  // Hand the admitted records due at `t` to the event core — the journal
  // replay first (it rebuilds the pre-crash state and is always
  // time-ordered before anything fresh: the feed stays closed until it
  // drains), then the live queue. Sharing this path is what makes a
  // recovered job indistinguishable from a freshly admitted one.
  const auto deliver_due = [&](std::deque<SubmitRecord>& queue, Time t) {
    while (!queue.empty() && queue.front().submit <= t) {
      const SubmitRecord& r = queue.front();
      Job j;
      j.id = window.end();
      j.submit = r.submit;
      j.nodes = r.nodes;
      j.runtime = r.runtime;
      j.estimate = r.estimate;
      j.user = r.user;
      window.push(j);
      ++report.submitted;
      queue.pop_front();
    }
  };

  // The next instant from local state alone.
  const auto horizon = [&] {
    Time t = core.next_event_time();
    if (!replay_queue.empty()) t = std::min(t, replay_queue.front().submit);
    if (!admission.empty()) t = std::min(t, admission.front().submit);
    return t;
  };

  auto last_report = clock.now();

  while (true) {
    // Signals: 1 = drain (stop intake, finish at full speed), 2 = abort.
    if (options.poll_signal) {
      const int sig = options.poll_signal();
      if (sig >= 2) {
        report.aborted = true;
        break;
      }
      if (sig >= 1 && !report.drained) {
        report.drained = true;
        feed_open = false;
        paced = false;
        report.dropped_on_drain += holdover.size();
        holdover.clear();
        if (options.log) {
          options.log("drain: feed closed, finishing " +
                      std::to_string(core.pending() + admission.size() +
                                     replay_queue.size()) +
                      " admitted job(s)");
        }
      }
    }

    if (!feed_open && replay_queue.empty() && holdover.empty() &&
        admission.empty() && core.pending() == 0) {
      break;  // served everything
    }

    const bool replaying = !replay_queue.empty();

    // Move blocked records into the queue as space frees up.
    while (!holdover.empty() && admission.size() < options.queue_capacity) {
      admit(holdover.front(), /*from_holdover=*/true);
      holdover.pop_front();
    }

    Time t = horizon();

    // Poll the feed. Paced: deliver whatever wall time has made due.
    // Free-run: deliver only up to the next event (min(t, next_submit)) so
    // a replayed trace streams through the bounded queue instead of being
    // inhaled whole. During journal replay the feed is not touched at all:
    // the recovered admissions must rebuild the exact pre-crash state
    // before any fresh record can influence a decision.
    if (feed_open && !replaying && holdover.empty() &&
        (options.overload == OverloadPolicy::kShed ||
         admission.size() < options.queue_capacity)) {
      const Time ns = feed.next_submit();
      const Time poll_at = paced ? vnow() : std::min(t, ns);
      batch.clear();
      feed_open = feed.poll(poll_at, batch);
      for (const SubmitRecord& r : batch) {
        if (skip_feed > 0) {
          --skip_feed;  // consumed by the journaled run: already replayed
          continue;
        }
        if (admission.size() >= options.queue_capacity) {
          if (options.overload == OverloadPolicy::kShed) {
            ++report.shed_capacity;
            if (journal != nullptr) {
              journal->record_drop(DropKind::kShedCapacity);
              chaos_tick(options);
            }
          } else {
            holdover.push_back(r);
          }
          continue;
        }
        if (!holdover.empty()) {
          holdover.push_back(r);  // keep arrival order behind blocked ones
          continue;
        }
        admit(r, /*from_holdover=*/false);
      }
      t = horizon();  // the poll may have admitted earlier arrivals
    }

    // The replay gate: while the feed still knows of arrivals at or before
    // t, admit them first — equal-submit batches must reach the scheduler
    // together, exactly as the offline simulator delivers them. A full
    // kBlock queue overrides the gate (the arrival will be delayed; that
    // is what backpressure means). An idle live feed reports kTimeInfinity
    // and must not trip the gate: with t also infinite that would spin the
    // loop (and feed due_wall an unrepresentable time) instead of falling
    // through to the idle sleep below. Journal replay bypasses the gate
    // for the same reason it bypasses the poll.
    if (feed_open && !replaying && holdover.empty()) {
      const Time ns = feed.next_submit();
      if (ns != kTimeInfinity && ns <= t) {
        if (paced && vnow() < ns) clock.sleep_until(due_wall(ns));
        continue;  // next iteration's poll picks it up
      }
    }

    if (t == kTimeInfinity) {
      if (!feed_open) {
        if (core.pending() > 0) core.throw_starved();
        continue;  // loop head terminates
      }
      // Live feed, nothing buffered: wait for input.
      clock.sleep_for(options.poll_granularity);
      continue;
    }

    if (paced && vnow() < t) {
      // Wait for the event to fall due — but keep polling a live feed at
      // poll_granularity so an earlier arrival can preempt it.
      const auto due = due_wall(t);
      if (feed_open) {
        clock.sleep_until(
            std::min(due, clock.now() + options.poll_granularity));
      } else {
        clock.sleep_until(due);
      }
      continue;
    }

    // ---- One round = one decision sample: the event core processes
    // instant t with the records due at t as its arrivals.
    const auto decision_start = clock.now();
    deliver_due(replay_queue, t);
    if (replaying && replay_queue.empty()) {
      const auto elapsed = std::chrono::duration_cast<std::chrono::nanoseconds>(
          clock.now() - epoch);
      report.recovery_replay_seconds =
          static_cast<double>(elapsed.count()) * 1e-9;
      if (options.log) {
        options.log("journal replay complete: " +
                    std::to_string(report.recovered_jobs) +
                    " admission(s) rebuilt in " +
                    std::to_string(report.recovery_replay_seconds) +
                    "s; feed open");
      }
    }
    deliver_due(admission, t);
    core.step(t, window.end());
    const auto decision_end = clock.now();
    report.decision_latency_ns.record(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(decision_end -
                                                             decision_start)
            .count()));
    ++report.decisions;

    // Finalize records in JobId order (what makes the aggregator — and its
    // fingerprint — bit-identical to the offline pipeline).
    core.retire();

    if (options.report_interval.count() > 0 && options.log &&
        decision_end - last_report >= options.report_interval) {
      last_report = decision_end;
      options.log(
          "t=" + std::to_string(t) + " submitted=" +
          std::to_string(report.submitted) + " completed=" +
          std::to_string(report.completed) + " queue=" +
          std::to_string(scheduler->queue_length()) + " admission=" +
          std::to_string(admission.size()) + " shed=" +
          std::to_string(report.shed_capacity + report.shed_backlog) +
          (faults_active
               ? " capacity=" + std::to_string(core.capacity()) + " killed=" +
                     std::to_string(report.killed)
               : "") +
          " p99=" + std::to_string(report.decision_latency_ns.p99()) + "ns");
    }
  }

  const auto elapsed = std::chrono::duration_cast<std::chrono::nanoseconds>(
      clock.now() - epoch);
  report.wall_seconds = static_cast<double>(elapsed.count()) * 1e-9;
  if (report.wall_seconds > 0) {
    report.jobs_per_second =
        static_cast<double>(report.completed) / report.wall_seconds;
    report.decisions_per_second =
        static_cast<double>(report.decisions) / report.wall_seconds;
  }
  report.peak_scheduler_queue = core.max_queue_length();
  report.virtual_makespan = core.makespan();
  if (journal != nullptr) report.journal_appends = journal->appends();
  if (report.completed > 0) {
    report.metrics = sink.aggregator().finish();
    report.has_metrics = true;
    report.schedule_fnv = report.metrics.schedule_fnv;
    report.wasted_node_seconds = report.metrics.resilience.wasted_node_seconds;
    report.availability = report.metrics.resilience.availability;
  }
  return report;
}

}  // namespace jsched::serve
