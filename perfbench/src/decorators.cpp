#include "decorators.h"

#include <algorithm>

#include "core/list_scheduler.h"

namespace perfbench {

namespace jsim = jsched::sim;

// --- RoundTimer -------------------------------------------------------------

RoundTimer::RoundTimer(std::unique_ptr<jsim::Scheduler> inner,
                       jsched::util::LatencyHistogram& rounds)
    : inner_(std::move(inner)), rounds_(&rounds) {}

void RoundTimer::open_round() noexcept {
  if (!in_round_) {
    in_round_ = true;
    round_start_ns_ = now_ns();
  }
}

std::string RoundTimer::name() const { return inner_->name(); }

void RoundTimer::reset(const jsim::Machine& machine) {
  in_round_ = false;
  inner_->reset(machine);
}

void RoundTimer::on_submit(const jsched::Submission& job, Time now) {
  open_round();
  inner_->on_submit(job, now);
}

void RoundTimer::on_complete(JobId id, Time now) {
  open_round();
  inner_->on_complete(id, now);
}

void RoundTimer::on_capacity_change(Time now, int available_nodes) {
  open_round();
  inner_->on_capacity_change(now, available_nodes);
}

void RoundTimer::select_starts(Time now, int free_nodes,
                               std::vector<JobId>& starts) {
  open_round();
  inner_->select_starts(now, free_nodes, starts);
  if (starts.empty()) {
    rounds_->record(static_cast<std::uint64_t>(now_ns() - round_start_ns_));
    in_round_ = false;
  }
}

Time RoundTimer::next_wakeup(Time now) const {
  return inner_->next_wakeup(now);
}

std::size_t RoundTimer::queue_length() const { return inner_->queue_length(); }

// --- TracedScheduler --------------------------------------------------------

TracedScheduler::TracedScheduler(std::unique_ptr<jsim::Scheduler> inner,
                                 Tracer& tracer, CoreStats& stats)
    : inner_(std::move(inner)),
      tracer_(tracer),
      stats_(stats),
      submit_(tracer.intern("core.on_submit")),
      complete_(tracer.intern("core.on_complete")),
      capacity_(tracer.intern("core.on_capacity_change")),
      select_(tracer.intern("core.select_starts")) {
  if (const auto* list =
          dynamic_cast<const jsched::core::ListScheduler*>(inner_.get())) {
    cons_ = dynamic_cast<const jsched::core::ConservativeBackfillDispatch*>(
        &list->dispatcher());
  }
}

TracedScheduler::~TracedScheduler() {
  if (cons_ == nullptr) return;
  const auto& r = cons_->replan_stats();
  auto& c = stats_.cons;
  c.completions += r.completions;
  c.replans_elided += r.replans_elided;
  c.replans += r.replans;
  c.replaced += r.replaced;
  c.reused += r.reused;
  c.certified += r.certified;
  c.moved += r.moved;
  c.cursor_restarts += r.cursor_restarts;
}

std::string TracedScheduler::name() const { return inner_->name(); }

void TracedScheduler::reset(const jsim::Machine& machine) {
  inner_->reset(machine);
}

void TracedScheduler::on_submit(const jsched::Submission& job, Time now) {
  {
    ScopedLeaf leaf(tracer_, submit_);
    inner_->on_submit(job, now);
  }
  stats_.queue_peak = std::max(stats_.queue_peak, inner_->queue_length());
}

void TracedScheduler::on_complete(JobId id, Time now) {
  ScopedLeaf leaf(tracer_, complete_);
  inner_->on_complete(id, now);
}

void TracedScheduler::on_capacity_change(Time now, int available_nodes) {
  ScopedLeaf leaf(tracer_, capacity_);
  inner_->on_capacity_change(now, available_nodes);
}

void TracedScheduler::select_starts(Time now, int free_nodes,
                                    std::vector<JobId>& starts) {
  {
    ScopedLeaf leaf(tracer_, select_);
    inner_->select_starts(now, free_nodes, starts);
  }
  if (cons_ != nullptr) {
    const std::size_t bp = cons_->profile().breakpoints();
    stats_.breakpoints_peak = std::max(stats_.breakpoints_peak, bp);
    stats_.breakpoints_sum += static_cast<double>(bp);
    ++stats_.breakpoints_samples;
  }
}

Time TracedScheduler::next_wakeup(Time now) const {
  return inner_->next_wakeup(now);
}

std::size_t TracedScheduler::queue_length() const {
  return inner_->queue_length();
}

// --- TracedSource -----------------------------------------------------------

TracedSource::TracedSource(jsched::workload::JobSource& inner, Tracer& tracer)
    : inner_(inner), tracer_(tracer), next_(tracer.intern("workload.next")) {}

bool TracedSource::next(jsched::Job& out) {
  ScopedLeaf leaf(tracer_, next_);
  return inner_.next(out);
}

std::size_t TracedSource::size_hint() const noexcept {
  return inner_.size_hint();
}

const std::string& TracedSource::name() const noexcept { return inner_.name(); }

// --- TracedSink -------------------------------------------------------------

TracedSink::TracedSink(jsim::RecordSink& inner, Tracer& tracer)
    : inner_(inner),
      tracer_(tracer),
      record_(tracer.intern("metrics.on_record")) {}

void TracedSink::on_record(JobId id, const jsim::JobRecord& record,
                           const jsched::Job& j) {
  ScopedLeaf leaf(tracer_, record_);
  inner_.on_record(id, record, j);
}

void TracedSink::on_attempt(const jsim::AttemptRecord& attempt) {
  inner_.on_attempt(attempt);
}

void TracedSink::on_capacity_event(Time t, int capacity) {
  inner_.on_capacity_event(t, capacity);
}

// --- TracedFeed -------------------------------------------------------------

TracedFeed::TracedFeed(jsched::serve::Feed& inner, Tracer& tracer)
    : inner_(inner), tracer_(tracer), poll_(tracer.intern("serve.feed.poll")) {}

bool TracedFeed::poll(Time vnow,
                      std::vector<jsched::serve::SubmitRecord>& out) {
  const std::size_t before = out.size();
  bool open = false;
  {
    ScopedLeaf leaf(tracer_, poll_);
    open = inner_.poll(vnow, out);
  }
  records_ += out.size() - before;
  return open;
}

Time TracedFeed::next_submit() const { return inner_.next_submit(); }

}  // namespace perfbench
