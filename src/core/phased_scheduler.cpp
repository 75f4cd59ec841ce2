#include "core/phased_scheduler.h"

#include <algorithm>
#include <stdexcept>

#include "core/easy_backfill.h"
#include "core/smart.h"

namespace jsched::core {

bool PhaseWindow::contains(Time t) const noexcept {
  const long long day_index = t / kDay;
  if (weekdays_only && (day_index % 7) >= 5) return false;  // day 0 = Monday
  const Duration second = t % kDay;
  if (start_second <= end_second) {
    return second >= start_second && second < end_second;
  }
  return second >= start_second || second < end_second;
}

Time PhaseWindow::next_boundary(Time t) const noexcept {
  // Coarse scan (hours) for the first phase change within a week, then a
  // binary search down to the second. A week always contains a boundary
  // unless the window covers everything or nothing.
  const bool here = contains(t);
  Time hi = t;
  bool found = false;
  for (int h = 1; h <= 24 * 7 + 1; ++h) {
    hi = t + h * kHour;
    if (contains(hi) != here) {
      found = true;
      break;
    }
  }
  if (!found) return kTimeInfinity;
  Time lo = hi - kHour;
  while (lo + 1 < hi) {
    const Time mid = lo + (hi - lo) / 2;
    if (contains(mid) != here) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return hi;
}

PhasedScheduler::PhasedScheduler(PhaseWindow window,
                                 std::unique_ptr<OrderingPolicy> day_order,
                                 std::unique_ptr<Dispatcher> day_dispatch,
                                 std::unique_ptr<OrderingPolicy> night_order,
                                 std::unique_ptr<Dispatcher> night_dispatch)
    : window_(window),
      list_(std::move(day_order), std::move(day_dispatch)),
      idle_order_(std::move(night_order)),
      idle_dispatch_(std::move(night_dispatch)) {
  if (!idle_order_ || !idle_dispatch_) {
    throw std::invalid_argument("PhasedScheduler: null component");
  }
}

std::string PhasedScheduler::name() const {
  const std::string active = list_.name();
  const std::string d = idle_dispatch_->name();
  const std::string idle =
      d.empty() ? idle_order_->name() : idle_order_->name() + "+" + d;
  return "day[" + (day_active_ ? active : idle) + "]/night[" +
         (day_active_ ? idle : active) + "]";
}

void PhasedScheduler::reset(const sim::Machine& machine) {
  list_.reset(machine);
  idle_order_->reset(machine, list_.store());
  idle_dispatch_->reset(machine, list_.store());
  flips_ = 0;
  last_sync_ = -1;
  machine_nodes_ = machine.nodes;
  capacity_ = machine.nodes;
  if (window_.contains(0) != day_active_) {
    // Start in the phase of t = 0: hand the empty machine to the other pair.
    list_.hand_over(0, idle_order_, idle_dispatch_);
    day_active_ = !day_active_;
  }
}

void PhasedScheduler::sync_phase(Time now) {
  if (now == last_sync_) return;
  last_sync_ = now;
  if (window_.contains(now) == day_active_) return;
  ++flips_;
  list_.hand_over(now, idle_order_, idle_dispatch_);
  day_active_ = !day_active_;
  if (capacity_ != machine_nodes_) {
    // adopt() rebuilt the incoming dispatcher's state at full capacity;
    // replay the outage so its plan respects the surviving nodes.
    list_.on_capacity_change(now, capacity_);
  }
}

void PhasedScheduler::on_submit(const Submission& job, Time now) {
  sync_phase(now);
  list_.on_submit(job, now);
}

void PhasedScheduler::on_complete(JobId id, Time now) {
  sync_phase(now);
  list_.on_complete(id, now);
}

void PhasedScheduler::on_capacity_change(Time now, int available_nodes) {
  sync_phase(now);
  capacity_ = available_nodes;
  list_.on_capacity_change(now, available_nodes);
}

void PhasedScheduler::select_starts(Time now, int free_nodes,
                                    std::vector<JobId>& starts) {
  sync_phase(now);
  list_.select_starts(now, free_nodes, starts);
}

Time PhasedScheduler::next_wakeup(Time now) const {
  // Wake for the dispatcher's reservations and for the next phase flip
  // (only needed while there is anything to schedule).
  Time wake = list_.next_wakeup(now);
  if (!list_.running().empty() || list_.queue_length() > 0) {
    wake = std::min(wake, window_.next_boundary(std::max<Time>(now, 0)));
  }
  return wake;
}

std::size_t PhasedScheduler::queue_length() const {
  return list_.queue_length();
}

std::unique_ptr<sim::Scheduler> make_institution_b_combined() {
  SmartParams smart;
  smart.variant = SmartVariant::kFfia;
  smart.weight = WeightKind::kUnit;
  return std::make_unique<PhasedScheduler>(
      PhaseWindow{7 * kHour, 20 * kHour, true},
      std::make_unique<SmartOrder>(smart),
      std::make_unique<EasyBackfillDispatch>(),
      std::make_unique<FcfsOrder>(), std::make_unique<FirstFitDispatch>());
}

}  // namespace jsched::core
