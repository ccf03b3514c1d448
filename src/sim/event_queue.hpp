// A small discrete-event engine: a time-ordered queue of callbacks with
// support for periodic events. FleetRunner's campaigns use fixed cadences
// directly for speed; this engine drives the finer-grained examples and
// integration tests.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "core/time.hpp"
#include "telemetry/metrics.hpp"

namespace wlm::sim {

class EventQueue {
 public:
  using Callback = std::function<void(SimTime)>;

  /// Schedules `fn` at absolute time `at` (must not be in the past).
  void schedule_at(SimTime at, Callback fn);
  /// Schedules `fn` after `delay` from the current time.
  void schedule_in(Duration delay, Callback fn);
  /// Schedules `fn` every `period`, starting at now + period, until the
  /// engine stops or `until` is reached.
  void schedule_every(Duration period, SimTime until, Callback fn);

  [[nodiscard]] SimTime now() const { return now_; }
  [[nodiscard]] std::size_t pending() const { return queue_.size(); }
  [[nodiscard]] std::uint64_t executed() const { return executed_; }

  /// Runs until the queue drains or `until` is passed. Events scheduled at
  /// identical times run in scheduling order (stable).
  void run_until(SimTime until);

  /// Drops all pending events.
  void clear();

  /// Mirrors schedule/execute counts into `metrics` (not owned; may be null
  /// to unbind). Counts are sim-state facts, so they are deterministic.
  void bind_metrics(telemetry::MetricsRegistry* metrics) { metrics_ = metrics; }

  /// Clock and counter state for checkpoint/restore. Pending callbacks are
  /// std::functions and cannot be serialized, so checkpoints cut at quiescent
  /// points where the queue has drained; clock_state() captures everything a
  /// drained queue still carries (the schedule-order counter matters — it
  /// determines tie-break order of future same-time events).
  struct ClockState {
    std::int64_t now_us = 0;
    std::uint64_t seq = 0;
    std::uint64_t executed = 0;

    bool operator==(const ClockState&) const = default;
  };
  [[nodiscard]] ClockState clock_state() const {
    return ClockState{now_.as_micros(), seq_, executed_};
  }
  /// Restores the clock into an idle queue; any still-pending events are
  /// dropped first (their callbacks belong to the dead process image).
  void restore_clock(const ClockState& state) {
    clear();
    now_ = SimTime::from_micros(state.now_us);
    seq_ = state.seq;
    executed_ = state.executed;
  }

 private:
  struct Item {
    SimTime at;
    std::uint64_t seq;
    Callback fn;
  };
  struct Later {
    bool operator()(const Item& a, const Item& b) const {
      return a.at > b.at || (a.at == b.at && a.seq > b.seq);
    }
  };
  std::priority_queue<Item, std::vector<Item>, Later> queue_;
  SimTime now_;
  std::uint64_t seq_ = 0;
  std::uint64_t executed_ = 0;
  telemetry::MetricsRegistry* metrics_ = nullptr;
};

}  // namespace wlm::sim
