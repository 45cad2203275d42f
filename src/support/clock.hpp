// Virtual clock with a deadline queue.
//
// The simulated OS runs on virtual time measured in ticks. Components that
// model latency (the block device, heartbeat timers, the fig3 fault-influx
// driver) schedule callbacks at absolute tick deadlines; the kernel advances
// the clock to the next deadline whenever the system is otherwise idle.
#pragma once

#include <cstdint>
#include <functional>
#include <map>

#include "support/common.hpp"

namespace osiris {

using Tick = std::uint64_t;

class VirtualClock {
 public:
  [[nodiscard]] Tick now() const noexcept { return now_; }

  /// Schedule `fn` to run when the clock reaches `deadline` (>= now).
  void call_at(Tick deadline, std::function<void()> fn) {
    OSIRIS_ASSERT(deadline >= now_);
    pending_.emplace(deadline, std::move(fn));
  }

  /// Schedule `fn` to run `delay` ticks from now.
  void call_after(Tick delay, std::function<void()> fn) { call_at(now_ + delay, std::move(fn)); }

  [[nodiscard]] bool has_pending() const noexcept { return !pending_.empty(); }

  /// Advance time without running callbacks scheduled in the skipped span.
  /// Used by workloads that model pure computation time.
  void spin(Tick ticks) noexcept { now_ += ticks; }

  /// Advance to the earliest deadline and run every callback due at it.
  /// Returns false if nothing is pending.
  bool advance_to_next() {
    if (pending_.empty()) return false;
    now_ = std::max(now_, pending_.begin()->first);
    run_due();
    return true;
  }

  /// Run all callbacks whose deadline is <= now.
  void run_due() {
    while (!pending_.empty() && pending_.begin()->first <= now_) {
      auto fn = std::move(pending_.begin()->second);
      pending_.erase(pending_.begin());
      fn();
    }
  }

 private:
  Tick now_ = 0;
  std::multimap<Tick, std::function<void()>> pending_;
};

}  // namespace osiris
