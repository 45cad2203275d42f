// Physiological health monitor (DESIGN.md §15).
//
// Crash-shaped faults announce themselves: a trap, a corrupted reply, a
// heartbeat timeout. A *storm* does not — the component stays live, answers
// its heartbeats, and simply burns dispatches (handler spin) or buries a
// victim in well-formed requests (channel flood). Following Mira's
// "sentient kernel" framing, the kernel treats dispatch behaviour as a
// physiological signal: every delivery that produces no useful work —
// no recovery window opened, no reply produced, no deferred reply sent —
// is *charged to its sender*, and a per-endpoint EWMA of charged
// deliveries per scheduling quantum is the component's temperature.
// Sustained readings above threshold are a fever; the recovery ladder
// answers with throttle-then-quarantine (recovery::Engine::on_storm).
//
// Design constraints, all imposed by the simulator's execution model:
//
//  - Quanta are counted in *deliveries*, not virtual ticks. A storm
//    saturates the message queue, and the virtual clock only advances when
//    nothing is runnable — tick-based sampling would never fire mid-storm.
//  - Sender attribution, not receiver attribution. A flood victim's
//    dispatch rate spikes exactly like a spinning handler's; charging the
//    sender lands detection (and the rung) on the storming component.
//  - Quanta that span a long stretch of virtual time are "idle": their
//    sample decays the EWMA instead of charging it. Heartbeat pings/pongs
//    open no windows by design, so an idle phase is wall-to-wall
//    non-useful traffic — but it is *sparse in time*, which is precisely
//    what distinguishes it from a storm.
//  - All state lives in a std::map keyed by endpoint: deterministic
//    iteration order is what keeps storm campaigns byte-identical across
//    --jobs=1 and --jobs=4. An exiting client's entry is erased
//    (Kernel::unregister_client), so the map holds live endpoints only.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

namespace osiris::kernel {

/// Deliveries (dispatch attempts, including throttled drops) per quantum.
inline constexpr std::uint32_t kQuantumDispatches = 64;
/// Integer EWMA step: ewma += (sample - ewma) >> kEwmaShift.
inline constexpr std::uint32_t kEwmaShift = 2;
/// Fever: EWMA of charged deliveries per quantum above this value.
inline constexpr std::int64_t kFeverThreshold = 24;
/// Consecutive hot quanta before the first onset fires (one dense quantum is
/// a burst; a sustained run of them is a fever).
inline constexpr std::uint32_t kOnsetQuanta = 2;
/// Hot quanta under an active throttle before escalation re-fires the storm
/// handler (the quarantine half of throttle-then-quarantine).
inline constexpr std::uint32_t kEscalateQuanta = 4;
/// Deliveries a throttled sender still gets per quantum — a trickle, so a
/// persistent fault keeps surfacing and the ladder can escalate on it.
inline constexpr std::uint32_t kThrottleAllowance = 2;
/// Quanta spanning more virtual time than this are idle (heartbeat-paced)
/// and decay the EWMA instead of sampling the charge counter.
inline constexpr std::uint64_t kIdleQuantumTicks = 1000;

/// One fever decision the kernel surfaces to the recovery layer.
struct FeverEvent {
  std::int32_t endpoint = -1;
  std::int64_t ewma = 0;
  bool escalation = false;  // fever persisting under an active throttle
};

struct QuantumResult {
  std::vector<FeverEvent> fevers;
  bool starved = false;  // charged deliveries crowded out >1/2 the quantum
};

class HealthMonitor {
 public:
  /// Count one delivery toward the current quantum.
  void note_delivery() noexcept { ++fill_; }
  [[nodiscard]] bool quantum_due() const noexcept { return fill_ >= kQuantumDispatches; }

  /// Charge a non-useful delivery to its sender.
  void charge(std::int32_t sender) { ++state_[sender].charged; }

  /// Drop a dead endpoint's record, so the map — and every close_quantum
  /// sweep — covers live endpoints only.
  void forget(std::int32_t ep) {
    if (is_throttled(ep)) --throttled_;
    state_.erase(ep);
  }
  /// Endpoints currently tracked.
  [[nodiscard]] std::size_t tracked() const noexcept { return state_.size(); }

  // --- throttle bookkeeping (the rung's mechanism lives here; the kernel
  // only consults it at the delivery gate) ------------------------------
  void set_throttled(std::int32_t ep, bool on) {
    EpHealth& h = state_[ep];
    if (h.throttled != on) throttled_ = on ? throttled_ + 1 : throttled_ - 1;
    h.throttled = on;
    h.throttled_hot = 0;
    h.admitted = 0;
  }
  [[nodiscard]] bool is_throttled(std::int32_t ep) const {
    auto it = state_.find(ep);
    return it != state_.end() && it->second.throttled;
  }
  /// A throttled sender's delivery passes only while its per-quantum
  /// allowance lasts; callers drop (and keep charging) the rest. Runs on
  /// every delivery, so it returns at once while nothing is throttled.
  [[nodiscard]] bool admit(std::int32_t ep) {
    if (throttled_ == 0) return true;
    auto it = state_.find(ep);
    if (it == state_.end() || !it->second.throttled) return true;
    return ++it->second.admitted <= kThrottleAllowance;
  }

  /// Close the quantum: fold each endpoint's charge counter into its EWMA,
  /// run the fever edge/escalation logic, zero the per-quantum counters.
  QuantumResult close_quantum(std::uint64_t now_tick) {
    QuantumResult out;
    const bool idle = last_close_tick_ != 0 &&
                      now_tick - last_close_tick_ > kIdleQuantumTicks;
    std::uint64_t charged_total = 0;
    for (auto& [ep, h] : state_) {
      const std::int64_t sample =
          idle ? 0 : static_cast<std::int64_t>(h.charged);
      charged_total += h.charged;
      h.ewma += (sample - h.ewma) >> kEwmaShift;
      h.charged = 0;
      h.admitted = 0;
      const bool hot = h.ewma > kFeverThreshold;
      if (!hot) {
        h.hot_quanta = 0;
        h.throttled_hot = 0;
        h.fevered = false;
        continue;
      }
      ++h.hot_quanta;
      if (!h.throttled) {
        if (!h.fevered && h.hot_quanta >= kOnsetQuanta) {
          h.fevered = true;
          out.fevers.push_back(FeverEvent{ep, h.ewma, false});
        }
      } else if (++h.throttled_hot >= kEscalateQuanta) {
        h.throttled_hot = 0;
        out.fevers.push_back(FeverEvent{ep, h.ewma, true});
      }
    }
    out.starved = charged_total * 2 > kQuantumDispatches;
    fill_ = 0;
    last_close_tick_ = now_tick;
    return out;
  }

  /// Current temperature of an endpoint (tests, metrics).
  [[nodiscard]] std::int64_t ewma(std::int32_t ep) const {
    auto it = state_.find(ep);
    return it == state_.end() ? 0 : it->second.ewma;
  }
  [[nodiscard]] bool fevered(std::int32_t ep) const {
    auto it = state_.find(ep);
    return it != state_.end() && it->second.fevered;
  }

 private:
  struct EpHealth {
    std::uint64_t charged = 0;   // non-useful deliveries this quantum
    std::uint32_t admitted = 0;  // throttled deliveries let through this quantum
    std::int64_t ewma = 0;
    std::uint32_t hot_quanta = 0;     // consecutive quanta above threshold
    std::uint32_t throttled_hot = 0;  // hot quanta since the throttle engaged
    bool fevered = false;             // edge detector for onset events
    bool throttled = false;
  };

  std::map<std::int32_t, EpHealth> state_;  // ordered: deterministic sweeps
  std::size_t throttled_ = 0;               // entries with throttled set
  std::uint32_t fill_ = 0;                  // deliveries in the open quantum
  std::uint64_t last_close_tick_ = 0;
};

}  // namespace osiris::kernel
