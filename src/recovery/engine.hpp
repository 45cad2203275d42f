// The recovery engine: restart, rollback, reconciliation (paper SIV-C),
// plus the escalation ladder for persistent faults.
//
// The engine is the heart of the Reliable Computing Base. It is registered
// as the kernel's crash handler; when a component suffers a fail-stop fault
// (or a heartbeat-detected hang), the kernel invokes on_crash() while the
// rest of the system is stalled, and the engine:
//
//   1. restart — transfers the crashed component's data section into the
//      spare clone prepared at registration time. For core system servers
//      the clone's memory is pre-allocated at boot (fork() would not work
//      while PM/VM are down); the pre-allocation is what Table VI's "+clone"
//      column measures.
//   2. rollback — replays the component's undo log in reverse, restoring the
//      checkpoint taken at the top of the request processing loop (only
//      under the window-based policies, and only meaningful if the window
//      was open at crash time).
//   3. reconciliation — decides the system-wide outcome: error-virtualize
//      (reply E_CRASH to the requester, which also handles persistent
//      faults), or controlled shutdown when consistency cannot be proven.
//
// Error virtualization "also handles persistent faults" only in the sense
// that the buggy *request* is discarded; a persistent fault in a hot path
// re-fires on the next request and produces a crash loop: crashes with no
// completed work between them. A crash is therefore recurring when the
// component is parked, when its recovery budget is spent, or when it is the
// kRecurringThreshold-th crash in a row with no completed dispatch of the
// component between them (Recoverable::completed_dispatches); virtual time,
// which does not advance during CPU work, plays no part. Recurring crashes
// skip the policy and go straight to quarantine (DESIGN.md §10):
//
//   rung 0  policy-preferred recovery (transient crashes only)
//   rung 2  quarantine: the component restarts from its boot image and is
//           parked for a cooldown while the kernel error-virtualizes every
//           send to it — graceful degradation, not shutdown; unrelated
//           workloads keep running. (There is no rung 1.)
//
// The engine alone owns a quarantine: entering it arms the readmission
// timer on the virtual clock, and the timer lifts it after the cooldown. RS
// keeps no copy of the park: it reads the kernel's quarantine flag to skip
// the parked slot in its heartbeat sweep and to answer RS_STATUS. The engine
// sends no message to anyone.
//
// NO fault-injection probes are placed in this module: the paper's fault
// model assumes the RCB is fault-free, and faults during recovery are
// excluded by the single-failure assumption.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "kernel/kernel.hpp"
#include "recovery/recoverable.hpp"
#include "seep/policy.hpp"

namespace osiris::recovery {

/// Crashes in a row, with no completed dispatch of the component between
/// them, that make a crash loop.
inline constexpr std::uint32_t kRecurringThreshold = 3;

struct EngineStats {
  std::uint64_t crashes_seen = 0;
  std::uint64_t restarts = 0;
  std::uint64_t rollbacks = 0;
  std::uint64_t error_replies = 0;
  std::uint64_t shutdowns = 0;
  std::uint64_t giveups = 0;
  std::uint64_t stateless_restarts = 0;
  std::uint64_t naive_restarts = 0;
  // --- escalation ladder -------------------------------------------------
  std::uint64_t transient_crashes = 0;  // handed to the policy's recovery
  std::uint64_t quarantines = 0;        // crashes classified recurring (rung 2)
  std::uint64_t budget_quarantines = 0;  // recovery budget exhausted -> rung 2
  std::uint64_t readmissions = 0;        // parked components re-admitted
  // --- storm rung (liveness faults, DESIGN.md §15) -----------------------
  std::uint64_t storm_throttles = 0;    // fever onsets answered with a throttle
  std::uint64_t storm_quarantines = 0;  // fevers persisting under throttle
  std::uint64_t storm_disarms = 0;      // storm faults disarmed at quarantine
  /// Ticks from storm onset (first storm-fault fire) to the throttle
  /// engaging, for the *first* detection this engine made. Spin storms
  /// freeze the virtual clock, so their latency legitimately reads ~0;
  /// flood storms accumulate pump periods.
  Tick detection_latency_ticks = 0;
  bool storm_detected = false;  // latch: detection_latency_ticks is valid

  friend bool operator==(const EngineStats&, const EngineStats&) = default;
};

class Engine {
 public:
  /// `max_recoveries_per_component` bounds crash storms: a component that
  /// exhausts its budget is forced onto the ladder's quarantine rung (the
  /// system degrades instead of wedging). Every quarantine, of a crash loop
  /// or of a storm, parks the component for `quarantine_cooldown_ticks`.
  Engine(kernel::Kernel& kernel, seep::Policy policy,
         std::uint32_t max_recoveries_per_component = 8, Tick quarantine_cooldown_ticks = 4000);

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Register a recoverable component and pre-allocate its spare clone.
  void register_component(Recoverable* comp);

  /// Kernel crash-handler entry point.
  kernel::CrashDecision on_crash(const kernel::CrashContext& ctx);

  /// Kernel storm-handler entry point (health-monitor fever decisions): the
  /// ladder's storm rung, in front of quarantine. First fever onset
  /// throttles the component (its sends are error-virtualized past an
  /// allowance, so victims unblock while it stays live); a fever that
  /// persists under the throttle escalates to quarantine and disarms the
  /// storm fault so readmission is clean.
  void on_storm(kernel::Endpoint ep);

  /// Lift a parked component's quarantine after its cooldown expired.
  /// Invoked from the virtual-clock callback that entering quarantine
  /// armed; idempotent.
  void readmit(kernel::Endpoint ep);

  [[nodiscard]] seep::Policy policy() const noexcept { return policy_; }
  [[nodiscard]] const EngineStats& stats() const noexcept { return stats_; }

  /// Bytes pre-allocated for a component's spare clone (Table VI).
  [[nodiscard]] std::size_t clone_bytes(kernel::Endpoint ep) const;

  /// Recovery count per component (for diagnostics and tests).
  [[nodiscard]] std::uint32_t recoveries_of(kernel::Endpoint ep) const;

  /// Ladder position per component (for tests): parked in quarantine or not.
  [[nodiscard]] bool is_parked(kernel::Endpoint ep) const;

 private:
  /// The rung the RecoveryReadmit trace event reports for quarantine.
  static constexpr std::uint32_t kQuarantineRung = 2;

  struct Slot {
    Recoverable* comp = nullptr;
    /// Spare clone image, pre-allocated at registration (restart phase).
    std::vector<std::byte> clone_image;
    /// Pristine boot-time state for stateless restarts and quarantine.
    std::vector<std::byte> boot_image;
    std::uint32_t recoveries = 0;
    // --- crash-loop detection and ladder position ------------------------
    std::uint32_t crash_streak = 0;         // crashes since the last completed dispatch
    std::uint64_t dispatches_at_crash = 0;  // completed_dispatches() at the last crash
    bool parked = false;
  };

  kernel::CrashDecision recover_windowed(Slot& slot, const kernel::CrashContext& ctx);
  kernel::CrashDecision recover_stateless(Slot& slot, const kernel::CrashContext& ctx);
  kernel::CrashDecision recover_naive(Slot& slot, const kernel::CrashContext& ctx);
  kernel::CrashDecision escalate(Slot& slot, const kernel::CrashContext& ctx, bool over_budget);
  void restart_phase(Slot& slot);
  void reset_to_boot_image(Slot& slot);
  /// Rung 2: trace the quarantine, reset the component to its boot image,
  /// have the kernel reject every send to it and arm the readmission timer.
  void enter_quarantine(Slot& slot, bool over_budget);
  [[nodiscard]] bool replyable(const kernel::CrashContext& ctx) const;
  /// Reconciliation by error virtualization: answer the in-flight request
  /// with kernel::make_crash_reply and count it.
  kernel::CrashDecision error_reply(const kernel::CrashContext& ctx);

  kernel::Kernel& kernel_;
  seep::Policy policy_;
  std::uint32_t max_recoveries_;
  Tick quarantine_cooldown_;
  std::unordered_map<std::int32_t, Slot> slots_;
  EngineStats stats_;
};

}  // namespace osiris::recovery
