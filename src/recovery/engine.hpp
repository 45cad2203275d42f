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
// re-fires on the next request and produces a crash loop. The engine
// therefore keeps a per-component crash history (virtual-clock timestamps)
// and classifies every crash as transient or recurring with a sliding-window
// rate. Recurring crashes walk an escalation ladder instead of repeating the
// policy-preferred recovery forever:
//
//   rung 0  policy-preferred recovery (transient crashes only)
//   rung 1  stateless restart + exponential-backoff park
//   rung 2  quarantine: the component is parked for a long cooldown while
//           the kernel error-virtualizes every send to it — graceful
//           degradation, not shutdown; unrelated workloads keep running.
//
// Parked components are readmitted after their cooldown, normally scheduled
// on the virtual clock by RS (which also reports the slot as quarantined in
// heartbeat/status terms); the engine schedules the readmission itself when
// RS cannot be reached (RS absent, or RS is the parked component).
//
// NO fault-injection probes are placed in this module: the paper's fault
// model assumes the RCB is fault-free, and faults during recovery are
// excluded by the single-failure assumption.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "kernel/kernel.hpp"
#include "recovery/ladder.hpp"
#include "recovery/recoverable.hpp"
#include "seep/policy.hpp"

namespace osiris::recovery {

struct EngineStats {
  std::uint64_t crashes_seen = 0;
  std::uint64_t restarts = 0;
  std::uint64_t rollbacks = 0;
  std::uint64_t error_replies = 0;
  std::uint64_t shutdowns = 0;
  std::uint64_t giveups = 0;
  std::uint64_t stateless_restarts = 0;
  std::uint64_t naive_restarts = 0;
  std::uint64_t fom_reconciles = 0;  // windowed recoveries reconciled by the FOM executor
  // --- escalation ladder -------------------------------------------------
  std::uint64_t transient_crashes = 0;  // classified below the recurrence rate
  std::uint64_t recurring_crashes = 0;  // classified as a crash loop
  std::uint64_t ladder_stateless = 0;   // rung-1 restarts (with backoff park)
  std::uint64_t quarantines = 0;        // rung-2 escalations
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
};

class Engine {
 public:
  /// `max_recoveries_per_component` bounds crash storms: a component that
  /// exhausts its budget is forced onto the ladder's quarantine rung (the
  /// system degrades instead of wedging).
  Engine(kernel::Kernel& kernel, seep::Policy policy,
         std::uint32_t max_recoveries_per_component = 8, LadderConfig ladder = {});

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Register a recoverable component and pre-allocate its spare clone.
  void register_component(Recoverable* comp);

  /// Kernel crash-handler entry point.
  kernel::CrashDecision on_crash(const kernel::CrashContext& ctx);

  /// Kernel storm-handler entry point (health-monitor fever decisions): the
  /// ladder's storm rung, slotted between rung 1's backoff restart and rung
  /// 2's quarantine. First fever onset throttles the component (its sends
  /// are error-virtualized past an allowance, so victims unblock while it
  /// stays live); a fever that persists under the throttle escalates to
  /// quarantine and disarms the storm fault so readmission is clean.
  /// Existing rung numbering is untouched — golden traces embed rungs.
  void on_storm(kernel::Endpoint ep);

  /// Lift a parked component's quarantine after its cooldown expired.
  /// Invoked from a virtual-clock callback (scheduled by RS, or by the
  /// engine itself when RS is unreachable); idempotent.
  void readmit(kernel::Endpoint ep);

  [[nodiscard]] seep::Policy policy() const noexcept { return policy_; }
  [[nodiscard]] const EngineStats& stats() const noexcept { return stats_; }

  /// Bytes pre-allocated for a component's spare clone (Table VI).
  [[nodiscard]] std::size_t clone_bytes(kernel::Endpoint ep) const;

  /// Recovery count per component (for diagnostics and tests).
  [[nodiscard]] std::uint32_t recoveries_of(kernel::Endpoint ep) const;

  /// Ladder position per component (for RS status reporting and tests).
  [[nodiscard]] bool is_parked(kernel::Endpoint ep) const;
  [[nodiscard]] std::uint32_t rung_of(kernel::Endpoint ep) const;

 private:
  /// One entry of the per-component crash history ring.
  struct CrashRecord {
    Tick when = 0;
    bool was_hang = false;
  };
  static constexpr std::size_t kHistoryLen = 8;

  struct Slot {
    Recoverable* comp = nullptr;
    /// Spare clone image, pre-allocated at registration (restart phase).
    std::vector<std::byte> clone_image;
    /// Pristine boot-time state for stateless restarts.
    std::vector<std::byte> boot_image;
    std::uint32_t recoveries = 0;
    // --- crash history and ladder position -------------------------------
    std::array<CrashRecord, kHistoryLen> history{};
    std::size_t history_head = 0;  // next write position in the ring
    std::size_t history_len = 0;
    std::uint32_t stateless_tries = 0;  // rung-1 restarts consumed
    std::uint32_t rung = 0;             // last ladder rung taken (0/1/2)
    Tick backoff = 0;                   // current exponential park duration
    bool parked = false;
    /// A crash before this deadline counts as recurring even if the sliding
    /// window has slid past the old crashes — long parks must not launder a
    /// crash loop back into "transient".
    Tick probation_until = 0;
  };

  kernel::CrashDecision recover_windowed(Slot& slot, const kernel::CrashContext& ctx);
  kernel::CrashDecision recover_stateless(Slot& slot, const kernel::CrashContext& ctx);
  kernel::CrashDecision recover_naive(Slot& slot, const kernel::CrashContext& ctx);
  kernel::CrashDecision escalate(Slot& slot, const kernel::CrashContext& ctx, Tick now);
  void restart_phase(Slot& slot);
  void reset_to_boot_image(Slot& slot);
  void record_crash(Slot& slot, Tick now, bool was_hang);
  [[nodiscard]] std::uint32_t crashes_in_window(const Slot& slot, Tick now) const;
  void announce_park(kernel::Endpoint ep, Tick cooldown, std::uint32_t rung);
  [[nodiscard]] bool replyable(const kernel::CrashContext& ctx) const;
  /// Reconciliation by error virtualization: answer the in-flight request
  /// with kernel::make_crash_reply and count it.
  kernel::CrashDecision error_reply(const kernel::CrashContext& ctx);

  kernel::Kernel& kernel_;
  seep::Policy policy_;
  std::uint32_t max_recoveries_;
  LadderConfig ladder_;
  std::unordered_map<std::int32_t, Slot> slots_;
  EngineStats stats_;
};

}  // namespace osiris::recovery
