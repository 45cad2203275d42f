// Escalation-ladder tuning (crash-loop detection and quarantine).
//
// Kept in its own header so OsConfig can embed the struct without pulling in
// the kernel-facing engine interface.
#pragma once

#include <cstdint>

#include "support/clock.hpp"

namespace osiris::recovery {

// The engine's escalating recovery ladder. A crash is *recurring* when the
// component accumulated kRecurringThreshold crashes within the trailing
// kCrashWindowTicks of virtual time (or is still on probation from an
// earlier escalation). Recurring crashes walk the ladder: policy-preferred
// recovery -> stateless restart with exponential backoff -> quarantine.
// Parked components are readmitted after their cooldown.

/// Sliding window for the crash-rate classifier.
inline constexpr Tick kCrashWindowTicks = 2000;
/// Crashes inside the window before the crash counts as recurring.
inline constexpr std::uint32_t kRecurringThreshold = 3;
/// Rung-1 stateless restarts granted before escalating to quarantine.
inline constexpr std::uint32_t kStatelessAttempts = 2;
/// Upper bound for the exponential backoff (rung 1 and rung 2 alike).
inline constexpr Tick kBackoffCapTicks = 16000;
/// Storm rung cooldown, when a throttled component's fever persists and it
/// escalates to quarantine. Separate from the quarantine cooldown because a
/// storm is contained the moment the throttle engages — the quarantine only
/// has to outlast fault disarm.
inline constexpr Tick kStormCooldownTicks = 4000;

/// Settable because scenarios shorten parks to fit their readmission in.
struct LadderConfig {
  /// First rung-1 backoff; doubles on every further escalation.
  Tick backoff_base_ticks = 250;
  /// Minimum park duration once a component reaches quarantine (rung 2).
  Tick quarantine_cooldown_ticks = 4000;
};

}  // namespace osiris::recovery
