// Recovery policies (paper SIV-B and SVI).
//
// The two OSIRIS policies differ in which SEEP classes close the recovery
// window; the two baseline policies (used in the survivability comparison,
// Tables II/III) do not checkpoint at all.
#pragma once

#include "seep/seep.hpp"

namespace osiris::seep {

enum class Policy : std::uint8_t {
  /// Baseline: restart the crashed component with *fresh initial state*
  /// (models microreboot systems; state is lost).
  kStateless,
  /// Baseline: restart the component but keep the crashed state as-is
  /// (best-effort, no rollback), and error-reply the requester.
  kNaive,
  /// OSIRIS pessimistic: sending *any* outbound message closes the window.
  kPessimistic,
  /// OSIRIS enhanced (default): only state-modifying SEEPs close the window.
  kEnhanced,
};

/// Does this policy maintain checkpoints / recovery windows at all?
[[nodiscard]] constexpr bool policy_uses_windows(Policy p) {
  return p == Policy::kPessimistic || p == Policy::kEnhanced;
}

/// Does an outbound message of the given SEEP class close the window?
[[nodiscard]] constexpr bool policy_closes_window(Policy p, SeepClass cls) {
  switch (p) {
    case Policy::kStateless:
    case Policy::kNaive:
      return false;  // no window to close
    case Policy::kPessimistic:
      return true;  // any outbound interaction
    case Policy::kEnhanced:
      return cls == SeepClass::kStateModifying;
  }
  return true;
}

[[nodiscard]] constexpr const char* policy_name(Policy p) {
  switch (p) {
    case Policy::kStateless: return "stateless";
    case Policy::kNaive: return "naive";
    case Policy::kPessimistic: return "pessimistic";
    case Policy::kEnhanced: return "enhanced";
  }
  return "?";
}

}  // namespace osiris::seep
