// Exception types modelling the paper's fault and shutdown events.
//
// A FailStopFault is thrown by an injected fault (or by a server's own
// defensive checks) while a component is executing; the kernel catches it at
// the dispatch boundary of that component, which models MMU-enforced fault
// containment: the fault never corrupts other components.
//
// ControlledShutdown is thrown by the recovery engine when consistent
// recovery is impossible (recovery window closed); it unwinds to the
// top-level scheduler, which halts the simulated machine in a consistent
// state (paper SIII-C / SIV-C reconciliation).
#pragma once

#include <stdexcept>
#include <string>

namespace osiris::kernel {

class FailStopFault : public std::runtime_error {
 public:
  explicit FailStopFault(std::string what) : std::runtime_error(std::move(what)) {}
};

class ControlledShutdown : public std::runtime_error {
 public:
  explicit ControlledShutdown(std::string reason) : std::runtime_error(std::move(reason)) {}
};

/// Thrown to unwind a component that just became hung (the hang fault model:
/// the handler "never returns"). The kernel catches it at the dispatch
/// boundary without treating it as a crash; the Recovery Server's heartbeat
/// sweep later detects the hang and converts it into a crash event.
struct HangSuspend {};

}  // namespace osiris::kernel
