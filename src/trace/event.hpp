// Typed trace events (the tentpole of the deterministic-tracing subsystem).
//
// Every record is fixed-size and trivially copyable: a monotonic sequence
// number (assigned by the Tracer at emit time, so a full-system merge is
// totally ordered), the virtual-clock tick, the component the event belongs
// to, the event kind, and up to three small scalar arguments whose meaning
// depends on the kind (documented per enumerator). Events never carry
// pointers or strings — traces must be byte-identical across runs, worker
// threads, and --jobs settings.
#pragma once

#include <cstdint>

#include "support/clock.hpp"

namespace osiris::trace {

/// What happened. Argument conventions (a0/a1/a2) per kind:
enum class EventKind : std::uint8_t {
  // --- kernel IPC substrate (component 0 = kernel) -----------------------
  kIpcSend,     // a0=src ep, a1=dst ep, a2=message type
  kIpcNotify,   // a0=src ep, a1=dst ep, a2=notification type (without bit)
  kIpcCall,     // a0=src ep, a1=dst ep, a2=message type (nested sendrec)
  kIpcDeliver,  // a0=sender ep, a1=dst ep, a2=message type (dispatch entry)
  kGrantCopy,   // a0=grantee ep, a1=bytes, a2=0 read / 1 write

  // --- checkpointing (component = owning server) -------------------------
  kUndoAppend,    // a0=bytes captured, a1=entry count after the append
  kUndoTruncate,  // a0=entries discarded (checkpoint / log reset)
  kUndoRollback,  // a0=entries replayed

  // --- recovery windows (component = owning server) ----------------------
  kWindowOpen,   // no args
  kWindowClose,  // a0=CloseCause, a1=SeepClass for kSeep closes

  // --- fault injection (component = attributed server) -------------------
  kFaultFire,  // a0=site id, a1=fi::FaultType

  // --- recovery pipeline / escalation ladder (component = crashed server) -
  kCrash,               // a0=1 if hang-detected, a1=1 if classified recurring
  kRecoveryRestart,     // clone transfer (restart phase); no args
  kRecoveryRollback,    // undo-log replay; no args
  kRecoveryStateless,   // stateless-policy microreboot; no args
  kRecoveryQuarantine,  // a0=cooldown ticks, a1=1 if budget exhaustion
  kRecoveryReadmit,     // a0=rung the component was parked at

  // --- heartbeats --------------------------------------------------------
  kHeartbeatPing,  // component = RS; a0=pinged ep
  kHeartbeatPong,  // component = responding server; a0=RS ep

  // --- physiological health / storm rung (appended; component 0 = kernel
  // for fever events, the storming server for the rung) -------------------
  kFeverOnset,        // a0=fevered ep, a1=EWMA temperature, a2=1 if escalation
  kRecoveryThrottle,  // a0=detection latency (ticks since storm onset)
};

/// Why a recovery window closed (kWindowClose a0).
enum class CloseCause : std::uint8_t {
  kSeep = 0,          // an outbound SEEP the policy forbids
  kYield = 1,         // cooperative thread yield (SIV-E)
  kEndOfRequest = 2,  // request completed with the window still open
};

[[nodiscard]] constexpr const char* kind_name(EventKind k) {
  switch (k) {
    case EventKind::kIpcSend: return "IpcSend";
    case EventKind::kIpcNotify: return "IpcNotify";
    case EventKind::kIpcCall: return "IpcCall";
    case EventKind::kIpcDeliver: return "IpcDeliver";
    case EventKind::kGrantCopy: return "GrantCopy";
    case EventKind::kUndoAppend: return "UndoAppend";
    case EventKind::kUndoTruncate: return "UndoTruncate";
    case EventKind::kUndoRollback: return "UndoRollback";
    case EventKind::kWindowOpen: return "WindowOpen";
    case EventKind::kWindowClose: return "WindowClose";
    case EventKind::kFaultFire: return "FaultFire";
    case EventKind::kCrash: return "Crash";
    case EventKind::kRecoveryRestart: return "RecoveryRestart";
    case EventKind::kRecoveryRollback: return "RecoveryRollback";
    case EventKind::kRecoveryStateless: return "RecoveryStateless";
    case EventKind::kRecoveryQuarantine: return "RecoveryQuarantine";
    case EventKind::kRecoveryReadmit: return "RecoveryReadmit";
    case EventKind::kHeartbeatPing: return "HeartbeatPing";
    case EventKind::kHeartbeatPong: return "HeartbeatPong";
    case EventKind::kFeverOnset: return "FeverOnset";
    case EventKind::kRecoveryThrottle: return "RecoveryThrottle";
  }
  return "?";
}

[[nodiscard]] constexpr const char* close_cause_name(CloseCause c) {
  switch (c) {
    case CloseCause::kSeep: return "seep";
    case CloseCause::kYield: return "yield";
    case CloseCause::kEndOfRequest: return "end";
  }
  return "?";
}

struct Event {
  std::uint64_t seq = 0;   // tracer-wide monotonic emission counter
  Tick tick = 0;           // virtual-clock stamp
  std::int32_t comp = -1;  // endpoint value; 0 = kernel substrate
  EventKind kind = EventKind::kIpcSend;
  std::uint64_t a0 = 0;
  std::uint64_t a1 = 0;
  std::uint64_t a2 = 0;
};

}  // namespace osiris::trace
