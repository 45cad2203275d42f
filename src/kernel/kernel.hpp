// The simulated microkernel: process slots, message passing, grants,
// crash containment, and system lifecycle.
//
// This is the "message passing substrate" component of the paper's Reliable
// Computing Base (SVI-A item 5). It is deliberately small and fault-free:
// no fi:: probes are ever placed in this module.
//
// Execution model
// ---------------
// Everything runs on one host thread. System servers are event-driven and
// are dispatched synchronously, one message at a time, from the kernel's
// message queue. Server-to-server sendrec is a *nested* synchronous call()
// on the host stack, which models MINIX's rendezvous IPC: the caller is
// blocked until the callee replies. User processes are fibers managed by the
// OS layer; the kernel only sees them as IClient callbacks.
//
// Fault containment
// -----------------
// A fail-stop fault inside a server raises kernel::FailStopFault, which the
// kernel catches exactly at that server's dispatch boundary. The registered
// crash handler (the recovery engine, part of the RCB) then performs the
// restart/rollback/reconciliation pipeline and tells the kernel how to
// resolve the in-flight request: error-virtualized reply, no reply, or
// controlled shutdown. While the handler runs, nothing else in the system
// executes — this implements the paper's "stall userland during recovery"
// single-failure guarantee.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>

#include "kernel/grant.hpp"
#include "kernel/health.hpp"
#include "kernel/iface.hpp"
#include "kernel/message.hpp"
#include "support/clock.hpp"

namespace osiris::kernel {

/// What the crash handler decided after running the recovery pipeline.
enum class CrashAction : std::uint8_t {
  kErrorReply,      // reconciliation: send an error-virtualized reply to the requester
  kNoReply,         // component restarted; requester (if any) stays blocked
  kShutdown,        // consistent recovery impossible: controlled shutdown
  kGiveUp,          // recovery itself failed: the system is wedged (counts as crash)
};

struct CrashContext {
  Endpoint crashed = kNoEndpoint;
  bool had_inflight = false;
  Message inflight;     // the message being processed when the fault hit
  bool was_hang = false;  // detected via heartbeat rather than a fail-stop trap
  std::string what;     // fault description for logs
};

struct CrashDecision {
  CrashAction action = CrashAction::kShutdown;
  Message reply;  // used when action == kErrorReply
};

using CrashHandler = std::function<CrashDecision(const CrashContext&)>;

enum class SystemState : std::uint8_t { kRunning, kShutdown, kCrashed };

/// Predicate over a message type (notify/reply bits stripped), installed by
/// the OS layer so the substrate stays below the protocol.
using MsgTypePredicate = bool (*)(std::uint32_t type);

struct KernelStats {
  std::uint64_t messages_queued = 0;
  std::uint64_t server_dispatches = 0;
  std::uint64_t nested_calls = 0;
  std::uint64_t notifies = 0;
  std::uint64_t replies_to_clients = 0;
  std::uint64_t crashes = 0;
  std::uint64_t hangs = 0;
  std::uint64_t quarantine_rejects = 0;  // sends error-virtualized at a parked endpoint
  std::uint64_t safecopy_bytes = 0;
  std::uint64_t grants_created = 0;
  // --- queue and zero-copy accounting (DESIGN.md §14) -----------------
  std::uint64_t queue_high_water = 0;    // deepest the message queue ever got
  std::uint64_t grant_bypass_bytes = 0;  // payload bytes moved via zero-copy spans
  std::uint64_t grant_spans = 0;         // zero-copy span handouts
  // --- physiological health / storm accounting (DESIGN.md §15) ---------
  std::uint64_t health_charges = 0;   // non-useful deliveries charged to senders
  std::uint64_t fever_onsets = 0;     // EWMA fever threshold crossings
  std::uint64_t throttled_drops = 0;  // deliveries dropped at the storm-throttle gate
  std::uint64_t starved_quanta = 0;   // quanta where charged traffic crowded out >1/2
  std::uint64_t dispatch_aborts = 0;  // drain loops cut short by the livelock valve
};

class Kernel {
 public:
  explicit Kernel(VirtualClock& clock) : clock_(clock) {}

  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  // --- registration ---------------------------------------------------

  /// Register a system server at a well-known endpoint (kPmEp etc.).
  void register_server(Endpoint ep, IServer* srv);

  /// Register a user process; allocates a fresh endpoint.
  Endpoint register_client(IClient* cli);
  /// Forget a user process, and drop every grant it still owns.
  void unregister_client(Endpoint ep);
  /// Registered user processes.
  [[nodiscard]] std::size_t client_count() const noexcept { return clients_.size(); }

  [[nodiscard]] bool is_server(Endpoint ep) const;

  // --- IPC -------------------------------------------------------------

  /// Queue an asynchronous message from src to dst (server or client).
  void send(Endpoint src, Endpoint dst, Message m);

  /// Queue a notification (no reply expected).
  void notify(Endpoint src, Endpoint dst, std::uint32_t type);

  /// Synchronous sendrec from a *server* to another server: the callee's
  /// handler runs nested on the current stack and its reply is returned.
  /// If the callee crashes and reconciliation yields an error reply, that
  /// reply (status E_CRASH) is returned here, exactly as a blocked MINIX
  /// caller would observe it.
  Message call(Endpoint src, Endpoint dst, Message m);

  /// Deliver a reply to a client's outstanding sendrec (used by servers that
  /// reply asynchronously, and by the recovery engine's reconciliation).
  void reply_to(Endpoint dst, Message m);

  // --- grants ----------------------------------------------------------

  GrantId make_grant(Endpoint owner, Endpoint grantee, std::byte* base, std::size_t len,
                     Access access);
  /// Erase the grant: the table holds live grants only, and a safecopy
  /// through a revoked or unknown id fails with E_INVAL.
  void revoke_grant(GrantId id);
  std::int64_t safecopy_from(Endpoint grantee, GrantId id, std::size_t offset, void* dst,
                             std::size_t len);
  std::int64_t safecopy_to(Endpoint grantee, GrantId id, std::size_t offset, const void* src,
                           std::size_t len);

  /// Zero-copy: a validated direct span over the grant region, so bulk
  /// payloads skip the staging buffer + safecopy. Same checks (and error
  /// codes) as safecopy; returns nullptr with *err set on failure. The span
  /// itself emits no trace event and bumps no copy counter — callers note the
  /// logical copy with note_grant_bypass() at exactly the point a safecopy
  /// would have run, so the trace reads the same as the MINIX copy idiom.
  std::byte* grant_span(Endpoint grantee, GrantId id, std::size_t offset, std::size_t len,
                        Access need, std::int64_t* err);

  /// Account (and trace) a logical grant copy that a grant span performed in
  /// place. dir: 0 = from grant (read by grantee), 1 = to grant.
  void note_grant_bypass(Endpoint grantee, std::size_t len, int dir);

  // --- scheduling ------------------------------------------------------

  /// Drain the message queue, dispatching each message. Returns true if at
  /// least one message was processed. May throw ControlledShutdown.
  bool dispatch_pending();

  /// Livelock valve: cap deliveries per dispatch_pending() call. An
  /// *undetected* self-sustaining storm feeds the drain loop forever while
  /// the virtual clock stands still; past the cap the backlog is dropped
  /// (stats().dispatch_aborts) so the run loop regains control. 0 = off.
  void set_dispatch_burst_cap(std::uint64_t cap) noexcept { burst_cap_ = cap; }

  [[nodiscard]] bool queue_empty() const noexcept { return queue_.empty(); }

  // --- crash integration ------------------------------------------------

  void set_crash_handler(CrashHandler handler) { crash_handler_ = std::move(handler); }

  [[nodiscard]] bool is_hung(Endpoint ep) const;

  /// Mark a server hung with the message it was processing (used by the
  /// hang fault model; the server stops responding until RS notices).
  void mark_hung(Endpoint ep, const Message& inflight);

  /// Invoked by the Recovery Server when a heartbeat timeout fires:
  /// converts the hang into a crash event and runs the recovery pipeline.
  void recover_hung(Endpoint ep);

  // --- quarantine (graceful degradation) --------------------------------

  /// Park a server: until lifted, every send to it is error-virtualized
  /// (E_CRASH) instead of delivered, so clients and dependent servers keep
  /// running in degraded mode rather than deadlocking on a crash-looping
  /// component. Used by the recovery engine's escalation ladder.
  void quarantine(Endpoint ep);
  void lift_quarantine(Endpoint ep);
  [[nodiscard]] bool is_quarantined(Endpoint ep) const;

  // --- physiological health (storm detection; DESIGN.md §15) -----------

  [[nodiscard]] const HealthMonitor& health() const noexcept { return health_; }

  /// Recovery-layer callback invoked (at the dispatch boundary, never
  /// nested) when an endpoint's fever crosses threshold or persists under
  /// an active throttle. Wired to recovery::Engine::on_storm by the OS.
  /// Installing it switches the health monitor on: sampling, sender
  /// charging and the throttle gate run exactly when a handler is set.
  void set_storm_handler(std::function<void(Endpoint)> handler) {
    storm_handler_ = std::move(handler);
  }

  /// The storm rung's first response: a throttled endpoint's *sends* are
  /// dropped (replyable requests error-virtualized) beyond a small
  /// per-quantum allowance, so its victims unblock while it stays live.
  void throttle(Endpoint ep) { health_.set_throttled(ep.value, true); }
  void unthrottle(Endpoint ep) { health_.set_throttled(ep.value, false); }
  [[nodiscard]] bool is_throttled(Endpoint ep) const {
    return health_.is_throttled(ep.value);
  }

  /// Hook exempting message types from the throttle gate; set by the OS
  /// layer (heartbeat protocol traffic — the liveness substrate must stay
  /// truthful even while its sender is throttled, or dropping pongs would
  /// convert every throttle into a phantom hang). Unset means no exemption.
  void set_throttle_exempt(MsgTypePredicate fn) noexcept { throttle_exempt_ = fn; }

  // --- system lifecycle ---------------------------------------------------

  [[nodiscard]] SystemState state() const noexcept { return state_; }
  [[nodiscard]] const std::string& halt_reason() const noexcept { return halt_reason_; }

  /// Controlled shutdown: consistent but final (paper's "shutdown" outcome).
  void request_shutdown(std::string reason);

  /// Uncontrolled crash: the system is wedged (paper's "crash" outcome).
  void mark_crashed(std::string reason);

  VirtualClock& clock() noexcept { return clock_; }
  [[nodiscard]] const KernelStats& stats() const noexcept { return stats_; }

 private:
  struct ServerSlot {
    IServer* srv = nullptr;
    bool hung = false;
    bool quarantined = false;
    bool in_dispatch = false;
    Message inflight;
  };

  struct Queued {
    Endpoint dst;
    Message msg;
  };

  void deliver_to_server(ServerSlot& slot, Endpoint dst, const Message& m);
  /// Close the health quantum if due and run fever decisions. Only called
  /// from deliver_to_server exits, which all sit at dispatch depth zero
  /// (nested sendrec goes through call(), not here), so the storm handler
  /// never interrupts a server mid-dispatch.
  void health_quantum_tick();
  void route_reply(Endpoint dst, Message reply);
  void enqueue(Endpoint dst, const Message& m);
  void handle_crash(Endpoint crashed, const CrashContext& ctx);
  const Grant* check_grant(Endpoint grantee, GrantId id, std::size_t offset, std::size_t len,
                           Access need, std::int64_t* err) const;

  VirtualClock& clock_;
  std::unordered_map<std::int32_t, ServerSlot> servers_;
  std::unordered_map<std::int32_t, IClient*> clients_;
  std::deque<Queued> queue_;
  std::uint64_t burst_cap_ = 0;
  MsgTypePredicate throttle_exempt_ = nullptr;
  std::unordered_map<GrantId, Grant> grants_;
  GrantId next_grant_ = 1;
  std::int32_t next_client_ep_ = kFirstUserEndpoint;
  CrashHandler crash_handler_;
  HealthMonitor health_;
  std::function<void(Endpoint)> storm_handler_;
  SystemState state_ = SystemState::kRunning;
  std::string halt_reason_;
  KernelStats stats_;
};

}  // namespace osiris::kernel
