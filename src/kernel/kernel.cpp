#include "kernel/kernel.hpp"

#include <algorithm>
#include <cstring>

#include "kernel/faults.hpp"
#include "support/common.hpp"
#include "support/log.hpp"
#include "trace/trace.hpp"

// Kernel substrate events are attributed to trace component 0 (the kernel):
// the IPC arguments carry the src/dst endpoints, so per-server timelines are
// recoverable from the merge while the substrate keeps one bounded ring.
namespace {
constexpr std::int32_t kTraceKernel = 0;
}  // namespace

namespace osiris::kernel {

namespace {

/// Virtual latency of an error-virtualized reply from a quarantined
/// endpoint. Nonzero on purpose: clients that retry against a parked server
/// must advance virtual time with every attempt, or the readmission deadline
/// scheduled on the clock could never be reached.
constexpr Tick kQuarantineReplyLatency = 5;

}  // namespace

void Kernel::register_server(Endpoint ep, IServer* srv) {
  OSIRIS_ASSERT(srv != nullptr);
  OSIRIS_ASSERT(ep.valid() && ep.value < kFirstUserEndpoint);
  OSIRIS_ASSERT(servers_.find(ep.value) == servers_.end());
  servers_[ep.value].srv = srv;
}

Endpoint Kernel::register_client(IClient* cli) {
  OSIRIS_ASSERT(cli != nullptr);
  Endpoint ep{next_client_ep_++};
  clients_[ep.value] = cli;
  return ep;
}

void Kernel::unregister_client(Endpoint ep) {
  clients_.erase(ep.value);
  health_.forget(ep.value);
  // A process that dies blocked in a syscall never revokes the grant it
  // made for that call, and a server may still hold its id (a pipe
  // waiter): the memory behind it is gone with the process.
  std::erase_if(grants_, [ep](const LiveGrant& g) { return g.grant.owner == ep; });
}

bool Kernel::is_server(Endpoint ep) const { return servers_.count(ep.value) != 0; }

void Kernel::send(Endpoint src, Endpoint dst, Message m) {
  if (state_ != SystemState::kRunning) return;
  m.sender = src;
  ++stats_.messages_queued;
  // Notifications already traced a kIpcNotify in notify().
  if (!is_notify(m.type)) {
    OSIRIS_TRACE_EVENT(kIpcSend, kTraceKernel, static_cast<std::uint64_t>(src.value),
                       static_cast<std::uint64_t>(dst.value), m.type);
  }
  enqueue(dst, m);
}

void Kernel::enqueue(Endpoint dst, const Message& m) {
  if (queue_len_ == queue_.size()) {
    // Full: put the pending deliveries in order at the front, then double.
    std::rotate(queue_.begin(), queue_.begin() + queue_head_, queue_.end());
    queue_.resize(queue_.empty() ? kQueueMinSlots : 2 * queue_.size());
    queue_head_ = 0;
  }
  Queued& slot = queue_[(queue_head_ + queue_len_) & (queue_.size() - 1)];
  slot.dst = dst;
  slot.msg = m;
  ++queue_len_;
  if (queue_len_ > stats_.queue_high_water) stats_.queue_high_water = queue_len_;
}

void Kernel::notify(Endpoint src, Endpoint dst, std::uint32_t type) {
  Message m;
  m.type = type | kNotifyBit;
  ++stats_.notifies;
  OSIRIS_TRACE_EVENT(kIpcNotify, kTraceKernel, static_cast<std::uint64_t>(src.value),
                     static_cast<std::uint64_t>(dst.value), type);
  send(src, dst, m);
}

Message Kernel::call(Endpoint src, Endpoint dst, Message m) {
  OSIRIS_ASSERT(is_server(dst));
  if (state_ != SystemState::kRunning) throw ControlledShutdown("call while halting");
  ServerSlot& slot = servers_[dst.value];
  m.sender = src;
  ++stats_.nested_calls;
  OSIRIS_TRACE_EVENT(kIpcCall, kTraceKernel, static_cast<std::uint64_t>(src.value),
                     static_cast<std::uint64_t>(dst.value), m.type);

  if (slot.quarantined) {
    // Graceful degradation: a call into a parked component fails fast with
    // an error-virtualized reply instead of blocking the caller forever.
    // This is what keeps dependent servers' sendrecs from deadlocking while
    // a crash-looping component sits in quarantine.
    ++stats_.quarantine_rejects;
    return make_crash_reply(m);
  }

  if (slot.hung) {
    // Calling a hung server blocks the caller forever: the caller itself is
    // now effectively hung mid-request. Unwind it and mark it hung so the
    // Recovery Server's heartbeat sweep will eventually recover both.
    throw HangSuspend{};
  }

  // Nested synchronous dispatch (rendezvous IPC). A crash in the callee is
  // contained right here, before the caller resumes, and the reconciliation
  // result is returned to the caller as its reply.
  ++stats_.server_dispatches;
  try {
    std::optional<Message> reply = slot.srv->dispatch(m);
    OSIRIS_ASSERT(reply.has_value());  // nested calls must be replied to inline
    return *reply;
  } catch (const FailStopFault& f) {
    const CrashDecision d =
        contain({.crashed = dst, .had_inflight = true, .inflight = m, .what = f.what()});
    if (d.action == CrashAction::kErrorReply) return d.reply;
    // The machine halted: unwind the caller to the run loop.
    if (d.action == CrashAction::kGiveUp) throw ControlledShutdown(halt_reason_);
    // kNoReply: the caller can never be unblocked; treat it as hung mid-request.
    throw HangSuspend{};
  } catch (const HangSuspend&) {
    // The callee hung (fault model). The caller is blocked on it forever:
    // mark the callee hung and propagate so the caller's own dispatch
    // boundary marks the caller hung as well.
    if (!slot.hung) mark_hung(dst, m);
    throw;
  }
}

void Kernel::reply_to(Endpoint dst, Message m) {
  ++stats_.replies_to_clients;
  send(kKernelEp, dst, m);
}

GrantId Kernel::make_grant(Endpoint owner, Endpoint grantee, std::byte* base, std::size_t len,
                           Access access) {
  GrantId id = next_grant_++;
  grants_.push_back(LiveGrant{id, Grant{owner, grantee, base, len, access}});
  ++stats_.grants_created;
  return id;
}

void Kernel::revoke_grant(GrantId id) {
  auto it = std::find_if(grants_.begin(), grants_.end(),
                         [id](const LiveGrant& g) { return g.id == id; });
  if (it == grants_.end()) return;
  *it = grants_.back();
  grants_.pop_back();
}

const Grant* Kernel::check_grant(Endpoint grantee, GrantId id, std::size_t offset,
                                 std::size_t len, Access need, std::int64_t* err) const {
  auto it = std::find_if(grants_.begin(), grants_.end(),
                         [id](const LiveGrant& g) { return g.id == id; });
  if (it == grants_.end()) {
    *err = E_INVAL;
    return nullptr;
  }
  const Grant& g = it->grant;
  if (g.grantee != grantee) {
    *err = E_PERM;
    return nullptr;
  }
  if (offset > g.len || len > g.len - offset) {
    *err = E_INVAL;
    return nullptr;
  }
  const auto need_bits = static_cast<std::uint8_t>(need);
  if ((static_cast<std::uint8_t>(g.access) & need_bits) != need_bits) {
    *err = E_PERM;
    return nullptr;
  }
  *err = OK;
  return &g;
}

std::int64_t Kernel::safecopy_from(Endpoint grantee, GrantId id, std::size_t offset, void* dst,
                                   std::size_t len) {
  std::int64_t err = OK;
  const Grant* g = check_grant(grantee, id, offset, len, Access::kRead, &err);
  if (!g) return err;
  std::memcpy(dst, g->base + offset, len);
  stats_.safecopy_bytes += len;
  OSIRIS_TRACE_EVENT(kGrantCopy, kTraceKernel, static_cast<std::uint64_t>(grantee.value), len,
                     /*dir: from grant*/ 0);
  return static_cast<std::int64_t>(len);
}

std::int64_t Kernel::safecopy_to(Endpoint grantee, GrantId id, std::size_t offset,
                                 const void* src, std::size_t len) {
  std::int64_t err = OK;
  const Grant* g = check_grant(grantee, id, offset, len, Access::kWrite, &err);
  if (!g) return err;
  std::memcpy(g->base + offset, src, len);
  stats_.safecopy_bytes += len;
  OSIRIS_TRACE_EVENT(kGrantCopy, kTraceKernel, static_cast<std::uint64_t>(grantee.value), len,
                     /*dir: to grant*/ 1);
  return static_cast<std::int64_t>(len);
}

std::byte* Kernel::grant_span(Endpoint grantee, GrantId id, std::size_t offset, std::size_t len,
                              Access need, std::int64_t* err) {
  const Grant* g = check_grant(grantee, id, offset, len, need, err);
  if (!g) return nullptr;
  ++stats_.grant_spans;
  return g->base + offset;
}

void Kernel::note_grant_bypass([[maybe_unused]] Endpoint grantee, std::size_t len,
                               [[maybe_unused]] int dir) {
  stats_.grant_bypass_bytes += len;
  OSIRIS_TRACE_EVENT(kGrantCopy, kTraceKernel, static_cast<std::uint64_t>(grantee.value), len,
                     static_cast<std::uint64_t>(dir));
}

bool Kernel::dispatch_pending() {
  bool any = false;
  std::uint64_t delivered = 0;
  while (state_ == SystemState::kRunning && queue_len_ != 0) {
    // A copy, not a reference: the handler may enqueue, and growing the
    // ring moves every slot.
    const Queued q = queue_[queue_head_];
    queue_head_ = (queue_head_ + 1) & (queue_.size() - 1);
    --queue_len_;
    any = true;
    if (burst_cap_ != 0 && ++delivered > burst_cap_) {
      // Livelock valve: a self-sustaining message storm that nothing
      // detects (e.g. kHandlerSpin on a machine without recovery, where no
      // storm handler samples) keeps this drain loop fed forever — the
      // virtual clock never advances while work is pending, so no timeout
      // can fire. Drop the backlog and return; the run loop's step budget
      // then decides the outcome.
      ++stats_.dispatch_aborts;
      queue_head_ = 0;
      queue_len_ = 0;
      break;
    }
    if (auto sit = servers_.find(q.dst.value); sit != servers_.end()) {
      deliver_to_server(sit->second, q.dst, q.msg);
    } else if (auto cit = clients_.find(q.dst.value); cit != clients_.end()) {
      if (is_notify(q.msg.type)) {
        cit->second->on_notify(q.msg);
      } else {
        cit->second->on_reply(q.msg);
      }
    } else {
      OSIRIS_DEBUG("kernel", "dropping message type=0x%x to dead endpoint %d", q.msg.type,
                   q.dst.value);
    }
  }
  return any;
}

void Kernel::deliver_to_server(ServerSlot& slot, Endpoint dst, const Message& m) {
  // The health monitor runs exactly when recovery installed a storm handler.
  const bool health_on = static_cast<bool>(storm_handler_);
  if (health_on) health_.note_delivery();
  // Whether this delivery counts toward its sender's health. Kernel-sent
  // traffic and the heartbeat protocol (set_health_exempt) do not: they
  // bypass the gate, its allowance bookkeeping and the charge. Self-sends
  // do count, or a spinning handler's self-notes would be invisible.
  const bool chargeable = health_on && m.sender.valid() && m.sender != kKernelEp &&
                          !(health_exempt_ != nullptr &&
                            health_exempt_(m.type & ~(kNotifyBit | kReplyBit)));
  if (slot.quarantined) {
    ++stats_.quarantine_rejects;
    // Notifications and in-flight replies are simply dropped, like any
    // message to a dead endpoint.
    if (!is_notify(m.type) && m.sender.valid() && m.sender != kKernelEp) reject_later(m);
  } else if (slot.hung) {
    OSIRIS_DEBUG("kernel", "message type=0x%x to hung server %d dropped", m.type, dst.value);
  } else if (chargeable && !health_.admit(m.sender.value)) {
    // Storm-throttle gate: the sender's fever engaged the ladder's throttle
    // rung, so deliveries beyond its per-quantum allowance are dropped — the
    // victim's queue unclogs while the storming component stays live. The
    // drop still charges the sender: sustained pressure under an active
    // throttle is exactly what escalates to quarantine. Replyable requests
    // are error-virtualized like quarantined ones so callers unblock.
    ++stats_.throttled_drops;
    health_.charge(m.sender.value);
    ++stats_.health_charges;
    if (!is_notify(m.type) && !is_reply(m.type)) reject_later(m);
  } else {
    ++stats_.server_dispatches;
    OSIRIS_TRACE_EVENT(kIpcDeliver, kTraceKernel, static_cast<std::uint64_t>(m.sender.value),
                       static_cast<std::uint64_t>(dst.value), m.type);
    const std::uint64_t useful_before = chargeable ? slot.srv->useful_work() : 0;
    try {
      std::optional<Message> reply = slot.srv->dispatch(m);
      if (chargeable) {
        // Physiological sample: a delivery that opened no recovery window,
        // produced no reply and sent no deferred reply did no useful work —
        // charge the *sender* (flood victims spike too; the attribution must
        // land on the storming component).
        const bool useful = reply.has_value() || slot.srv->useful_work() > useful_before;
        if (!useful) {
          health_.charge(m.sender.value);
          ++stats_.health_charges;
        }
      }
      if (reply) route_reply(m.sender, *reply);
    } catch (const FailStopFault& f) {
      const CrashDecision d = contain(
          {.crashed = dst, .had_inflight = !is_notify(m.type), .inflight = m, .what = f.what()});
      if (d.action == CrashAction::kErrorReply) route_reply(m.sender, d.reply);
    } catch (const HangSuspend&) {
      if (!slot.hung) mark_hung(dst, m);
    }
  }
  if (health_on) health_quantum_tick();
}

void Kernel::reject_later(const Message& m) {
  clock_.call_after(kQuarantineReplyLatency,
                    [this, sender = m.sender, reply = make_crash_reply(m)] {
                      route_reply(sender, reply);
                    });
}

void Kernel::health_quantum_tick() {
  if (!health_.quantum_due()) return;
  const QuantumResult q = health_.close_quantum();
  if (q.starved) ++stats_.starved_quanta;
  for (const FeverEvent& f : q.fevers) {
    if (!f.escalation) ++stats_.fever_onsets;
    OSIRIS_TRACE_EVENT(kFeverOnset, kTraceKernel, static_cast<std::uint64_t>(f.endpoint),
                       static_cast<std::uint64_t>(f.ewma),
                       static_cast<std::uint64_t>(f.escalation));
    storm_handler_(Endpoint{f.endpoint});
  }
}

void Kernel::route_reply(Endpoint dst, Message reply) {
  if (!dst.valid() || dst == kKernelEp) return;
  reply.sender = kKernelEp;
  if (auto cit = clients_.find(dst.value); cit != clients_.end()) {
    ++stats_.replies_to_clients;
    cit->second->on_reply(reply);
  } else if (servers_.count(dst.value) != 0) {
    // Async reply to an event-driven server: re-enters its loop as a message.
    enqueue(dst, reply);
  }
}

CrashDecision Kernel::contain(const CrashContext& ctx) {
  ++stats_.crashes;
  if (!crash_handler_) {
    mark_crashed("no recovery infrastructure: " + ctx.what);
    return CrashDecision{CrashAction::kGiveUp, {}};
  }
  CrashDecision d = crash_handler_(ctx);
  if (d.action == CrashAction::kShutdown) {
    request_shutdown(ctx.what);
    throw ControlledShutdown(ctx.what);
  }
  if (d.action == CrashAction::kGiveUp) mark_crashed("recovery gave up: " + ctx.what);
  return d;
}

bool Kernel::is_hung(Endpoint ep) const {
  auto it = servers_.find(ep.value);
  return it != servers_.end() && it->second.hung;
}

void Kernel::mark_hung(Endpoint ep, const Message& inflight) {
  auto it = servers_.find(ep.value);
  OSIRIS_ASSERT(it != servers_.end());
  it->second.hung = true;
  it->second.inflight = inflight;
  ++stats_.hangs;
  OSIRIS_INFO("kernel", "server %d hung while processing type=0x%x", ep.value, inflight.type);
}

void Kernel::recover_hung(Endpoint ep) {
  auto it = servers_.find(ep.value);
  OSIRIS_ASSERT(it != servers_.end());
  if (!it->second.hung) return;
  it->second.hung = false;
  const Message m = it->second.inflight;
  const CrashDecision d = contain({.crashed = ep,
                                   .had_inflight = !is_notify(m.type) && m.type != 0,
                                   .inflight = m,
                                   .was_hang = true,
                                   .what = "heartbeat timeout"});
  if (d.action == CrashAction::kErrorReply) route_reply(m.sender, d.reply);
}

void Kernel::quarantine(Endpoint ep) {
  auto it = servers_.find(ep.value);
  if (it == servers_.end()) return;
  it->second.quarantined = true;
  it->second.hung = false;  // quarantine supersedes any pending hang state
  OSIRIS_INFO("kernel", "server %d quarantined: sends will be error-virtualized", ep.value);
}

void Kernel::lift_quarantine(Endpoint ep) {
  auto it = servers_.find(ep.value);
  if (it == servers_.end()) return;
  if (it->second.quarantined) {
    it->second.quarantined = false;
    OSIRIS_INFO("kernel", "server %d readmitted from quarantine", ep.value);
  }
}

bool Kernel::is_quarantined(Endpoint ep) const {
  auto it = servers_.find(ep.value);
  return it != servers_.end() && it->second.quarantined;
}

void Kernel::request_shutdown(std::string reason) {
  if (state_ == SystemState::kRunning) {
    state_ = SystemState::kShutdown;
    halt_reason_ = std::move(reason);
    OSIRIS_INFO("kernel", "controlled shutdown: %s", halt_reason_.c_str());
  }
}

void Kernel::mark_crashed(std::string reason) {
  if (state_ != SystemState::kCrashed) {
    state_ = SystemState::kCrashed;
    halt_reason_ = std::move(reason);
    OSIRIS_INFO("kernel", "system crashed: %s", halt_reason_.c_str());
  }
}

}  // namespace osiris::kernel
