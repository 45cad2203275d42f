#include "recovery/engine.hpp"

#include <algorithm>
#include <cstring>

#include "fi/registry.hpp"
#include "servers/protocol.hpp"
#include "support/common.hpp"
#include "support/log.hpp"
#include "trace/trace.hpp"

namespace osiris::recovery {

using kernel::CrashAction;
using kernel::CrashContext;
using kernel::CrashDecision;
using kernel::Endpoint;

Engine::Engine(kernel::Kernel& kernel, seep::Policy policy,
               std::uint32_t max_recoveries_per_component, LadderConfig ladder)
    : kernel_(kernel),
      policy_(policy),
      max_recoveries_(max_recoveries_per_component),
      ladder_(ladder) {
  kernel_.set_crash_handler([this](const CrashContext& ctx) { return on_crash(ctx); });
}

void Engine::register_component(Recoverable* comp) {
  OSIRIS_ASSERT(comp != nullptr);
  Slot slot;
  slot.comp = comp;
  const std::size_t ds = comp->data_section_size();
  // Pre-allocate the spare clone now: when PM or VM is down, memory cannot be
  // obtained dynamically (paper SIV-C restart phase, Table VI "+clone"). The
  // image layout is [data section | recovery arena].
  slot.clone_image.resize(ds + comp->recovery_arena_bytes());
  // Capture the pristine boot state for the stateless-restart baseline.
  slot.boot_image.assign(comp->data_section(), comp->data_section() + ds);
  slots_[comp->endpoint().value] = std::move(slot);
}

std::size_t Engine::clone_bytes(Endpoint ep) const {
  auto it = slots_.find(ep.value);
  return it == slots_.end() ? 0 : it->second.clone_image.size();
}

std::uint32_t Engine::recoveries_of(Endpoint ep) const {
  auto it = slots_.find(ep.value);
  return it == slots_.end() ? 0 : it->second.recoveries;
}

bool Engine::is_parked(Endpoint ep) const {
  auto it = slots_.find(ep.value);
  return it != slots_.end() && it->second.parked;
}

std::uint32_t Engine::rung_of(Endpoint ep) const {
  auto it = slots_.find(ep.value);
  return it == slots_.end() ? 0 : it->second.rung;
}

CrashDecision Engine::error_reply(const CrashContext& ctx) {
  ++stats_.error_replies;
  return CrashDecision{CrashAction::kErrorReply, kernel::make_crash_reply(ctx.inflight)};
}

bool Engine::replyable(const CrashContext& ctx) const {
  if (!ctx.had_inflight) return false;
  if (!ctx.inflight.sender.valid() || ctx.inflight.sender == kernel::kKernelEp) return false;
  if (kernel::is_notify(ctx.inflight.type)) return false;
  return servers::msg_replyable(ctx.inflight.type);
}

void Engine::record_crash(Slot& slot, Tick now, bool was_hang) {
  slot.history[slot.history_head] = CrashRecord{now, was_hang};
  slot.history_head = (slot.history_head + 1) % kHistoryLen;
  slot.history_len = std::min(slot.history_len + 1, kHistoryLen);
}

std::uint32_t Engine::crashes_in_window(const Slot& slot, Tick now) const {
  std::uint32_t n = 0;
  for (std::size_t i = 0; i < slot.history_len; ++i) {
    if (now - slot.history[i].when <= kCrashWindowTicks) ++n;
  }
  return n;
}

CrashDecision Engine::on_crash(const CrashContext& ctx) {
  ++stats_.crashes_seen;
  auto it = slots_.find(ctx.crashed.value);
  if (it == slots_.end()) {
    // A component outside the recovery surface died: the system is wedged.
    ++stats_.giveups;
    return CrashDecision{CrashAction::kGiveUp, {}};
  }
  Slot& slot = it->second;
  const Tick now = kernel_.clock().now();
  record_crash(slot, now, ctx.was_hang);
  ++slot.recoveries;

  // Transient vs recurring: the sliding crash-rate window, the probation
  // period after an earlier escalation, and the recovery budget all feed the
  // classifier. A crash while parked (only possible when the kernel is not
  // enforcing the quarantine, e.g. in unit harnesses) is recurring trivially.
  const bool over_budget = slot.recoveries > max_recoveries_;
  const bool recurring = slot.parked || over_budget || now < slot.probation_until ||
                         crashes_in_window(slot, now) >= kRecurringThreshold;

  OSIRIS_INFO("recovery", "component %s crashed (%s): policy=%s window=%s class=%s",
              std::string(slot.comp->name()).c_str(), ctx.what.c_str(),
              seep::policy_name(policy_), slot.comp->window().is_open() ? "open" : "closed",
              recurring ? "recurring" : "transient");
  OSIRIS_TRACE_EVENT(kCrash, ctx.crashed.value, ctx.was_hang ? 1 : 0, recurring ? 1 : 0);

  if (recurring) {
    ++stats_.recurring_crashes;
    return escalate(slot, ctx, now);
  }

  ++stats_.transient_crashes;
  // A genuinely transient crash de-escalates: the ladder position and the
  // backoff reset, so an isolated fault months of virtual time later starts
  // from the policy-preferred rung again.
  slot.rung = 0;
  slot.stateless_tries = 0;
  slot.backoff = 0;

  switch (policy_) {
    case seep::Policy::kStateless:
      return recover_stateless(slot, ctx);
    case seep::Policy::kNaive:
      return recover_naive(slot, ctx);
    case seep::Policy::kPessimistic:
    case seep::Policy::kEnhanced:
      return recover_windowed(slot, ctx);
  }
  OSIRIS_PANIC("unknown policy");
}

CrashDecision Engine::escalate(Slot& slot, const CrashContext& ctx, Tick now) {
  Recoverable& comp = *slot.comp;
  const bool over_budget = slot.recoveries > max_recoveries_;

  if (!over_budget && slot.stateless_tries < kStatelessAttempts) {
    // Rung 1: microreboot the component, then park it with exponential
    // backoff so a persistent fault cannot re-fire immediately.
    slot.rung = 1;
    ++slot.stateless_tries;
    ++stats_.ladder_stateless;
    slot.backoff = slot.backoff == 0
                       ? ladder_.backoff_base_ticks
                       : std::min(slot.backoff * 2, kBackoffCapTicks);
    OSIRIS_TRACE_EVENT(kRecoveryStateless, comp.endpoint().value, slot.backoff, slot.rung);
  } else {
    // Rung 2: quarantine. The cooldown keeps doubling but never drops below
    // the configured quarantine floor. Budget exhaustion lands here directly:
    // the component degrades instead of wedging the whole system.
    slot.rung = 2;
    ++stats_.quarantines;
    if (over_budget) ++stats_.budget_quarantines;
    slot.backoff = std::max(ladder_.quarantine_cooldown_ticks,
                            std::min(slot.backoff * 2, kBackoffCapTicks));
    OSIRIS_TRACE_EVENT(kRecoveryQuarantine, comp.endpoint().value, slot.backoff,
                       over_budget ? 1 : 0);
  }
  OSIRIS_INFO("recovery", "%s crash loop: escalating to rung %u (park %llu ticks, try %u/%u)",
              std::string(comp.name()).c_str(), slot.rung,
              static_cast<unsigned long long>(slot.backoff), slot.stateless_tries,
              kStatelessAttempts);

  // Both rungs discard the possibly fault-damaged state: the component comes
  // back from its pristine boot image once readmitted.
  reset_to_boot_image(slot);
  slot.parked = true;
  // The probation deadline outlives the park: crashes shortly after
  // readmission stay classified as recurring even though the sliding window
  // has slid past the pre-park crash burst.
  slot.probation_until = now + slot.backoff + kCrashWindowTicks;
  kernel_.quarantine(comp.endpoint());
  announce_park(comp.endpoint(), slot.backoff, slot.rung);

  if (replyable(ctx)) return error_reply(ctx);
  return CrashDecision{CrashAction::kNoReply, {}};
}

void Engine::on_storm(Endpoint ep) {
  auto it = slots_.find(ep.value);
  if (it == slots_.end()) return;  // fever outside the recovery surface
  Slot& slot = it->second;
  if (slot.parked) return;  // already quarantined; fever data is stale
  const Tick now = kernel_.clock().now();

  if (!kernel_.is_throttled(ep)) {
    // Storm rung, first response: throttle. The component keeps running —
    // and keeps answering heartbeats — but its outbound pressure is capped,
    // which both unblocks the victims and preserves the evidence: a
    // legitimate burst cools off under the throttle, a storm does not.
    kernel_.throttle(ep);
    ++stats_.storm_throttles;
    const Tick onset = fi::Registry::instance().storm_start_tick();
    const Tick latency = (onset != 0 && now >= onset) ? now - onset : 0;
    if (!stats_.storm_detected) {
      stats_.storm_detected = true;
      stats_.detection_latency_ticks = latency;
    }
    OSIRIS_TRACE_EVENT(kRecoveryThrottle, ep.value, latency);
    OSIRIS_INFO("recovery", "%s fevered: storm throttle engaged (latency %llu ticks)",
                std::string(slot.comp->name()).c_str(),
                static_cast<unsigned long long>(latency));
    return;
  }

  // Fever persisting under an active throttle: the pressure is not a burst,
  // it is a re-firing fault. Escalate to quarantine and disarm any storm
  // fault owned by this component — quarantine must *end* the storm, or
  // readmission would re-trigger it forever. Non-storm persistent faults
  // stay armed (recurring-crash campaigns depend on them surviving).
  ++stats_.storm_quarantines;
  if (fi::Registry::instance().disarm_storms_for(ep.value)) ++stats_.storm_disarms;
  slot.rung = 2;
  slot.backoff = std::max(kStormCooldownTicks,
                          std::min(slot.backoff * 2, kBackoffCapTicks));
  OSIRIS_TRACE_EVENT(kRecoveryQuarantine, ep.value, slot.backoff, /*budget=*/0);
  OSIRIS_INFO("recovery", "%s storm persists under throttle: quarantining for %llu ticks",
              std::string(slot.comp->name()).c_str(),
              static_cast<unsigned long long>(slot.backoff));
  reset_to_boot_image(slot);
  slot.parked = true;
  slot.probation_until = now + slot.backoff + kCrashWindowTicks;
  kernel_.quarantine(ep);
  kernel_.unthrottle(ep);  // quarantine supersedes the throttle
  announce_park(ep, slot.backoff, slot.rung);
}

void Engine::announce_park(Endpoint ep, Tick cooldown, std::uint32_t rung) {
  const bool rs_reachable =
      kernel_.is_server(kernel::kRsEp) && !kernel_.is_quarantined(kernel::kRsEp);
  if (rs_reachable) {
    // RS owns the readmission timer and answers the component's heartbeat
    // slot as "quarantined" until the cooldown expires.
    kernel_.send(kernel::kKernelEp, kernel::kRsEp,
                 kernel::make_msg(servers::RS_PARK, static_cast<std::uint64_t>(ep.value),
                                  cooldown, rung));
    return;
  }
  // RS is absent or is itself the parked component: the RCB arms the
  // cooldown timer directly so the quarantine cannot become permanent.
  kernel_.clock().call_after(cooldown, [this, ep] { readmit(ep); });
}

void Engine::readmit(Endpoint ep) {
  auto it = slots_.find(ep.value);
  if (it == slots_.end() || !it->second.parked) return;
  it->second.parked = false;
  ++stats_.readmissions;
  kernel_.lift_quarantine(ep);
  kernel_.unthrottle(ep);  // a readmitted component starts with a clean bill
  OSIRIS_TRACE_EVENT(kRecoveryReadmit, ep.value, it->second.rung);
  OSIRIS_INFO("recovery", "%s readmitted after cooldown (rung %u)",
              std::string(it->second.comp->name()).c_str(), it->second.rung);
  if (ep != kernel::kRsEp && kernel_.is_server(kernel::kRsEp) &&
      !kernel_.is_quarantined(kernel::kRsEp)) {
    kernel_.send(kernel::kKernelEp, kernel::kRsEp,
                 kernel::make_msg(servers::RS_READMIT, static_cast<std::uint64_t>(ep.value)));
  }
}

void Engine::restart_phase(Slot& slot) {
  // Transfer the crashed component's data section into the spare clone; the
  // clone then becomes the live instance. (In the simulator both images share
  // the host address space, so after the copy the original addresses remain
  // the live ones — the copy models the transfer cost and the clone's memory
  // footprint.)
  Recoverable& comp = *slot.comp;
  std::memcpy(slot.clone_image.data(), comp.data_section(), comp.data_section_size());
  ++stats_.restarts;
  OSIRIS_TRACE_EVENT(kRecoveryRestart, comp.endpoint().value, slot.clone_image.size());
}

void Engine::reset_to_boot_image(Slot& slot) {
  Recoverable& comp = *slot.comp;
  restart_phase(slot);
  // Microreboot: fresh initial state; everything the component knew is lost.
  std::memcpy(comp.data_section(), slot.boot_image.data(), comp.data_section_size());
  comp.ckpt_context().log().checkpoint();
  comp.window().end_of_request();
  comp.reinitialize();
  comp.on_restored(/*rolled_back=*/false);
}

CrashDecision Engine::recover_windowed(Slot& slot, const CrashContext& ctx) {
  Recoverable& comp = *slot.comp;

  // Reconciliation is only consistent when the recovery window is still open
  // AND the triggering request can be answered with an error. In every other
  // case the paper performs a controlled shutdown (SIV-C) — unless the
  // component runs a FOM executor: a crash during a *resumed* attempt arrives
  // via the disk-completion notification (unreplyable here), but the executor
  // knows the parked request's real requester and reconciles it itself from
  // on_restored(). The window-open requirement is unchanged.
  const bool window_open = comp.window().is_open();
  const bool can_reply = replyable(ctx);
  const bool self_reconcile = !can_reply && comp.can_reconcile_inflight();

  if (!window_open || (!can_reply && !self_reconcile)) {
    ++stats_.shutdowns;
    comp.window().end_of_request();
    return CrashDecision{CrashAction::kShutdown, {}};
  }

  // Phase 1: restart — bring up the spare clone with the crashed state.
  restart_phase(slot);

  // Phase 2: rollback — undo every store since the top-of-loop checkpoint.
  OSIRIS_ASSERT(comp.ckpt_context().log().integrity_ok());
  [[maybe_unused]] const std::size_t replayed = comp.ckpt_context().log().entry_count();
  comp.ckpt_context().log().rollback();
  ++stats_.rollbacks;
  OSIRIS_TRACE_EVENT(kRecoveryRollback, comp.endpoint().value, replayed);

  // The component is back at its last known-good state; close out the
  // interrupted request and let the component repair runtime structures
  // (e.g. the cooperative thread library, SIV-E).
  comp.window().end_of_request();
  comp.on_restored(/*rolled_back=*/true);

  if (self_reconcile) {
    // The executor sent the E_CRASH reply during on_restored(); nothing to
    // answer here.
    ++stats_.fom_reconciles;
    return CrashDecision{CrashAction::kNoReply, {}};
  }

  // Phase 3: reconciliation — error virtualization. The requester receives
  // E_CRASH and handles it like any other failed call; the original request
  // is discarded, which also neutralizes persistent faults.
  return error_reply(ctx);
}

CrashDecision Engine::recover_stateless(Slot& slot, const CrashContext& ctx) {
  (void)ctx;
  ++stats_.stateless_restarts;
  // Rung 0: the policy-preferred microreboot (no park, no escalation).
  OSIRIS_TRACE_EVENT(kRecoveryStateless, slot.comp->endpoint().value, /*park=*/0, slot.rung);
  reset_to_boot_image(slot);
  // Microreboot systems restart the component but have no reconciliation
  // protocol: the in-flight requester is simply never answered. (This is
  // why the paper's stateless column has no "fail" bucket — a pending
  // request turns into a hang, i.e. a crash outcome.)
  return CrashDecision{CrashAction::kNoReply, {}};
}

CrashDecision Engine::recover_naive(Slot& slot, const CrashContext& ctx) {
  Recoverable& comp = *slot.comp;
  restart_phase(slot);
  ++stats_.naive_restarts;
  // Best-effort: keep the (possibly half-updated) crashed state as-is and
  // restart the component from its entry point. "No special handling" means
  // three things the OSIRIS pipeline does are missing here:
  //  - no rollback: mid-request mutations stay in place;
  //  - no recovery-mode detection: the restarted component runs its normal
  //    boot-time initialization over the stale data section (resetting
  //    allocator scalars above live tables — pid collisions, frame
  //    accounting mismatches — exactly the inconsistencies that later trip
  //    fail-stop invariants);
  //  - no cooperative-thread-library fixup: a crashed VFS worker stays
  //    wedged, and repeated crashes exhaust the thread pool.
  comp.ckpt_context().log().checkpoint();
  comp.window().end_of_request();
  comp.reinitialize();
  if (replyable(ctx)) return error_reply(ctx);
  return CrashDecision{CrashAction::kNoReply, {}};
}

}  // namespace osiris::recovery
