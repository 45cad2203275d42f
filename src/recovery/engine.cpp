#include "recovery/engine.hpp"

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
               std::uint32_t max_recoveries_per_component, Tick quarantine_cooldown_ticks)
    : kernel_(kernel),
      policy_(policy),
      max_recoveries_(max_recoveries_per_component),
      quarantine_cooldown_(quarantine_cooldown_ticks) {
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
  // Capture the pristine boot state for stateless restarts and quarantine.
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

CrashDecision Engine::on_crash(const CrashContext& ctx) {
  ++stats_.crashes_seen;
  auto it = slots_.find(ctx.crashed.value);
  if (it == slots_.end()) {
    // A component outside the recovery surface died: the system is wedged.
    ++stats_.giveups;
    return CrashDecision{CrashAction::kGiveUp, {}};
  }
  Slot& slot = it->second;
  ++slot.recoveries;

  // Transient vs recurring, by progress: the streak counts the crashes since
  // the component last completed a dispatch, across readmissions. A crash
  // while parked (only possible when the kernel is not enforcing the
  // quarantine, e.g. in unit harnesses) is recurring trivially.
  const std::uint64_t done = slot.comp->completed_dispatches();
  slot.crash_streak = done == slot.dispatches_at_crash ? slot.crash_streak + 1 : 1;
  slot.dispatches_at_crash = done;
  const bool over_budget = slot.recoveries > max_recoveries_;
  const bool recurring =
      slot.parked || over_budget || slot.crash_streak >= kRecurringThreshold;

  OSIRIS_INFO("recovery", "component %s crashed (%s): policy=%s window=%s class=%s",
              std::string(slot.comp->name()).c_str(), ctx.what.c_str(),
              seep::policy_name(policy_), slot.comp->window().is_open() ? "open" : "closed",
              recurring ? "recurring" : "transient");
  OSIRIS_TRACE_EVENT(kCrash, ctx.crashed.value, ctx.was_hang ? 1 : 0, recurring ? 1 : 0);

  if (recurring) return escalate(slot, ctx, over_budget);

  ++stats_.transient_crashes;
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

CrashDecision Engine::escalate(Slot& slot, const CrashContext& ctx, bool over_budget) {
  // Quarantine. Budget exhaustion lands here too: the component degrades
  // instead of wedging the whole system.
  ++stats_.quarantines;
  if (over_budget) ++stats_.budget_quarantines;
  OSIRIS_INFO("recovery", "%s crash loop: quarantined for %llu ticks (%s)",
              std::string(slot.comp->name()).c_str(),
              static_cast<unsigned long long>(quarantine_cooldown_),
              over_budget ? "budget spent" : "no progress between crashes");
  enter_quarantine(slot, over_budget);

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
    const fi::Registry& reg = fi::Registry::instance();
    const Tick onset = reg.storm_start_tick();
    const Tick latency = (reg.storm_fired() && now >= onset) ? now - onset : 0;
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
  OSIRIS_INFO("recovery", "%s storm persists under throttle: quarantining for %llu ticks",
              std::string(slot.comp->name()).c_str(),
              static_cast<unsigned long long>(quarantine_cooldown_));
  enter_quarantine(slot, /*over_budget=*/false);
  kernel_.unthrottle(ep);  // quarantine supersedes the throttle
}

void Engine::enter_quarantine(Slot& slot, [[maybe_unused]] bool over_budget) {
  const Endpoint ep = slot.comp->endpoint();
  OSIRIS_TRACE_EVENT(kRecoveryQuarantine, ep.value, quarantine_cooldown_, over_budget ? 1 : 0);
  // The possibly fault-damaged state is discarded: the component comes back
  // from its pristine boot image once readmitted.
  reset_to_boot_image(slot);
  slot.parked = true;
  kernel_.quarantine(ep);
  kernel_.clock().call_after(quarantine_cooldown_, [this, ep] { readmit(ep); });
}

void Engine::readmit(Endpoint ep) {
  auto it = slots_.find(ep.value);
  if (it == slots_.end() || !it->second.parked) return;
  it->second.parked = false;
  ++stats_.readmissions;
  kernel_.lift_quarantine(ep);
  kernel_.unthrottle(ep);  // a readmitted component starts with a clean bill
  OSIRIS_TRACE_EVENT(kRecoveryReadmit, ep.value, kQuarantineRung);
  OSIRIS_INFO("recovery", "%s readmitted after cooldown",
              std::string(it->second.comp->name()).c_str());
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
  // case the paper performs a controlled shutdown (SIV-C).
  if (!comp.window().is_open() || !replyable(ctx)) {
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

  // Phase 3: reconciliation — error virtualization. The requester receives
  // E_CRASH and handles it like any other failed call; the original request
  // is discarded, which also neutralizes persistent faults.
  return error_reply(ctx);
}

CrashDecision Engine::recover_stateless(Slot& slot, const CrashContext& /*ctx*/) {
  ++stats_.stateless_restarts;
  OSIRIS_TRACE_EVENT(kRecoveryStateless, slot.comp->endpoint().value);
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
