#include "servers/rs.hpp"

#include "support/log.hpp"

namespace osiris::servers {

using kernel::make_reply;
using kernel::Message;
using kernel::OK;

bool Rs::monitor(kernel::Endpoint ep) {
  const std::size_t i = st().comps.alloc();
  if (i == decltype(st().comps)::npos) {
    // Failing loudly matters: a server dropped from heartbeat coverage would
    // hang undetectably, which is strictly worse than refusing to boot it.
    OSIRIS_ERROR("rs", "monitor table full (%zu slots): endpoint %d has NO heartbeat coverage",
                 decltype(st().comps)::capacity(), ep.value);
    return false;
  }
  auto& c = st().comps.mutate(i);
  c.ep = ep.value;
  return true;
}

std::uint32_t Rs::outstanding_pings() const {
  std::uint32_t total = 0;
  st().comps.for_each(
      [&](std::size_t, const RsCompInfo& c) { total += c.pings_outstanding; });
  return total;
}

void Rs::start_heartbeats(Tick interval) {
  OSIRIS_ASSERT(interval > 0);
  sweep_interval_ = interval;
  schedule_next_sweep();
}

void Rs::schedule_next_sweep() {
  if (sweep_interval_ == 0) return;
  kern().clock().call_after(sweep_interval_, [this] {
    // Re-arm before the sweep runs: a sweep that crashes, or a parked RS
    // whose note the quarantine gate would drop, must not end heartbeats.
    schedule_next_sweep();
    if (kern().is_quarantined(endpoint())) return;
    // analyze-suppress(raw-kernel-send): self-notify fired from a clock
    // callback, outside any request window; there is no cross-component
    // dependency for the window to observe.
    kern().notify(endpoint(), endpoint(), RS_SWEEP);
  });
}

void Rs::run_sweep() {
  FI_BLOCK("rs");
  st().sweeps += 1;

  // Round 1: anyone who missed two consecutive pings is declared hung and
  // handed to the recovery engine (hang -> crash conversion, SII-E).
  // Quarantined components are skipped: they are parked by the ladder, not
  // hung, and the kernel would drop the ping anyway. Their stale pings are
  // void, so a readmitted component again gets two misses before it is hung.
  st().comps.for_each([&](std::size_t i, const RsCompInfo& c) {
    if (kern().is_quarantined(kernel::Endpoint{c.ep})) {
      if (c.pings_outstanding != 0) st().comps.mutate(i).pings_outstanding = 0;
      return;
    }
    if (FI_BRANCH("rs", c.pings_outstanding >= 2)) {
      st().hangs_detected += 1;
      OSIRIS_INFO("rs", "endpoint %d missed %u pings: recovering", c.ep, c.pings_outstanding);
      st().comps.mutate(i).pings_outstanding = 0;
      kern().recover_hung(kernel::Endpoint{c.ep});
    }
  });

  FI_BLOCK("rs");
  // Publish liveness telemetry ASYNCHRONOUSLY: the Recovery Server must
  // never block on a component it monitors — a synchronous call into a hung
  // DS would hang RS itself and leave the whole system unrecoverable.
  if (st().sweeps % 4 == 1) {
    seep_send(kernel::kDsEp, encode_text(DS_PUBLISH, "rs.sweeps", st().sweeps.get()));
    FI_BLOCK("rs");
  }

  // Round 2: ping everyone (except parked components) for the next sweep.
  st().comps.for_each([&](std::size_t i, const RsCompInfo& c) {
    if (kern().is_quarantined(kernel::Endpoint{c.ep})) return;
    st().comps.mutate(i).pings_outstanding = c.pings_outstanding + 1;
    OSIRIS_TRACE_EVENT(kHeartbeatPing, endpoint().value, static_cast<std::uint64_t>(c.ep));
    seep_notify(kernel::Endpoint{c.ep}, RS_PING);
    st().pings_sent += 1;
  });
}

void Rs::register_handlers() {
  on_notify(RS_SWEEP, &Rs::do_sweep);
  on_notify(RS_PONG, &Rs::do_pong);
  on(RS_STATUS, &Rs::do_status);
  on_notify(DS_NOTIFY_SUB, &Rs::ignore_ds_note);
  on_reply(DS_PUBLISH, &Rs::ignore_publish_ack);
}

void Rs::on_message(const Message&) { FI_BLOCK("rs"); }

std::optional<Message> Rs::do_sweep(const Message&) {
  run_sweep();
  return std::nullopt;
}

std::optional<Message> Rs::do_pong(const Message& m) {
  const std::int32_t ep = m.sender.value;
  const std::size_t i = st().comps.find([ep](const RsCompInfo& c) { return c.ep == ep; });
  if (i != decltype(st().comps)::npos) {
    auto& c = st().comps.mutate(i);
    c.pings_outstanding = 0;
    c.last_pong_tick = kern().clock().now();
  }
  return std::nullopt;
}

std::optional<Message> Rs::do_status(const Message& m) {
  FI_BLOCK("rs");
  const auto ep = kernel::Endpoint{MsgView(m).i32(0)};
  // Scan the monitoring table for liveness info on the queried endpoint.
  std::uint64_t last_pong = 0;
  st().comps.for_each([&](std::size_t, const RsCompInfo& c) {
    FI_BLOCK("rs");
    if (c.ep == ep.value) last_pong = c.last_pong_tick;
  });
  FI_BLOCK("rs");
  Message r = make_reply(m.type, OK);
  r.arg[1] = engine_ != nullptr ? engine_->recoveries_of(ep) : 0;
  r.arg[2] = st().hangs_detected;
  r.arg[3] = last_pong;
  // RS keeps no copy of a park: the kernel's quarantine flag answers.
  r.arg[4] = kern().is_quarantined(ep) ? 1 : 0;
  return r;
}

std::optional<Message> Rs::ignore_ds_note(const Message&) {
  return std::nullopt;  // informational: a watched key changed
}

std::optional<Message> Rs::ignore_publish_ack(const Message&) {
  return std::nullopt;  // async telemetry ack (possibly E_CRASH): ignored
}

}  // namespace osiris::servers
