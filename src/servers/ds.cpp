#include "servers/ds.hpp"

#include <array>

namespace osiris::servers {

using kernel::E_INVAL;
using kernel::E_NOENT;
using kernel::E_NOMEM;
using kernel::make_reply;
using kernel::Message;
using kernel::OK;

namespace {
constexpr auto kNpos = decltype(DsState{}.entries)::npos;
}  // namespace

void Ds::boot_subscribe(kernel::Endpoint ep, std::string_view prefix) {
  const std::size_t i = st().subs.alloc();
  OSIRIS_ASSERT(i != decltype(st().subs)::npos);
  auto& sub = st().subs.mutate(i);
  sub.ep = ep.value;
  sub.prefix.assign(prefix);
}

std::size_t Ds::entry_of(std::string_view key) const {
  return st().entries.find([key](const DsEntry& e) { return e.key.view() == key; });
}

void Ds::notify_subscribers(std::string_view key) {
  // Collect the matching subscribers first, then notify them: every count
  // is recorded before the first send, whichever policy's window that send
  // closes. Informational notify: non-state-modifying SEEP — under the
  // enhanced policy DS's window stays open across it (Table I's 92.8%).
  std::array<std::int32_t, decltype(DsState{}.subs)::capacity()> targets;
  std::size_t n = 0;
  st().subs.for_each([&](std::size_t, const DsSub& sub) {
    if (key.substr(0, sub.prefix.size()) == sub.prefix.view()) {
      targets[n++] = sub.ep;
      st().notifications += 1;
    }
  });
  for (std::size_t i = 0; i < n; ++i) seep_notify(kernel::Endpoint{targets[i]}, DS_NOTIFY_SUB);
}

void Ds::register_handlers() {
  on(DS_PUBLISH, &Ds::do_publish);
  on(DS_RETRIEVE, &Ds::do_retrieve);
  on(DS_DELETE, &Ds::do_delete);
  on(DS_SUBSCRIBE, &Ds::do_subscribe);
  on(DS_CHECK, &Ds::do_check);
}

void Ds::on_message(const Message&) { FI_BLOCK("ds"); }

std::optional<Message> Ds::do_publish(const Message& m) {
  FI_BLOCK("ds");
  const MsgView v(m);
  if (v.text().empty()) return make_reply(m.type, E_INVAL);
  // Subscribers are notified *early*: the rest of the publish path is
  // where the two OSIRIS policies diverge in recoverable surface.
  notify_subscribers(v.text());
  FI_BLOCK("ds");
  std::size_t i = entry_of(v.text());
  if (i == kNpos) {
    i = st().entries.alloc();
    if (!FI_BRANCH("ds", i != kNpos)) return make_reply(m.type, E_NOMEM);
    st().entries.mutate(i).key.assign(v.text());
    FI_BLOCK("ds");  // mid-mutation: key written, value not yet
  }
  st().entries.mutate(i).value = FI_VALUE("ds", v.u(0));
  st().publishes += 1;
  st().last_changed_key = v.text();
  FI_BLOCK("ds");
  // Post-publish store maintenance: verify key uniqueness and refresh
  // subscriber event counters. Under the pessimistic policy all of this
  // runs after the early notify closed the window (Table I: 47.1% vs
  // 92.8%).
  int dups = 0;
  std::size_t scanned = 0;
  st().entries.for_each([&](std::size_t j, const DsEntry& e) {
    if (++scanned % 4 == 0) FI_BLOCK("ds");
    if (j != i && e.key.view() == v.text()) ++dups;
  });
  SRV_CHECK(dups == 0, "ds: duplicate key after publish");
  st().subs.for_each([&](std::size_t j, const DsSub& sub) {
    if (v.text().substr(0, sub.prefix.size()) == sub.prefix.view()) {
      FI_BLOCK("ds");
      st().subs.mutate(j).events = sub.events + 1;
    }
  });
  FI_BLOCK("ds");
  return make_reply(m.type, OK);
}

std::optional<Message> Ds::do_retrieve(const Message& m) {
  FI_BLOCK("ds");
  const std::size_t i = entry_of(MsgView(m).text());
  if (i == kNpos) return make_reply(m.type, E_NOENT);
  Message r = make_reply(m.type, OK);
  r.arg[1] = st().entries.at(i).value;
  return r;
}

std::optional<Message> Ds::do_delete(const Message& m) {
  FI_BLOCK("ds");
  const MsgView v(m);
  const std::size_t i = entry_of(v.text());
  if (i == kNpos) return make_reply(m.type, E_NOENT);
  notify_subscribers(v.text());
  st().entries.free(i);
  st().last_changed_key = v.text();
  FI_BLOCK("ds");
  // Post-delete maintenance (outside the window under pessimistic).
  std::size_t live = 0;
  st().entries.for_each([&](std::size_t, const DsEntry&) {
    if (++live % 4 == 0) FI_BLOCK("ds");
  });
  SRV_CHECK(live <= decltype(st().entries)::capacity(), "ds: entry count corrupt");
  return make_reply(m.type, OK);
}

std::optional<Message> Ds::do_subscribe(const Message& m) {
  FI_BLOCK("ds");
  const std::size_t i = st().subs.alloc();
  if (i == kNpos) return make_reply(m.type, E_NOMEM);
  auto& sub = st().subs.mutate(i);
  sub.ep = m.sender.value;
  sub.prefix.assign(MsgView(m).text());
  return make_reply(m.type, OK);
}

std::optional<Message> Ds::do_check(const Message& m) {
  FI_BLOCK("ds");
  std::uint32_t events = 0;
  const std::int32_t ep = m.sender.value;
  st().subs.for_each([&](std::size_t, const DsSub& sub) {
    if (sub.ep == ep) events += sub.events;
  });
  Message r = make_reply(m.type, OK);
  r.arg[1] = events;
  r.text.assign(st().last_changed_key.view());
  return r;
}

}  // namespace osiris::servers
