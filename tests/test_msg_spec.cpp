// The declarative protocol spec (servers/msg_spec.hpp): registry
// completeness, typed marshalling round-trips, schema validation at the
// dispatch boundary (malformed / unregistered -> fail-stop, paper SII-E),
// handler-table coverage, and recovery's answer to an undeclared type.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>

#include "kernel/faults.hpp"
#include "kernel/kernel.hpp"
#include "os/instance.hpp"
#include "servers/protocol.hpp"

using namespace osiris;
using kernel::make_msg;
using kernel::Message;
using servers::MsgSpec;

namespace {

/// Build a schema-exact message for a spec row with recognizable arg values.
Message encode_row(const MsgSpec& s) {
  constexpr std::uint64_t v0 = 11, v1 = 22, v2 = 33, v3 = 44;
  if (s.text) {
    switch (s.args) {
      case 0: return servers::encode_text(s.type, "payload");
      case 1: return servers::encode_text(s.type, "payload", v0);
      case 2: return servers::encode_text(s.type, "payload", v0, v1);
      case 3: return servers::encode_text(s.type, "payload", v0, v1, v2);
      case 4: return servers::encode_text(s.type, "payload", v0, v1, v2, v3);
    }
  } else {
    switch (s.args) {
      case 0: return servers::encode(s.type);
      case 1: return servers::encode(s.type, v0);
      case 2: return servers::encode(s.type, v0, v1);
      case 3: return servers::encode(s.type, v0, v1, v2);
      case 4: return servers::encode(s.type, v0, v1, v2, v3);
    }
  }
  ADD_FAILURE() << s.name << " declares " << int(s.args) << " args; widen encode_row";
  return Message{};
}

class StubClient : public kernel::IClient {
 public:
  void on_reply(const Message& reply) override {
    ++replies;
    last_reply = reply;
  }
  void on_notify(const Message&) override {}
  int replies = 0;
  Message last_reply;
};

}  // namespace

TEST(MsgSpec, RegistryIsCompleteAndUnique) {
  const std::set<std::string> owners = {"pm", "vm", "vfs", "ds", "rs", "sys", "client", "any"};
  std::set<std::uint32_t> values;
  std::set<std::string> names;
  for (const MsgSpec& s : servers::kMsgSpecTable) {
    EXPECT_TRUE(values.insert(s.type).second) << "duplicate value for " << s.name;
    EXPECT_TRUE(names.insert(s.name).second) << "duplicate name " << s.name;
    EXPECT_TRUE(owners.count(s.server)) << s.name << " has unknown owner " << s.server;
    // The flat index resolves every row, with delivery-bit qualifiers
    // stripped, straight back to the row itself.
    EXPECT_EQ(servers::find_msg_spec(s.type), &s);
    EXPECT_EQ(servers::find_msg_spec(s.type | kernel::kNotifyBit), &s);
    EXPECT_EQ(servers::find_msg_spec(s.type | kernel::kReplyBit), &s);
    EXPECT_STREQ(servers::msg_name(s.type), s.name);
  }
  EXPECT_EQ(values.size(), servers::kMsgSpecCount);
  // Every slot of the index range resolves to its own row or to nothing:
  // the types no row declares are holes, not stray rows.
  std::size_t resolved = 0;
  for (std::uint32_t t = servers::kMsgBase; t < servers::kMsgBase + servers::kMsgSlots; ++t) {
    const MsgSpec* s = servers::find_msg_spec(t);
    if (s == nullptr) continue;
    EXPECT_EQ(s->type, t);
    ++resolved;
  }
  EXPECT_EQ(resolved, servers::kMsgSpecCount);
  EXPECT_EQ(servers::find_msg_spec(0x111), nullptr);  // inside the range, undeclared
  EXPECT_EQ(servers::find_msg_spec(0x7777), nullptr);
  EXPECT_EQ(servers::msg_name(0x7777), nullptr);
}

TEST(MsgSpec, SymbolicLabels) {
  EXPECT_EQ(servers::msg_label(servers::PM_FORK), "PM_FORK");
  EXPECT_EQ(servers::msg_label(servers::RS_PING | kernel::kNotifyBit), "RS_PING+notify");
  EXPECT_EQ(servers::msg_label(servers::PM_FORK | kernel::kReplyBit), "PM_FORK+reply");
  EXPECT_EQ(servers::msg_label(0x7777), "0x7777");
}

TEST(MsgSpec, EncodeDecodeRoundTripsEveryRow) {
  constexpr std::uint64_t want[4] = {11, 22, 33, 44};
  for (const MsgSpec& s : servers::kMsgSpecTable) {
    ASSERT_LE(int(s.args), 4) << s.name << ": widen the round-trip driver";
    const Message m = encode_row(s);
    EXPECT_EQ(m.type, s.type);

    const servers::MsgView view(m);
    EXPECT_EQ(&view.spec(), &s);
    for (int i = 0; i < int(s.args); ++i) {
      EXPECT_EQ(view.u(i), want[i]) << s.name << " arg " << i;
    }
    // Reads outside the schema are malformed-request fail-stops.
    if (s.args < 6) {
      EXPECT_THROW((void)view.u(s.args), kernel::FailStopFault) << s.name;
    }
    EXPECT_THROW((void)view.u(-1), kernel::FailStopFault) << s.name;
    if (s.text) {
      EXPECT_EQ(view.text(), "payload") << s.name;
    } else {
      EXPECT_THROW((void)view.text(), kernel::FailStopFault) << s.name;
    }
    // Args beyond the schema stay zero: dispatch validates exactly this.
    for (int i = int(s.args); i < 6; ++i) EXPECT_EQ(m.arg[i], 0u) << s.name;
  }
  EXPECT_THROW(servers::MsgView(make_msg(0x7777)), kernel::FailStopFault);
}

TEST(MsgSpec, EveryOwnedRowHasARegisteredHandler) {
  os::OsInstance inst;
  inst.boot();
  const std::map<std::string, servers::ServerCommon*> by_owner = {
      {"pm", &inst.pm()}, {"vm", &inst.vm()}, {"vfs", &inst.vfs()},
      {"ds", &inst.ds()}, {"rs", &inst.rs()}, {"sys", &inst.sys_task()}};
  for (const MsgSpec& s : servers::kMsgSpecTable) {
    const auto it = by_owner.find(s.server);
    if (it == by_owner.end()) continue;  // "client"/"any": no single dispatcher
    EXPECT_TRUE(it->second->has_handler(s.type))
        << s.name << " is owned by " << s.server << " but has no handler";
  }
  // And the cross-server reply continuations the protocol depends on.
  EXPECT_TRUE(inst.pm().has_reply_handler(servers::VFS_PM_EXEC));
  EXPECT_TRUE(inst.rs().has_reply_handler(servers::DS_PUBLISH));
}

TEST(MsgSpec, UnregisteredTypeFailStopsAtDispatch) {
  os::OsInstance inst;
  inst.boot();
  StubClient client;
  const kernel::Endpoint ep = inst.kern().register_client(&client);

  const std::uint64_t crashes_before = inst.kern().stats().crashes;
  inst.kern().send(ep, kernel::kDsEp, make_msg(0x7777));

  // The receiver fail-stops instead of guessing (SII-E). The validation runs
  // before the top-of-loop checkpoint, so the window is closed and the
  // windowed policies answer the unreconcilable crash with a controlled
  // shutdown rather than limping on.
  EXPECT_THROW(inst.kern().dispatch_pending(), kernel::ControlledShutdown);
  EXPECT_EQ(inst.kern().stats().crashes, crashes_before + 1);
  EXPECT_GE(inst.engine().stats().shutdowns, 1u);
}

TEST(MsgSpec, MalformedRequestsFailStopAtDispatch) {
  struct Case {
    const char* what;
    Message m;
    kernel::Endpoint dst;
  };
  // Args outside the schema, text on a textless message, and a delivery
  // kind contradicting the spec (RS_PONG is NOTE but sent as a plain
  // request) must each fail-stop the receiving server.
  Message textless = make_msg(servers::PM_GETPID);
  textless.text.assign("sneaky");
  const Case cases[] = {
      {"args outside schema", make_msg(servers::PM_GETPID, 5), kernel::kPmEp},
      {"text on textless", textless, kernel::kPmEp},
      {"kind mismatch", make_msg(servers::RS_PONG), kernel::kRsEp},
  };
  for (const Case& c : cases) {
    os::OsInstance inst;
    inst.boot();
    StubClient client;
    const kernel::Endpoint ep = inst.kern().register_client(&client);
    const std::uint64_t crashes_before = inst.kern().stats().crashes;
    inst.kern().send(ep, c.dst, c.m);
    EXPECT_THROW(inst.kern().dispatch_pending(), kernel::ControlledShutdown) << c.what;
    EXPECT_EQ(inst.kern().stats().crashes, crashes_before + 1) << c.what;
  }
}

TEST(MsgSpec, UnregisteredTypeUnderNaiveStillErrorReplies) {
  os::OsConfig cfg;
  cfg.policy = seep::Policy::kNaive;
  os::OsInstance inst(cfg);
  inst.boot();
  StubClient client;
  const kernel::Endpoint ep = inst.kern().register_client(&client);

  // DS fail-stops on the undeclared type. The spec has no row to say
  // whether its sender waits, so recovery takes the conservative answer:
  // the sender may be blocked, and the naive restart error-replies it.
  inst.kern().send(ep, kernel::kDsEp, make_msg(0x7777));
  inst.kern().dispatch_pending();
  EXPECT_EQ(client.replies, 1);
  EXPECT_EQ(client.last_reply.sarg(0), kernel::E_CRASH);
  EXPECT_EQ(inst.engine().stats().naive_restarts, 1u);
  EXPECT_EQ(inst.engine().stats().error_replies, 1u);
}
