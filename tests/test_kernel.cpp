// Unit tests: the simulated microkernel — IPC, grants, crash containment,
// hang conversion, system lifecycle.
#include <gtest/gtest.h>

#include "kernel/faults.hpp"
#include "kernel/kernel.hpp"
#include "support/clock.hpp"

using namespace osiris;
using kernel::Access;
using kernel::CrashAction;
using kernel::CrashDecision;
using kernel::Endpoint;
using kernel::Kernel;
using kernel::make_msg;
using kernel::make_reply;
using kernel::Message;

namespace {

/// Scriptable server for kernel-level tests.
class StubServer : public kernel::IServer {
 public:
  using Handler = std::function<std::optional<Message>(const Message&)>;

  explicit StubServer(std::string name, Handler h = {}) : name_(std::move(name)), handler_(std::move(h)) {}

  [[nodiscard]] std::string_view name() const override { return name_; }
  std::optional<Message> dispatch(const Message& m) override {
    ++dispatches;
    last = m;
    if (handler_) return handler_(m);
    return make_reply(m.type, kernel::OK);
  }

  int dispatches = 0;
  Message last;

 private:
  std::string name_;
  Handler handler_;
};

class StubClient : public kernel::IClient {
 public:
  void on_reply(const Message& reply) override {
    ++replies;
    last_reply = reply;
  }
  void on_notify(const Message& msg) override {
    ++notifies;
    last_notify = msg;
  }
  int replies = 0;
  int notifies = 0;
  Message last_reply;
  Message last_notify;
};

struct KernelFixture : ::testing::Test {
  VirtualClock clock;
  Kernel kern{clock};
  StubServer server{"stub"};
  StubClient client;
  Endpoint client_ep;

  void SetUp() override {
    kern.register_server(kernel::kPmEp, &server);
    client_ep = kern.register_client(&client);
  }
};

}  // namespace

TEST_F(KernelFixture, SendDispatchesAndRepliesToClient) {
  kern.send(client_ep, kernel::kPmEp, make_msg(0x42, 7));
  EXPECT_TRUE(kern.dispatch_pending());
  EXPECT_EQ(server.dispatches, 1);
  EXPECT_EQ(server.last.sender, client_ep);
  EXPECT_EQ(server.last.arg[0], 7u);
  EXPECT_EQ(client.replies, 1);
  EXPECT_EQ(client.last_reply.type, kernel::reply_type(0x42));
}

TEST_F(KernelFixture, NotifyHasNotifyBitAndNoReply) {
  kern.notify(kernel::kPmEp, client_ep, 0x55);
  kern.dispatch_pending();
  EXPECT_EQ(client.notifies, 1);
  EXPECT_TRUE(kernel::is_notify(client.last_notify.type));
  EXPECT_EQ(client.replies, 0);
}

TEST_F(KernelFixture, NestedCallReturnsReplyInline) {
  StubServer callee("callee", [](const Message& m) {
    Message r = make_reply(m.type, 123);
    return std::optional<Message>(r);
  });
  kern.register_server(kernel::kVmEp, &callee);
  const Message r = kern.call(kernel::kPmEp, kernel::kVmEp, make_msg(0x10));
  EXPECT_EQ(r.sarg(0), 123);
  EXPECT_EQ(callee.dispatches, 1);
}

TEST_F(KernelFixture, CrashWithErrorReplyDecisionReachesRequester) {
  StubServer crasher("crasher", [](const Message&) -> std::optional<Message> {
    throw kernel::FailStopFault("bang", 1);
  });
  kern.register_server(kernel::kVmEp, &crasher);
  int handler_calls = 0;
  kern.set_crash_handler([&](const kernel::CrashContext& ctx) {
    ++handler_calls;
    EXPECT_EQ(ctx.crashed, kernel::kVmEp);
    EXPECT_TRUE(ctx.had_inflight);
    return CrashDecision{CrashAction::kErrorReply, make_reply(ctx.inflight.type, kernel::E_CRASH)};
  });
  kern.send(client_ep, kernel::kVmEp, make_msg(0x20));
  kern.dispatch_pending();
  EXPECT_EQ(handler_calls, 1);
  EXPECT_EQ(client.replies, 1);
  EXPECT_EQ(client.last_reply.sarg(0), kernel::E_CRASH);
  EXPECT_EQ(kern.state(), kernel::SystemState::kRunning);
}

TEST_F(KernelFixture, CrashInNestedCallReturnsErrorReplyToCaller) {
  StubServer crasher("crasher", [](const Message&) -> std::optional<Message> {
    throw kernel::FailStopFault("bang", 2);
  });
  kern.register_server(kernel::kVmEp, &crasher);
  kern.set_crash_handler([](const kernel::CrashContext& ctx) {
    return CrashDecision{CrashAction::kErrorReply, make_reply(ctx.inflight.type, kernel::E_CRASH)};
  });
  const Message r = kern.call(kernel::kPmEp, kernel::kVmEp, make_msg(0x30));
  EXPECT_EQ(r.sarg(0), kernel::E_CRASH);
}

TEST_F(KernelFixture, ShutdownDecisionHaltsSystem) {
  StubServer crasher("crasher", [](const Message&) -> std::optional<Message> {
    throw kernel::FailStopFault("fatal", 3);
  });
  kern.register_server(kernel::kVmEp, &crasher);
  kern.set_crash_handler([](const kernel::CrashContext&) {
    return CrashDecision{CrashAction::kShutdown, {}};
  });
  kern.send(client_ep, kernel::kVmEp, make_msg(0x40));
  EXPECT_THROW(kern.dispatch_pending(), kernel::ControlledShutdown);
  EXPECT_EQ(kern.state(), kernel::SystemState::kShutdown);
}

TEST_F(KernelFixture, CrashWithoutHandlerWedgesSystem) {
  StubServer crasher("crasher", [](const Message&) -> std::optional<Message> {
    throw kernel::FailStopFault("unhandled", 4);
  });
  kern.register_server(kernel::kVmEp, &crasher);
  kern.send(client_ep, kernel::kVmEp, make_msg(0x50));
  kern.dispatch_pending();
  EXPECT_EQ(kern.state(), kernel::SystemState::kCrashed);
}

TEST_F(KernelFixture, HangSuspendMarksServerHungAndDropsMessages) {
  StubServer hanger("hanger", [](const Message&) -> std::optional<Message> {
    throw kernel::HangSuspend{};
  });
  kern.register_server(kernel::kVmEp, &hanger);
  kern.send(client_ep, kernel::kVmEp, make_msg(0x60));
  kern.dispatch_pending();
  EXPECT_TRUE(kern.is_hung(kernel::kVmEp));
  // Messages to a hung server vanish without dispatch.
  kern.send(client_ep, kernel::kVmEp, make_msg(0x61));
  kern.dispatch_pending();
  EXPECT_EQ(hanger.dispatches, 1);
}

TEST_F(KernelFixture, RecoverHungRunsCrashPipeline) {
  StubServer hanger("hanger", [](const Message&) -> std::optional<Message> {
    throw kernel::HangSuspend{};
  });
  kern.register_server(kernel::kVmEp, &hanger);
  bool saw_hang_ctx = false;
  kern.set_crash_handler([&](const kernel::CrashContext& ctx) {
    saw_hang_ctx = ctx.was_hang;
    return CrashDecision{CrashAction::kErrorReply, make_reply(ctx.inflight.type, kernel::E_CRASH)};
  });
  kern.send(client_ep, kernel::kVmEp, make_msg(0x70));
  kern.dispatch_pending();
  ASSERT_TRUE(kern.is_hung(kernel::kVmEp));
  kern.recover_hung(kernel::kVmEp);
  EXPECT_FALSE(kern.is_hung(kernel::kVmEp));
  EXPECT_TRUE(saw_hang_ctx);
  EXPECT_EQ(client.last_reply.sarg(0), kernel::E_CRASH);
}

TEST_F(KernelFixture, CallingHungServerHangsCaller) {
  StubServer hanger("hanger", [](const Message&) -> std::optional<Message> {
    throw kernel::HangSuspend{};
  });
  StubServer caller("caller");
  kern.register_server(kernel::kVmEp, &hanger);
  kern.register_server(kernel::kVfsEp, &caller);
  kern.send(client_ep, kernel::kVmEp, make_msg(0x80));
  kern.dispatch_pending();
  ASSERT_TRUE(kern.is_hung(kernel::kVmEp));
  EXPECT_THROW(kern.call(kernel::kVfsEp, kernel::kVmEp, make_msg(0x81)), kernel::HangSuspend);
}

// --- grants ---------------------------------------------------------------

TEST_F(KernelFixture, GrantSafecopyRoundTrip) {
  std::byte buf[8] = {};
  const auto g = kern.make_grant(client_ep, kernel::kPmEp, buf, sizeof buf, Access::kReadWrite);
  const char src[4] = {'a', 'b', 'c', 'd'};
  EXPECT_EQ(kern.safecopy_to(kernel::kPmEp, g, 2, src, 4), 4);
  char dst[4] = {};
  EXPECT_EQ(kern.safecopy_from(kernel::kPmEp, g, 2, dst, 4), 4);
  EXPECT_EQ(std::string_view(dst, 4), "abcd");
}

TEST_F(KernelFixture, GrantRejectsWrongGrantee) {
  std::byte buf[8] = {};
  const auto g = kern.make_grant(client_ep, kernel::kPmEp, buf, sizeof buf, Access::kRead);
  char dst[4];
  EXPECT_EQ(kern.safecopy_from(kernel::kVmEp, g, 0, dst, 4), kernel::E_PERM);
}

TEST_F(KernelFixture, GrantRejectsOutOfBounds) {
  std::byte buf[8] = {};
  const auto g = kern.make_grant(client_ep, kernel::kPmEp, buf, sizeof buf, Access::kReadWrite);
  char tmp[8];
  EXPECT_EQ(kern.safecopy_from(kernel::kPmEp, g, 4, tmp, 8), kernel::E_INVAL);
  EXPECT_EQ(kern.safecopy_from(kernel::kPmEp, g, 9, tmp, 1), kernel::E_INVAL);
}

TEST_F(KernelFixture, GrantRejectsWrongAccess) {
  std::byte buf[8] = {};
  const auto g = kern.make_grant(client_ep, kernel::kPmEp, buf, sizeof buf, Access::kRead);
  const char src[1] = {'x'};
  EXPECT_EQ(kern.safecopy_to(kernel::kPmEp, g, 0, src, 1), kernel::E_PERM);
}

TEST_F(KernelFixture, RevokedGrantIsDead) {
  std::byte buf[8] = {};
  const auto g = kern.make_grant(client_ep, kernel::kPmEp, buf, sizeof buf, Access::kReadWrite);
  kern.revoke_grant(g);
  char tmp[1];
  EXPECT_EQ(kern.safecopy_from(kernel::kPmEp, g, 0, tmp, 1), kernel::E_INVAL);
}

TEST_F(KernelFixture, GrantDiesWithItsOwner) {
  // A process killed mid-syscall never reaches its revoke_grant; its grants
  // must not outlive it, or a server holding the id copies into freed memory.
  std::byte buf[8] = {};
  const auto g = kern.make_grant(client_ep, kernel::kPmEp, buf, sizeof buf, Access::kReadWrite);
  kern.unregister_client(client_ep);
  char tmp[1];
  EXPECT_EQ(kern.safecopy_from(kernel::kPmEp, g, 0, tmp, 1), kernel::E_INVAL);
}

TEST_F(KernelFixture, MessagesToDeadEndpointsAreDropped) {
  kern.unregister_client(client_ep);
  kern.send(kernel::kPmEp, client_ep, make_msg(0x90));
  EXPECT_TRUE(kern.dispatch_pending());  // processed (and dropped) cleanly
  EXPECT_EQ(client.replies, 0);
}

TEST_F(KernelFixture, SendAfterHaltIsIgnored) {
  kern.request_shutdown("test");
  kern.send(client_ep, kernel::kPmEp, make_msg(0x99));
  EXPECT_FALSE(kern.dispatch_pending());
  EXPECT_EQ(server.dispatches, 0);
}

TEST_F(KernelFixture, StatsCountTraffic) {
  kern.send(client_ep, kernel::kPmEp, make_msg(0x42));
  kern.dispatch_pending();
  EXPECT_EQ(kern.stats().messages_queued, 1u);
  EXPECT_EQ(kern.stats().server_dispatches, 1u);
  EXPECT_GE(kern.stats().replies_to_clients, 1u);
}

TEST_F(KernelFixture, BurstCapValveStopsSelfSustainingDrain) {
  // A server that re-sends to itself keeps the drain loop fed forever. With
  // the valve at N, exactly N deliveries happen, then the backlog is dropped
  // and dispatch_pending returns.
  constexpr std::uint64_t kCap = 50;
  StubServer looper("looper", [this](const Message& m) -> std::optional<Message> {
    kern.send(kernel::kVfsEp, kernel::kVfsEp, make_msg(m.type, m.arg[0] + 1));
    return std::nullopt;
  });
  kern.register_server(kernel::kVfsEp, &looper);
  kern.set_dispatch_burst_cap(kCap);
  kern.send(client_ep, kernel::kVfsEp, make_msg(0x77, 0));
  EXPECT_TRUE(kern.dispatch_pending());
  EXPECT_EQ(looper.dispatches, static_cast<int>(kCap));
  EXPECT_EQ(looper.last.arg[0], kCap - 1);  // delivered in send order
  EXPECT_EQ(kern.stats().dispatch_aborts, 1u);
  EXPECT_TRUE(kern.queue_empty());
  EXPECT_FALSE(kern.dispatch_pending());
}
