// Unit tests: the recovery engine's three phases and four policies,
// exercised against a scripted Recoverable component.
#include <gtest/gtest.h>

#include "ckpt/cell.hpp"
#include "fi/registry.hpp"
#include "recovery/engine.hpp"
#include "servers/protocol.hpp"
#include "support/clock.hpp"

using namespace osiris;
using kernel::CrashAction;
using kernel::CrashContext;
using kernel::make_msg;

namespace {

struct FakeState {
  ckpt::Cell<int> value;
  ckpt::Cell<int> initialized;
};

/// Minimal recoverable component with a scripted state lifecycle.
class FakeComponent final : public recovery::Recoverable {
 public:
  FakeComponent(seep::Policy policy, kernel::Endpoint ep)
      : ep_(ep), ctx_(ckpt::Mode::kWindowOnly), window_(policy, ctx_) {
    reinitialize();
  }

  [[nodiscard]] std::string_view name() const override { return "fake"; }
  [[nodiscard]] kernel::Endpoint endpoint() const override { return ep_; }
  [[nodiscard]] std::uint64_t completed_dispatches() const override { return dispatches_; }
  std::byte* data_section() override { return reinterpret_cast<std::byte*>(&state_); }
  [[nodiscard]] std::size_t data_section_size() const override { return sizeof(state_); }
  ckpt::Context& ckpt_context() override { return ctx_; }
  seep::Window& window() override { return window_; }
  void reinitialize() override {
    ckpt::Context::Scope scope(&ctx_);
    state_.value = 0;
    state_.initialized += 1;  // counts boot-style initializations
  }
  void on_restored(bool rolled_back) override {
    ++restored_calls;
    last_rolled_back = rolled_back;
  }
  [[nodiscard]] std::size_t recovery_arena_bytes() const override { return arena; }

  /// Simulate request processing: open the window and mutate state.
  void begin_request_and_mutate(int new_value) {
    ckpt::Context::Scope scope(&ctx_);
    window_.open();
    state_.value = new_value;
  }

  /// Simulate a dispatch that returns without a fault: progress.
  void complete_dispatch() { ++dispatches_; }

  [[nodiscard]] int value() const { return state_.value; }
  [[nodiscard]] int initialized() const { return state_.initialized; }

  int restored_calls = 0;
  bool last_rolled_back = false;
  std::size_t arena = 0;

 private:
  kernel::Endpoint ep_;
  std::uint64_t dispatches_ = 0;
  FakeState state_{};
  ckpt::Context ctx_;
  seep::Window window_;
};

CrashContext crash_ctx(kernel::Endpoint ep, std::uint32_t type = servers::PM_GETPID) {
  CrashContext ctx;
  ctx.crashed = ep;
  ctx.had_inflight = true;
  ctx.inflight = make_msg(type);
  ctx.inflight.sender = kernel::Endpoint{20};
  ctx.what = "test fault";
  return ctx;
}

struct EngineFixture : ::testing::Test {
  VirtualClock clock;
  kernel::Kernel kern{clock};
};

}  // namespace

TEST_F(EngineFixture, WindowedCrashInOpenWindowRollsBackAndErrorReplies) {
  FakeComponent comp(seep::Policy::kEnhanced, kernel::kPmEp);
  recovery::Engine engine(kern, seep::Policy::kEnhanced);
  engine.register_component(&comp);

  comp.begin_request_and_mutate(99);
  ASSERT_EQ(comp.value(), 99);
  const auto d = engine.on_crash(crash_ctx(kernel::kPmEp));
  EXPECT_EQ(d.action, CrashAction::kErrorReply);
  EXPECT_EQ(d.reply.sarg(0), kernel::E_CRASH);
  EXPECT_EQ(comp.value(), 0);  // rolled back to the checkpoint
  EXPECT_EQ(comp.restored_calls, 1);
  EXPECT_TRUE(comp.last_rolled_back);
  EXPECT_EQ(engine.stats().rollbacks, 1u);
  EXPECT_EQ(engine.stats().error_replies, 1u);
}

TEST_F(EngineFixture, WindowedCrashWithClosedWindowShutsDown) {
  FakeComponent comp(seep::Policy::kEnhanced, kernel::kPmEp);
  recovery::Engine engine(kern, seep::Policy::kEnhanced);
  engine.register_component(&comp);

  comp.begin_request_and_mutate(7);
  comp.window().on_outbound(seep::SeepClass::kStateModifying);  // window closes
  const auto d = engine.on_crash(crash_ctx(kernel::kPmEp));
  EXPECT_EQ(d.action, CrashAction::kShutdown);
  EXPECT_EQ(comp.value(), 7);  // no rollback was possible
  EXPECT_EQ(engine.stats().shutdowns, 1u);
}

TEST_F(EngineFixture, WindowedCrashOnNonReplyableMessageShutsDown) {
  FakeComponent comp(seep::Policy::kEnhanced, kernel::kPmEp);
  recovery::Engine engine(kern, seep::Policy::kEnhanced);
  engine.register_component(&comp);

  comp.begin_request_and_mutate(7);
  CrashContext ctx = crash_ctx(kernel::kPmEp, servers::PM_SIG_NOTIFY);  // not replyable
  EXPECT_EQ(engine.on_crash(ctx).action, CrashAction::kShutdown);
}

TEST(Classification, UnknownTypeFallsToConservativeDefault) {
  // A type the spec does not declare has no replyable bit to read, so the
  // engine takes the conservative answer: its sender may be waiting and is
  // answered with E_CRASH on every path that error-replies, where a declared
  // unreplyable type (above) shuts the system down.
  constexpr std::uint32_t kUndeclared = 0x7777;
  ASSERT_EQ(servers::find_msg_spec(kUndeclared), nullptr);
  for (const seep::Policy policy :
       {seep::Policy::kEnhanced, seep::Policy::kPessimistic, seep::Policy::kNaive}) {
    VirtualClock clock;
    kernel::Kernel kern{clock};
    FakeComponent comp(policy, kernel::kPmEp);
    recovery::Engine engine(kern, policy);
    engine.register_component(&comp);
    comp.begin_request_and_mutate(5);
    const auto d = engine.on_crash(crash_ctx(kernel::kPmEp, kUndeclared));
    EXPECT_EQ(d.action, CrashAction::kErrorReply) << seep::policy_name(policy);
    EXPECT_EQ(d.reply.type, kUndeclared | kernel::kReplyBit) << seep::policy_name(policy);
    EXPECT_EQ(d.reply.sarg(0), kernel::E_CRASH) << seep::policy_name(policy);
    EXPECT_EQ(engine.stats().error_replies, 1u) << seep::policy_name(policy);
  }

  // The ladder's park rung answers it the same way: crashes 1-2 are
  // transient, crash 3 with no completed dispatch between them quarantines
  // the component.
  VirtualClock clock;
  kernel::Kernel kern{clock};
  FakeComponent comp(seep::Policy::kEnhanced, kernel::kPmEp);
  recovery::Engine engine(kern, seep::Policy::kEnhanced);
  engine.register_component(&comp);
  for (int i = 0; i < 3; ++i) {
    comp.begin_request_and_mutate(i + 1);
    const auto d = engine.on_crash(crash_ctx(kernel::kPmEp, kUndeclared));
    EXPECT_EQ(d.action, CrashAction::kErrorReply) << "crash " << i;
    EXPECT_EQ(d.reply.sarg(0), kernel::E_CRASH) << "crash " << i;
  }
  EXPECT_TRUE(engine.is_parked(kernel::kPmEp));
  EXPECT_EQ(engine.stats().quarantines, 1u);
  EXPECT_EQ(engine.stats().error_replies, 3u);
}

TEST_F(EngineFixture, StatelessRestartResetsStateAndNeverReplies) {
  FakeComponent comp(seep::Policy::kStateless, kernel::kPmEp);
  recovery::Engine engine(kern, seep::Policy::kStateless);
  engine.register_component(&comp);

  comp.begin_request_and_mutate(55);
  const auto d = engine.on_crash(crash_ctx(kernel::kPmEp));
  EXPECT_EQ(d.action, CrashAction::kNoReply);  // microreboot: requester hangs
  EXPECT_EQ(comp.value(), 0);                  // boot image restored
  EXPECT_EQ(engine.stats().stateless_restarts, 1u);
}

TEST_F(EngineFixture, NaiveRestartKeepsStateButReinitializes) {
  FakeComponent comp(seep::Policy::kNaive, kernel::kPmEp);
  recovery::Engine engine(kern, seep::Policy::kNaive);
  engine.register_component(&comp);

  const int boots_before = comp.initialized();
  comp.begin_request_and_mutate(31);
  const auto d = engine.on_crash(crash_ctx(kernel::kPmEp));
  EXPECT_EQ(d.action, CrashAction::kErrorReply);
  // "No special handling": boot-time init ran again over the stale state...
  EXPECT_EQ(comp.initialized(), boots_before + 1);
  // ...and reset value (init overwrites it) — but without the windowed
  // pipeline's consistency guarantees (no rollback happened).
  EXPECT_EQ(engine.stats().rollbacks, 0u);
  EXPECT_EQ(engine.stats().naive_restarts, 1u);
}

TEST_F(EngineFixture, CrashStormQuarantinesInsteadOfGivingUp) {
  // Pre-ladder, exhausting the recovery budget returned kGiveUp and wedged
  // the machine. Now the budget forces the quarantine rung: the component is
  // parked and error-virtualized, the system stays up.
  FakeComponent comp(seep::Policy::kEnhanced, kernel::kPmEp);
  recovery::Engine engine(kern, seep::Policy::kEnhanced, /*max_recoveries_per_component=*/3);
  engine.register_component(&comp);
  for (int i = 0; i < 6; ++i) {
    comp.begin_request_and_mutate(i);
    const auto d = engine.on_crash(crash_ctx(kernel::kPmEp));
    EXPECT_NE(d.action, CrashAction::kGiveUp) << "crash " << i;
    EXPECT_NE(d.action, CrashAction::kShutdown) << "crash " << i;
  }
  EXPECT_EQ(engine.stats().giveups, 0u);
  EXPECT_GE(engine.stats().budget_quarantines, 1u);
  // No server object is registered on this bare kernel, so the quarantine
  // flag lives in the engine only; the kernel-side rejection is covered by
  // the integration tests.
  EXPECT_TRUE(engine.is_parked(kernel::kPmEp));
}

TEST_F(EngineFixture, SpacedTransientCrashesStayOnPolicyRung) {
  FakeComponent comp(seep::Policy::kEnhanced, kernel::kPmEp);
  recovery::Engine engine(kern, seep::Policy::kEnhanced);
  engine.register_component(&comp);
  for (int i = 0; i < 5; ++i) {
    comp.begin_request_and_mutate(i + 1);
    EXPECT_EQ(engine.on_crash(crash_ctx(kernel::kPmEp)).action, CrashAction::kErrorReply);
    EXPECT_FALSE(engine.is_parked(kernel::kPmEp));
    // One completed dispatch between crashes, and no virtual time at all:
    // the component made progress, so no crash is part of a loop.
    comp.complete_dispatch();
  }
  EXPECT_EQ(engine.stats().transient_crashes, 5u);
  EXPECT_EQ(engine.stats().quarantines, 0u);
  EXPECT_FALSE(engine.is_parked(kernel::kPmEp));
}

TEST_F(EngineFixture, CrashBurstClimbsLadderToQuarantine) {
  FakeComponent comp(seep::Policy::kEnhanced, kernel::kPmEp);
  recovery::Engine engine(kern, seep::Policy::kEnhanced);
  engine.register_component(&comp);

  // Three crashes with no completed dispatch between them: crashes 1-2 are
  // transient, crash 3 is a crash loop. The virtual time between them does
  // not matter, however long it is.
  for (int i = 0; i < 2; ++i) {
    comp.begin_request_and_mutate(i + 1);
    engine.on_crash(crash_ctx(kernel::kPmEp));
    EXPECT_FALSE(engine.is_parked(kernel::kPmEp));
    EXPECT_EQ(comp.value(), 0);  // rolled back
    clock.spin(100000);
  }
  comp.begin_request_and_mutate(43);
  engine.on_crash(crash_ctx(kernel::kPmEp));  // straight to quarantine
  EXPECT_TRUE(engine.is_parked(kernel::kPmEp));
  EXPECT_EQ(comp.value(), 0);  // quarantine restarts from the boot image
  EXPECT_EQ(comp.restored_calls, 3);
  EXPECT_FALSE(comp.last_rolled_back);

  EXPECT_EQ(engine.stats().transient_crashes, 2u);
  EXPECT_EQ(engine.stats().quarantines, 1u);
  EXPECT_EQ(engine.stats().budget_quarantines, 0u);  // loop-driven, not budget
}

TEST_F(EngineFixture, ReadmitLiftsParkOnceAndIsIdempotent) {
  FakeComponent comp(seep::Policy::kEnhanced, kernel::kPmEp);
  recovery::Engine engine(kern, seep::Policy::kEnhanced);
  engine.register_component(&comp);
  for (int i = 0; i < 3; ++i) {
    comp.begin_request_and_mutate(i + 1);
    engine.on_crash(crash_ctx(kernel::kPmEp));
  }
  ASSERT_TRUE(engine.is_parked(kernel::kPmEp));

  engine.readmit(kernel::kPmEp);
  EXPECT_FALSE(engine.is_parked(kernel::kPmEp));
  EXPECT_FALSE(kern.is_quarantined(kernel::kPmEp));
  EXPECT_EQ(engine.stats().readmissions, 1u);
  engine.readmit(kernel::kPmEp);  // no-op: not parked
  EXPECT_EQ(engine.stats().readmissions, 1u);
}

TEST_F(EngineFixture, ParkWithoutRsIsReadmittedByClockFallback) {
  // No RS server registered on this kernel: entering quarantine arms the
  // readmission timer itself, so nothing else is needed to lift it.
  FakeComponent comp(seep::Policy::kEnhanced, kernel::kPmEp);
  recovery::Engine engine(kern, seep::Policy::kEnhanced);
  engine.register_component(&comp);
  for (int i = 0; i < 3; ++i) {
    comp.begin_request_and_mutate(i + 1);
    engine.on_crash(crash_ctx(kernel::kPmEp));
  }
  ASSERT_TRUE(engine.is_parked(kernel::kPmEp));
  ASSERT_TRUE(clock.has_pending());
  while (engine.is_parked(kernel::kPmEp) && clock.advance_to_next()) {
  }
  EXPECT_FALSE(engine.is_parked(kernel::kPmEp));
  EXPECT_FALSE(kern.is_quarantined(kernel::kPmEp));
  EXPECT_EQ(engine.stats().readmissions, 1u);
}

TEST_F(EngineFixture, ProbationKeepsPostReadmitCrashesRecurring) {
  // A readmitted component is on probation until it completes a dispatch:
  // readmission does not reset the crash streak, so however long the park
  // was, a crash before any progress is still part of the loop.
  FakeComponent comp(seep::Policy::kEnhanced, kernel::kPmEp);
  recovery::Engine engine(kern, seep::Policy::kEnhanced,
                          /*max_recoveries_per_component=*/32);
  engine.register_component(&comp);
  for (int i = 0; i < 3; ++i) {
    comp.begin_request_and_mutate(i + 1);
    engine.on_crash(crash_ctx(kernel::kPmEp));
  }
  ASSERT_TRUE(engine.is_parked(kernel::kPmEp));
  ASSERT_EQ(engine.stats().quarantines, 1u);

  clock.spin(1000000);
  engine.readmit(kernel::kPmEp);
  comp.begin_request_and_mutate(9);
  engine.on_crash(crash_ctx(kernel::kPmEp));
  EXPECT_EQ(engine.stats().transient_crashes, 2u);
  EXPECT_EQ(engine.stats().quarantines, 2u);
  EXPECT_TRUE(engine.is_parked(kernel::kPmEp));

  // Once readmitted, one completed dispatch ends the probation: the next
  // crash is transient and recovered by the policy.
  engine.readmit(kernel::kPmEp);
  comp.complete_dispatch();
  comp.begin_request_and_mutate(10);
  EXPECT_EQ(engine.on_crash(crash_ctx(kernel::kPmEp)).action, CrashAction::kErrorReply);
  EXPECT_EQ(engine.stats().transient_crashes, 3u);
  EXPECT_FALSE(engine.is_parked(kernel::kPmEp));
  EXPECT_TRUE(comp.last_rolled_back);
}

TEST_F(EngineFixture, QuarantineOfOneComponentDoesNotStallAnother) {
  // Satellite regression: giving up on (now: quarantining) one component
  // must leave every other component's recovery accounting untouched.
  FakeComponent pm(seep::Policy::kEnhanced, kernel::kPmEp);
  FakeComponent vm(seep::Policy::kEnhanced, kernel::kVmEp);
  recovery::Engine engine(kern, seep::Policy::kEnhanced, /*max_recoveries_per_component=*/2);
  engine.register_component(&pm);
  engine.register_component(&vm);

  for (int i = 0; i < 4; ++i) {
    pm.begin_request_and_mutate(i + 1);
    engine.on_crash(crash_ctx(kernel::kPmEp));
  }
  ASSERT_TRUE(engine.is_parked(kernel::kPmEp));
  ASSERT_GE(engine.stats().budget_quarantines, 1u);

  // VM crashes once while PM is quarantined: full policy-preferred recovery.
  vm.begin_request_and_mutate(7);
  const auto d = engine.on_crash(crash_ctx(kernel::kVmEp, servers::VM_MMAP));
  EXPECT_EQ(d.action, CrashAction::kErrorReply);
  EXPECT_EQ(vm.value(), 0);  // rolled back
  EXPECT_EQ(engine.recoveries_of(kernel::kVmEp), 1u);
  EXPECT_EQ(engine.recoveries_of(kernel::kPmEp), 4u);  // independent counters
  EXPECT_FALSE(engine.is_parked(kernel::kVmEp));
  EXPECT_FALSE(kern.is_quarantined(kernel::kVmEp));
}

TEST_F(EngineFixture, StormLatencyCountsFromATickZeroOnset) {
  // A storm that fires before the clock's first advance starts at tick 0,
  // a legitimate onset (Registry::storm_fired): the detection latency is
  // the whole time up to the throttle, not 0.
  fi::Registry& reg = fi::Registry::instance();
  reg.disarm();
  reg.note_storm_start(0);
  FakeComponent comp(seep::Policy::kEnhanced, kernel::kPmEp);
  recovery::Engine engine(kern, seep::Policy::kEnhanced);
  engine.register_component(&comp);
  clock.spin(30);
  engine.on_storm(kernel::kPmEp);
  reg.disarm();
  EXPECT_EQ(engine.stats().storm_throttles, 1u);
  ASSERT_TRUE(engine.stats().storm_detected);
  EXPECT_EQ(engine.stats().detection_latency_ticks, 30u);
}

TEST_F(EngineFixture, UnregisteredComponentIsUnrecoverable) {
  recovery::Engine engine(kern, seep::Policy::kEnhanced);
  EXPECT_EQ(engine.on_crash(crash_ctx(kernel::kVmEp)).action, CrashAction::kGiveUp);
}

TEST_F(EngineFixture, ClonePreallocationIncludesArena) {
  FakeComponent comp(seep::Policy::kEnhanced, kernel::kPmEp);
  comp.arena = 4096;
  recovery::Engine engine(kern, seep::Policy::kEnhanced);
  engine.register_component(&comp);
  EXPECT_EQ(engine.clone_bytes(kernel::kPmEp), sizeof(FakeState) + 4096);
  EXPECT_EQ(engine.clone_bytes(kernel::kVmEp), 0u);
}

TEST_F(EngineFixture, RecoveryCountsPerComponent) {
  FakeComponent comp(seep::Policy::kEnhanced, kernel::kPmEp);
  recovery::Engine engine(kern, seep::Policy::kEnhanced);
  engine.register_component(&comp);
  EXPECT_EQ(engine.recoveries_of(kernel::kPmEp), 0u);
  comp.begin_request_and_mutate(1);
  engine.on_crash(crash_ctx(kernel::kPmEp));
  EXPECT_EQ(engine.recoveries_of(kernel::kPmEp), 1u);
}
