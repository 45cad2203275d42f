// Unit tests: SEEP classification/policies/window state machine, and the
// cooperative thread library.
#include <gtest/gtest.h>

#include <cfenv>
#include <cstdint>
#include <vector>

#include "cothread/fiber.hpp"
#include "seep/policy.hpp"
#include "seep/seep.hpp"
#include "seep/window.hpp"
#include "servers/protocol.hpp"

using namespace osiris;

// --- classification ---------------------------------------------------

TEST(Classification, UnknownTypesGetConservativeDefault) {
  // Types the spec does not declare: far outside the registry, just below
  // and just past its slot range, and an unused slot inside it, each also
  // with the notify and reply bits set.
  std::vector<std::uint32_t> unknown = {0xdeadbeef, 0x7777, 0,
                                        servers::kMsgBase - 1,
                                        servers::kMsgBase + servers::kMsgSlots};
  for (std::uint32_t t = servers::kMsgBase; t < servers::kMsgBase + servers::kMsgSlots; ++t) {
    if (servers::find_msg_spec(t) == nullptr) {
      unknown.push_back(t);
      break;
    }
  }
  ASSERT_EQ(unknown.size(), 6u) << "every registry slot is declared";
  for (const std::uint32_t base : unknown) {
    for (const std::uint32_t t : {base, base | kernel::kNotifyBit, base | kernel::kReplyBit}) {
      EXPECT_EQ(servers::find_msg_spec(t), nullptr) << std::hex << t;
      // The sender of an undeclared type may be waiting: it is replyable.
      EXPECT_TRUE(servers::msg_replyable(t)) << std::hex << t;
    }
  }
  // A declared type keeps its row's answer.
  EXPECT_TRUE(servers::msg_replyable(servers::PM_FORK));
  EXPECT_FALSE(servers::msg_replyable(servers::PM_SIG_NOTIFY));
  EXPECT_FALSE(servers::msg_replyable(servers::RS_PONG));
}

TEST(Classification, SystemTableCoversKeyMessages) {
  // Each message's SEEP class and replyability are read from its spec row.
  auto spec = [](std::uint32_t type) {
    const servers::MsgSpec* s = servers::find_msg_spec(type);
    EXPECT_NE(s, nullptr) << std::hex << type;
    return s != nullptr ? *s : servers::MsgSpec{};
  };
  EXPECT_GT(servers::kMsgSpecCount, 40u);
  // The classifications Table I's shape depends on:
  EXPECT_EQ(spec(servers::DS_NOTIFY_SUB).seep, seep::SeepClass::kNonStateModifying);
  EXPECT_EQ(spec(servers::VFS_PM_EXEC).seep, seep::SeepClass::kNonStateModifying);
  EXPECT_EQ(spec(servers::VM_INFO).seep, seep::SeepClass::kNonStateModifying);
  EXPECT_EQ(spec(servers::RS_PING).seep, seep::SeepClass::kStateModifying);
  EXPECT_EQ(spec(servers::VM_FORK_AS).seep, seep::SeepClass::kStateModifying);
  // Address-space changes of the requesting process modify VM's state.
  EXPECT_EQ(spec(servers::VM_MMAP).seep, seep::SeepClass::kStateModifying);
  EXPECT_EQ(spec(servers::VM_MUNMAP).seep, seep::SeepClass::kStateModifying);
  EXPECT_EQ(spec(servers::VM_BRK_AS).seep, seep::SeepClass::kStateModifying);
  EXPECT_FALSE(spec(servers::PM_SIG_NOTIFY).replyable());
  EXPECT_TRUE(spec(servers::PM_FORK).replyable());
}

// --- policies ----------------------------------------------------------

TEST(Policy, WindowUsage) {
  EXPECT_FALSE(seep::policy_uses_windows(seep::Policy::kStateless));
  EXPECT_FALSE(seep::policy_uses_windows(seep::Policy::kNaive));
  EXPECT_TRUE(seep::policy_uses_windows(seep::Policy::kPessimistic));
  EXPECT_TRUE(seep::policy_uses_windows(seep::Policy::kEnhanced));
}

TEST(Policy, CloseRules) {
  using seep::Policy;
  using seep::SeepClass;
  EXPECT_TRUE(seep::policy_closes_window(Policy::kPessimistic, SeepClass::kNonStateModifying));
  EXPECT_TRUE(seep::policy_closes_window(Policy::kPessimistic, SeepClass::kStateModifying));
  EXPECT_FALSE(seep::policy_closes_window(Policy::kEnhanced, SeepClass::kNonStateModifying));
  EXPECT_TRUE(seep::policy_closes_window(Policy::kEnhanced, SeepClass::kStateModifying));
  EXPECT_FALSE(seep::policy_closes_window(Policy::kStateless, SeepClass::kStateModifying));
}

// --- window state machine -----------------------------------------------

namespace {
struct WindowFixture : ::testing::Test {
  ckpt::Context ctx{ckpt::Mode::kWindowOnly};
};
}  // namespace

TEST_F(WindowFixture, OpenTakesCheckpointAndEnablesLogging) {
  seep::Window w(seep::Policy::kEnhanced, ctx);
  int v = 0;
  ctx.log().record(&v, sizeof v);  // stale entry from "last request"
  w.open();
  EXPECT_TRUE(w.is_open());
  EXPECT_TRUE(ctx.window_open());
  EXPECT_TRUE(ctx.log().empty());  // checkpoint = log reset
}

TEST_F(WindowFixture, EnhancedSurvivesNonStateModifyingSeep) {
  seep::Window w(seep::Policy::kEnhanced, ctx);
  w.open();
  w.on_outbound(seep::SeepClass::kNonStateModifying);
  EXPECT_TRUE(w.is_open());
  w.on_outbound(seep::SeepClass::kStateModifying);
  EXPECT_FALSE(w.is_open());
  EXPECT_FALSE(ctx.window_open());
  EXPECT_EQ(w.stats().closed_by_seep, 1u);
}

TEST_F(WindowFixture, PessimisticClosesOnAnySeep) {
  seep::Window w(seep::Policy::kPessimistic, ctx);
  w.open();
  w.on_outbound(seep::SeepClass::kNonStateModifying);
  EXPECT_FALSE(w.is_open());
}

TEST_F(WindowFixture, YieldForcesClose) {
  seep::Window w(seep::Policy::kEnhanced, ctx);
  w.open();
  w.on_yield();
  EXPECT_FALSE(w.is_open());
  EXPECT_EQ(w.stats().closed_by_yield, 1u);
}

TEST_F(WindowFixture, CloseDiscardsUndoLog) {
  seep::Window w(seep::Policy::kEnhanced, ctx);
  w.open();
  int v = 0;
  ctx.log().record(&v, sizeof v);
  w.on_outbound(seep::SeepClass::kStateModifying);
  EXPECT_TRUE(ctx.log().empty());  // past the window the checkpoint is useless
}

TEST_F(WindowFixture, StatelessPolicyNeverOpens) {
  seep::Window w(seep::Policy::kStateless, ctx);
  w.open();
  EXPECT_FALSE(w.is_open());
}

TEST_F(WindowFixture, ProbeHitsSplitByWindowState) {
  seep::Window w(seep::Policy::kEnhanced, ctx);
  w.open();
  w.probe_hit();
  w.probe_hit();
  w.on_outbound(seep::SeepClass::kStateModifying);
  w.probe_hit();
  EXPECT_EQ(w.stats().probe_hits_inside, 2u);
  EXPECT_EQ(w.stats().probe_hits_outside, 1u);
  EXPECT_NEAR(w.stats().coverage(), 2.0 / 3.0, 1e-9);
}

// --- fibers -----------------------------------------------------------

TEST(Fiber, RunsToCompletion) {
  int steps = 0;
  cothread::Fiber f([&] { steps = 42; });
  f.resume();
  EXPECT_TRUE(f.finished());
  EXPECT_EQ(steps, 42);
}

TEST(Fiber, SuspendAndResume) {
  std::vector<int> order;
  cothread::Fiber f([&] {
    order.push_back(1);
    cothread::Fiber::suspend();
    order.push_back(3);
  });
  f.resume();
  order.push_back(2);
  f.resume();
  order.push_back(4);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_TRUE(f.finished());
}

TEST(Fiber, CurrentTracksExecution) {
  EXPECT_EQ(cothread::Fiber::current(), nullptr);
  cothread::Fiber* seen = nullptr;
  cothread::Fiber f([&] { seen = cothread::Fiber::current(); });
  f.resume();
  EXPECT_EQ(seen, &f);
  EXPECT_EQ(cothread::Fiber::current(), nullptr);
}

TEST(Fiber, ExceptionIsCapturedNotPropagated) {
  cothread::Fiber f([] { throw std::runtime_error("inside fiber"); });
  f.resume();  // must not throw on the resumer's stack
  EXPECT_TRUE(f.finished());
  auto e = f.take_exception();
  ASSERT_TRUE(e != nullptr);
  EXPECT_THROW(std::rethrow_exception(e), std::runtime_error);
  EXPECT_EQ(f.take_exception(), nullptr);  // fetching clears
}

TEST(Fiber, AllocatesStackAtFirstResume) {
  // A fiber that never runs (a refused fork's child) holds no stack.
  cothread::Fiber never([] {});
  EXPECT_FALSE(never.has_stack());
  cothread::Fiber f([&] {
    EXPECT_TRUE(f.has_stack());
    cothread::Fiber::suspend();
  });
  EXPECT_FALSE(f.has_stack());
  f.resume();
  EXPECT_EQ(f.state(), cothread::Fiber::State::kSuspended);
  EXPECT_TRUE(f.has_stack());
  f.resume();
  EXPECT_TRUE(f.finished());
}

TEST(Fiber, ManyFibersInterleave) {
  constexpr int kN = 16;
  std::vector<std::unique_ptr<cothread::Fiber>> fibers;
  std::vector<int> counters(kN, 0);
  for (int i = 0; i < kN; ++i) {
    fibers.push_back(std::make_unique<cothread::Fiber>([&counters, i] {
      for (int round = 0; round < 5; ++round) {
        ++counters[i];
        cothread::Fiber::suspend();
      }
    }));
  }
  for (int round = 0; round < 5; ++round) {
    for (auto& f : fibers) f->resume();
  }
  for (int i = 0; i < kN; ++i) EXPECT_EQ(counters[i], 5);
}

TEST(Fiber, NestedResumeFromInsideFiber) {
  // A fiber resuming another fiber (as VFS does when a worker runs while a
  // user fiber's syscall chain is active elsewhere).
  int inner_ran = 0;
  cothread::Fiber inner([&] { inner_ran = 1; });
  cothread::Fiber outer([&] {
    inner.resume();
    EXPECT_EQ(cothread::Fiber::current(), &outer);
  });
  outer.resume();
  EXPECT_EQ(inner_ran, 1);
  EXPECT_TRUE(outer.finished());
}

TEST(Fiber, FloatingPointControlStateIsPerFiber) {
  // The x87 control word and MXCSR are callee-saved: a rounding mode set in
  // a fiber must neither leak into its resumer nor be lost across a suspend.
  // volatile keeps the divisions at run time, under the live rounding mode.
  volatile double one = 1.0;
  volatile double three = 3.0;
  const double nearest = one / three;
  int fiber_mode_on_resume = -1;
  double fiber_third_on_resume = 0.0;
  cothread::Fiber f([&] {
    ASSERT_EQ(std::fesetround(FE_UPWARD), 0);
    cothread::Fiber::suspend();
    fiber_mode_on_resume = std::fegetround();
    fiber_third_on_resume = one / three;
    std::fesetround(FE_TONEAREST);
  });
  ASSERT_EQ(std::fegetround(), FE_TONEAREST);
  f.resume();
  EXPECT_EQ(std::fegetround(), FE_TONEAREST);
  EXPECT_EQ(one / three, nearest);
  f.resume();
  EXPECT_TRUE(f.finished());
  EXPECT_EQ(fiber_mode_on_resume, FE_UPWARD);
  EXPECT_GT(fiber_third_on_resume, nearest);
  EXPECT_EQ(std::fegetround(), FE_TONEAREST);
}

namespace {

// Keeps a dozen values live across every step(), in whichever registers the
// compiler picks (callee-saved ones, since a switch is an opaque call), and
// counts the rounds on which any of them came back wrong. The empty asm
// statements hide the values' closed form, so the checks cannot fold away.
template <typename Step>
[[gnu::noinline]] void churn_registers(std::uint64_t seed, int rounds, int* mismatches,
                                       Step step) {
  std::uint64_t r0 = seed, r1 = seed * 3, r2 = seed * 5, r3 = seed * 7, r4 = seed * 11,
                r5 = seed * 13, r6 = seed * 17, r7 = seed * 19, r8 = seed * 23, r9 = seed * 29,
                r10 = seed * 31, r11 = seed * 37;
  for (int i = 1; i <= rounds; ++i) {
    step();
    asm volatile("" : "+r"(r0), "+r"(r1), "+r"(r2), "+r"(r3), "+r"(r4), "+r"(r5));
    asm volatile("" : "+r"(r6), "+r"(r7), "+r"(r8), "+r"(r9), "+r"(r10), "+r"(r11));
    r0 += 1, r1 += 2, r2 += 3, r3 += 4, r4 += 5, r5 += 6;
    r6 += 7, r7 += 8, r8 += 9, r9 += 10, r10 += 11, r11 += 12;
    const auto n = static_cast<std::uint64_t>(i);
    const bool ok = r0 == seed + n && r1 == seed * 3 + 2 * n && r2 == seed * 5 + 3 * n &&
                    r3 == seed * 7 + 4 * n && r4 == seed * 11 + 5 * n &&
                    r5 == seed * 13 + 6 * n && r6 == seed * 17 + 7 * n &&
                    r7 == seed * 19 + 8 * n && r8 == seed * 23 + 9 * n &&
                    r9 == seed * 29 + 10 * n && r10 == seed * 31 + 11 * n &&
                    r11 == seed * 37 + 12 * n;
    if (!ok) ++*mismatches;
  }
}

}  // namespace

TEST(Fiber, CalleeSavedRegistersSurviveInterleavedSwitches) {
  // Both directions: each fiber's values across its suspends, and the
  // resumer's across its resumes.
  constexpr int kRounds = 10000;
  const auto suspend = [] { cothread::Fiber::suspend(); };
  int mismatches_a = 0;
  int mismatches_b = 0;
  int mismatches_resumer = 0;
  cothread::Fiber a([&] { churn_registers(0x1111, kRounds, &mismatches_a, suspend); });
  cothread::Fiber b([&] { churn_registers(0x2222'0000'0000, kRounds, &mismatches_b, suspend); });
  a.resume();  // each fiber runs to its first suspend
  b.resume();
  churn_registers(0x3333'0000, kRounds, &mismatches_resumer, [&] {
    a.resume();
    b.resume();
  });
  EXPECT_TRUE(a.finished());
  EXPECT_TRUE(b.finished());
  EXPECT_EQ(mismatches_a, 0);
  EXPECT_EQ(mismatches_b, 0);
  EXPECT_EQ(mismatches_resumer, 0);
}
