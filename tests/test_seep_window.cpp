// Window accounting edge cases: per-policy close rules, the close
// double-count guard, and the closed_by_yield path.
#include <gtest/gtest.h>

#include "ckpt/context.hpp"
#include "seep/policy.hpp"
#include "seep/window.hpp"

using namespace osiris;
using seep::Policy;
using seep::SeepClass;

namespace {

struct WindowFixture {
  ckpt::Context ctx{ckpt::Mode::kWindowOnly};
  seep::Window window;
  explicit WindowFixture(Policy p) : window(p, ctx) {}
};

}  // namespace

TEST(Window, EnhancedClosesOnStateModifyingOnly) {
  WindowFixture f(Policy::kEnhanced);
  f.window.open();
  f.window.on_outbound(SeepClass::kNonStateModifying);
  EXPECT_TRUE(f.window.is_open());
  f.window.on_outbound(SeepClass::kStateModifying);
  EXPECT_FALSE(f.window.is_open());
  EXPECT_EQ(f.window.stats().closed_by_seep, 1u);
  // Further outbound traffic on a closed window is not double-counted.
  f.window.on_outbound(SeepClass::kStateModifying);
  EXPECT_EQ(f.window.stats().closed_by_seep, 1u);
}

TEST(Window, PessimisticClosesOnAnyOutbound) {
  WindowFixture f(Policy::kPessimistic);
  f.window.open();
  f.window.on_outbound(SeepClass::kNonStateModifying);
  EXPECT_FALSE(f.window.is_open());
  EXPECT_EQ(f.window.stats().closed_by_seep, 1u);
}

TEST(Window, YieldForcesCloseOnceAndOnlyWhileOpen) {
  WindowFixture f(Policy::kEnhanced);
  f.window.on_yield();  // no window open: nothing to close
  EXPECT_EQ(f.window.stats().closed_by_yield, 0u);

  f.window.open();
  f.window.on_yield();
  EXPECT_FALSE(f.window.is_open());
  EXPECT_EQ(f.window.stats().closed_by_yield, 1u);
  f.window.on_yield();  // already closed
  EXPECT_EQ(f.window.stats().closed_by_yield, 1u);
}

TEST(Window, NonWindowPolicyOpenIsNoOp) {
  WindowFixture f(Policy::kNaive);
  f.window.open();
  EXPECT_FALSE(f.window.is_open());
  EXPECT_EQ(f.window.stats().opened, 0u);
  f.window.on_outbound(SeepClass::kStateModifying);
  EXPECT_EQ(f.window.stats().closed_by_seep, 0u);
}

TEST(Window, ProbeHitsAttributedToWindowState) {
  WindowFixture f(Policy::kEnhanced);
  f.window.probe_hit();
  f.window.open();
  f.window.probe_hit();
  f.window.probe_hit();
  EXPECT_EQ(f.window.stats().probe_hits_inside, 2u);
  EXPECT_EQ(f.window.stats().probe_hits_outside, 1u);
  EXPECT_DOUBLE_EQ(f.window.stats().coverage(), 2.0 / 3.0);
}

TEST(Window, ContextWindowFlagTracksOpenClose) {
  WindowFixture f(Policy::kEnhanced);
  EXPECT_FALSE(f.ctx.window_open());
  f.window.open();
  EXPECT_TRUE(f.ctx.window_open());
  f.window.on_outbound(SeepClass::kStateModifying);
  EXPECT_FALSE(f.ctx.window_open());
}
