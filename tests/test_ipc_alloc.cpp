// A syscall round trip at steady state makes no heap allocation: the kernel
// queue reuses its ring slots, the grant table reuses its vector, and the
// server builds its reply in place.
//
// This file is its own test executable because it replaces the global
// operator new to count calls, which must not reach any other test.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>

#include "kernel/kernel.hpp"
#include "os/instance.hpp"
#include "servers/protocol.hpp"

namespace {

std::uint64_t g_news = 0;  // calls of the global operator new

}  // namespace

// Out of line, so that GCC never inlines a free() against an allocation it
// took for the standard operator new and warns of a mismatch.
[[gnu::noinline]] void* operator new(std::size_t n) {
  ++g_news;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace osiris;

/// A raw kernel client (no fiber) that records the last reply.
class GetpidClient final : public kernel::IClient {
 public:
  void on_reply(const kernel::Message& r) override {
    replied = true;
    status = r.sarg(0);
  }
  void on_notify(const kernel::Message&) override {}

  bool replied = false;
  std::int64_t status = 0;
};

TEST(IpcAlloc, GetpidRoundTripWithAGrantAllocatesNothing) {
  constexpr int kWarmupRounds = 1000;
  constexpr int kCountedRounds = 10000;
  constexpr std::int32_t kPid = 1;

  os::OsInstance inst;
  inst.boot();
  kernel::Kernel& kern = inst.kern();
  GetpidClient cli;
  const kernel::Endpoint ep = kern.register_client(&cli);
  inst.pm().register_boot_proc(kPid, ep, "alloc");
  inst.vm().register_boot_proc(kPid);
  inst.vfs().register_boot_proc(kPid, ep);
  inst.sys_task().register_boot_proc(kPid);

  std::byte buf[64] = {};
  int wrong = 0;  // rounds whose reply was missing or not our pid
  const auto round = [&] {
    const kernel::GrantId g =
        kern.make_grant(ep, kernel::kPmEp, buf, sizeof buf, kernel::Access::kRead);
    cli.replied = false;
    kern.send(ep, kernel::kPmEp, servers::encode(servers::PM_GETPID));
    kern.dispatch_pending();
    if (!cli.replied || cli.status != kPid) ++wrong;
    kern.revoke_grant(g);
  };

  for (int i = 0; i < kWarmupRounds; ++i) round();
  const std::uint64_t before = g_news;
  for (int i = 0; i < kCountedRounds; ++i) round();
  const std::uint64_t allocs = g_news - before;

  EXPECT_EQ(wrong, 0);
  EXPECT_EQ(allocs, 0u) << static_cast<double>(allocs) / kCountedRounds
                        << " allocations per round";
  EXPECT_EQ(kern.state(), kernel::SystemState::kRunning);
}

}  // namespace
