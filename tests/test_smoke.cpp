// End-to-end smoke tests: boot the multiserver OS, run programs, exercise
// the core syscall surface, and verify a clean completion.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "os/instance.hpp"
#include "os/mono.hpp"
#include "servers/protocol.hpp"
#include "servers/vm.hpp"

using namespace osiris;
using os::ISys;
using os::OsInstance;

namespace {

OsInstance::Outcome run_os(ISys::ProcBody body, os::OsConfig cfg = {}) {
  OsInstance inst(cfg);
  inst.boot();
  return inst.run(std::move(body));
}

}  // namespace

TEST(Smoke, BootAndTrivialInit) {
  auto outcome = run_os([](ISys& sys) {
    EXPECT_EQ(sys.getpid(), 1);
    EXPECT_EQ(sys.getppid(), 0);
  });
  EXPECT_EQ(outcome, OsInstance::Outcome::kCompleted);
}

TEST(Smoke, FileRoundTrip) {
  auto outcome = run_os([](ISys& sys) {
    const std::int64_t fd = sys.open("/tmp/hello", servers::O_CREAT | servers::O_RDWR);
    ASSERT_GE(fd, 0);
    EXPECT_EQ(sys.write_str(fd, "hello osiris"), 12);
    EXPECT_EQ(sys.lseek(fd, 0, 0), 0);
    char buf[32] = {};
    EXPECT_EQ(sys.read(fd, std::as_writable_bytes(std::span<char>(buf, sizeof buf))), 12);
    EXPECT_STREQ(buf, "hello osiris");
    EXPECT_EQ(sys.close(fd), kernel::OK);
    EXPECT_EQ(sys.unlink("/tmp/hello"), kernel::OK);
    EXPECT_EQ(sys.access("/tmp/hello"), kernel::E_NOENT);
  });
  EXPECT_EQ(outcome, OsInstance::Outcome::kCompleted);
}

TEST(Smoke, ForkWaitExit) {
  auto outcome = run_os([](ISys& sys) {
    const std::int64_t pid = sys.fork([](ISys& child) { child.exit(42); });
    ASSERT_GT(pid, 1);
    std::int64_t status = -1;
    EXPECT_EQ(sys.wait_pid(0, &status), pid);
    EXPECT_EQ(status, 42);
  });
  EXPECT_EQ(outcome, OsInstance::Outcome::kCompleted);
}

TEST(Smoke, PipeParentChild) {
  auto outcome = run_os([](ISys& sys) {
    std::int64_t fds[2];
    ASSERT_EQ(sys.pipe(fds), kernel::OK);
    const std::int64_t pid = sys.fork([&](ISys& child) {
      char buf[16] = {};
      const std::int64_t n =
          child.read(fds[0], std::as_writable_bytes(std::span<char>(buf, 5)));
      child.exit(n == 5 && std::string_view(buf, 5) == "ping!" ? 0 : 1);
    });
    ASSERT_GT(pid, 1);
    EXPECT_EQ(sys.write_str(fds[1], "ping!"), 5);
    std::int64_t status = -1;
    EXPECT_EQ(sys.wait_pid(pid, &status), pid);
    EXPECT_EQ(status, 0);
  });
  EXPECT_EQ(outcome, OsInstance::Outcome::kCompleted);
}

TEST(Smoke, KilledPipeReaderLeavesNoWaiterBehind) {
  // A child blocked reading a pipe is killed and reaped. Its waiter must go
  // with it: the next byte written belongs to the parent's own read, not to
  // the dead reader, which would leave the parent's read blocked forever.
  auto outcome = run_os([](ISys& sys) {
    std::int64_t fds[2];
    ASSERT_EQ(sys.pipe(fds), kernel::OK);
    const std::int64_t pid = sys.fork([&](ISys& child) {
      char b = 0;
      child.read(fds[0], std::as_writable_bytes(std::span<char>(&b, 1)));
      child.exit(1);  // not reached: killed while blocked in the read
    });
    ASSERT_GT(pid, 1);
    // Processes run round-robin, one turn per syscall: these give the child
    // its turns to reach the read and block in VFS.
    for (int i = 0; i < 3; ++i) sys.getpid();
    EXPECT_EQ(sys.kill(pid, servers::kSigKill), kernel::OK);
    std::int64_t status = 0;
    EXPECT_EQ(sys.wait_pid(pid, &status), pid);
    EXPECT_EQ(status, -9);
    EXPECT_EQ(sys.write_str(fds[1], "x"), 1);
    char got = 0;
    EXPECT_EQ(sys.read(fds[0], std::as_writable_bytes(std::span<char>(&got, 1))), 1);
    EXPECT_EQ(got, 'x');
  });
  EXPECT_EQ(outcome, OsInstance::Outcome::kCompleted);
}

TEST(Smoke, ExecRunsRegisteredProgram) {
  os::OsConfig cfg;
  OsInstance inst(cfg);
  inst.programs().add("hello", [](ISys& sys) -> std::int64_t {
    return sys.getpid() > 0 ? 7 : 1;
  });
  inst.boot();
  auto outcome = inst.run([](ISys& sys) {
    const std::int64_t pid = sys.fork([](ISys& child) {
      child.exec("/bin/hello");  // never returns on success
      child.exit(99);
    });
    ASSERT_GT(pid, 1);
    std::int64_t status = -1;
    EXPECT_EQ(sys.wait_pid(pid, &status), pid);
    EXPECT_EQ(status, 7);
    EXPECT_EQ(sys.exec("/bin/no-such-program"), kernel::E_NOENT);
  });
  EXPECT_EQ(outcome, OsInstance::Outcome::kCompleted);
}

TEST(Smoke, SignalsAndKill) {
  auto outcome = run_os([](ISys& sys) {
    const std::int64_t pid = sys.fork([](ISys& child) {
      // Loop forever; the parent will kSigKill us.
      for (;;) child.getpid();
    });
    ASSERT_GT(pid, 1);
    EXPECT_EQ(sys.kill(pid, servers::kSigKill), kernel::OK);
    std::int64_t status = -1;
    EXPECT_EQ(sys.wait_pid(pid, &status), pid);
    EXPECT_EQ(status, -9);
    EXPECT_EQ(sys.kill(12345, servers::kSigTerm), kernel::E_SRCH);
  });
  EXPECT_EQ(outcome, OsInstance::Outcome::kCompleted);
}

TEST(Smoke, DataStore) {
  auto outcome = run_os([](ISys& sys) {
    EXPECT_EQ(sys.ds_publish("answer", 42), kernel::OK);
    std::uint64_t v = 0;
    EXPECT_EQ(sys.ds_retrieve("answer", &v), kernel::OK);
    EXPECT_EQ(v, 42u);
    EXPECT_EQ(sys.ds_retrieve("nope", &v), kernel::E_NOENT);
    EXPECT_EQ(sys.ds_delete("answer"), kernel::OK);
    EXPECT_EQ(sys.ds_retrieve("answer", &v), kernel::E_NOENT);
  });
  EXPECT_EQ(outcome, OsInstance::Outcome::kCompleted);
}

TEST(Smoke, ReadMostlyCalls) {
  auto outcome = run_os([](ISys& sys) {
    std::uint64_t free_pages = 0, total = 0;
    EXPECT_EQ(sys.getmeminfo(&free_pages, &total), kernel::OK);
    EXPECT_GT(total, 0u);
    std::uint64_t ticks = 0;
    EXPECT_EQ(sys.times(&ticks), kernel::OK);
    std::string name;
    EXPECT_EQ(sys.uname(&name), kernel::OK);
    EXPECT_EQ(name, "osiris");
    EXPECT_GE(sys.brk(0x20000), 0);
  });
  EXPECT_EQ(outcome, OsInstance::Outcome::kCompleted);
}

TEST(Smoke, ExhaustedFramePoolIsReleasedOnExit) {
  // The child claims every free frame, the top of the pool included, so the
  // release on exit must reach the highest frame ever claimed.
  OsInstance inst(os::OsConfig{});
  inst.boot();
  const auto outcome = inst.run([&inst](ISys& sys) {
    const std::uint32_t before = inst.vm().free_frames();
    const std::int64_t pid = sys.fork([&inst](ISys& child) {
      const std::uint64_t free = inst.vm().free_frames();
      ASSERT_GT(free, 0u);
      EXPECT_GT(child.mmap(free * servers::kPageSize), 0);
      EXPECT_EQ(inst.vm().free_frames(), 0u);
      EXPECT_EQ(child.mmap(servers::kPageSize), kernel::E_NOMEM);
      child.exit(0);
    });
    ASSERT_GT(pid, 1);
    std::int64_t status = -1;
    EXPECT_EQ(sys.wait_pid(pid, &status), pid);
    EXPECT_EQ(status, 0);
    EXPECT_EQ(inst.vm().free_frames(), before);
  });
  EXPECT_EQ(outcome, OsInstance::Outcome::kCompleted);
}

TEST(Smoke, MonoOsRunsSamePrograms) {
  os::MonoOs mono;
  mono.boot();
  const std::int64_t status = mono.run([](ISys& sys) {
    const std::int64_t fd = sys.open("/tmp/m", servers::O_CREAT | servers::O_RDWR);
    if (fd < 0) sys.exit(1);
    if (sys.write_str(fd, "abc") != 3) sys.exit(2);
    const std::int64_t pid = sys.fork([](ISys& c) { c.exit(5); });
    std::int64_t st = -1;
    if (sys.wait_pid(pid, &st) != pid || st != 5) sys.exit(3);
    std::int64_t fds[2];
    if (sys.pipe(fds) != kernel::OK) sys.exit(4);
    if (sys.write_str(fds[1], "x") != 1) sys.exit(5);
    char b;
    if (sys.read(fds[0], std::as_writable_bytes(std::span<char>(&b, 1))) != 1) sys.exit(6);
    sys.exit(0);
  });
  EXPECT_EQ(status, 0);
}

TEST(ProcLifecycle, ExitedProcessIsDestroyedAtOnce) {
  // A process is destroyed, fiber stack and all, as soon as it finishes: over
  // a thousand fork+exit+wait rounds the instance never holds more than init
  // and one child.
  OsInstance inst;
  inst.boot();
  std::size_t most = 0;
  const auto outcome = inst.run([&](ISys& sys) {
    for (int round = 0; round < 1000; ++round) {
      const std::int64_t pid = sys.fork([](ISys& child) { child.exit(0); });
      most = std::max(most, inst.user_procs());
      std::int64_t status = -1;
      if (sys.wait_pid(pid, &status) != pid || status != 0) sys.exit(1);
      most = std::max(most, inst.user_procs());
    }
  });
  EXPECT_EQ(outcome, OsInstance::Outcome::kCompleted);
  EXPECT_EQ(most, 2u);
}

TEST(ProcLifecycle, RefusedForkLeavesNoProcessBehind) {
  // Live children fill PM's process table, so the next fork is refused. Its
  // child never existed: it must leave neither a process nor a kernel client
  // behind. Once the children have exited, fork works again.
  OsInstance inst;
  inst.boot();
  const auto outcome = inst.run([&](ISys& sys) {
    std::vector<std::int64_t> children;
    std::int64_t refused = 0;
    for (std::size_t i = 0; i < servers::kMaxProcs && refused == 0; ++i) {
      const std::int64_t pid = sys.fork([](ISys& child) {
        while (child.ds_retrieve("release", nullptr) != kernel::OK) {
        }
        child.exit(0);
      });
      if (pid > 0) children.push_back(pid);
      else refused = pid;
    }
    EXPECT_EQ(refused, kernel::E_AGAIN);
    EXPECT_EQ(children.size(), servers::kMaxProcs - 1);  // init holds the last slot
    EXPECT_EQ(inst.user_procs(), 1 + children.size());
    EXPECT_EQ(inst.kern().client_count(), 1 + children.size());

    EXPECT_EQ(sys.ds_publish("release", 1), kernel::OK);
    for (const std::int64_t pid : children) {
      std::int64_t status = -1;
      EXPECT_EQ(sys.wait_pid(pid, &status), pid);
      EXPECT_EQ(status, 0);
    }
    const std::int64_t pid = sys.fork([](ISys& child) { child.exit(7); });
    ASSERT_GT(pid, 1);
    std::int64_t status = -1;
    EXPECT_EQ(sys.wait_pid(pid, &status), pid);
    EXPECT_EQ(status, 7);
    EXPECT_EQ(inst.user_procs(), 1u);
    EXPECT_EQ(inst.kern().client_count(), 1u);
  });
  EXPECT_EQ(outcome, OsInstance::Outcome::kCompleted);
  EXPECT_EQ(inst.kern().stats().fever_onsets, 0u);
}

TEST(ProcLifecycle, KilledReaderKeepsItsStackForThePendingDiskRead) {
  // A child blocks in a file read whose block misses the cache and is
  // SIGKILLed while the VFS worker waits on the disk. When the disk
  // completes, the worker still writes the block through its grant span into
  // the child's stack, so a killed process is kept until the instance goes.
  os::OsConfig cfg;
  cfg.cache_blocks = 8;
  OsInstance inst(cfg);
  inst.boot();
  const auto outcome = inst.run([&](ISys& sys) {
    const std::int64_t fd = sys.open("/tmp/big", servers::O_CREAT | servers::O_RDWR);
    ASSERT_GE(fd, 0);
    const std::string chunk(512, 'z');
    for (int i = 0; i < 64; ++i) ASSERT_EQ(sys.write_str(fd, chunk), 512);  // 8x the cache
    ASSERT_EQ(sys.fsync(), kernel::OK);
    ASSERT_EQ(sys.lseek(fd, 0, 0), 0);
    const std::int64_t pid = sys.fork([fd](ISys& child) {
      char buf[512];
      child.read(fd, std::as_writable_bytes(std::span<char>(buf, sizeof buf)));
      child.exit(0);  // not reached: killed while the read waits on the disk
    });
    ASSERT_GT(pid, 1);
    for (int i = 0; i < 4; ++i) sys.getpid();  // turns for the child to block in the read
    EXPECT_EQ(sys.kill(pid, servers::kSigKill), kernel::OK);
    std::int64_t status = 0;
    EXPECT_EQ(sys.wait_pid(pid, &status), pid);
    EXPECT_EQ(status, -9);
    EXPECT_EQ(inst.user_procs(), 2u);  // init and the killed child
    // A cold read of init's own lets virtual time run, so the child's disk
    // read completes too.
    char far[512] = {};
    EXPECT_EQ(sys.lseek(fd, 32 * 512, 0), 32 * 512);
    EXPECT_EQ(sys.read(fd, std::as_writable_bytes(std::span<char>(far, sizeof far))), 512);
    EXPECT_EQ(far[0], 'z');
  });
  EXPECT_EQ(outcome, OsInstance::Outcome::kCompleted);
}
