// Property-based tests (parameterized over seeds):
//
//  1. Differential equivalence — a seeded random syscall scenario produces
//     the *same observable trace* on the OSIRIS multiserver system and on
//     the monolithic baseline. This pins the semantics of every syscall the
//     unixbench comparison (Table IV) relies on; a second seeded scenario
//     reaches every other ISys call.
//
//  2. Recovery transparency — for a seeded choice of fault site, if an
//     enhanced-policy run completes after an in-window recovery, the
//     machine's resource accounting is intact: no leaked VM frames, no
//     leaked process slots, no leaked open files.
//
//  3. Rollback soundness — random mutation sequences against an
//     instrumented state struct always roll back to the checkpoint image.
#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <string>
#include <utility>

#include "ckpt/cell.hpp"
#include "fi/registry.hpp"
#include "os/instance.hpp"
#include "os/mono.hpp"
#include "support/rng.hpp"
#include "workload/suite.hpp"

using namespace osiris;
using os::ISys;

namespace {

/// A deterministic random scenario: a mix of fs, pipe, process, ds and vm
/// syscalls driven by a seed; every observable result is appended to a trace.
void random_scenario(ISys& sys, std::uint64_t seed, std::string* trace) {
  Rng rng(seed);
  auto note = [trace](const std::string& s) { *trace += s + ";"; };

  std::vector<std::int64_t> fds;
  std::vector<std::int64_t> regions;
  for (int step = 0; step < 60; ++step) {
    switch (rng.below(10)) {
      case 0: {  // open/create
        const std::string path = "/tmp/p" + std::to_string(rng.below(4));
        const std::int64_t fd = sys.open(path, servers::O_CREAT | servers::O_RDWR);
        note("open=" + std::to_string(fd >= 0 ? 0 : fd));
        if (fd >= 0) fds.push_back(fd);
        break;
      }
      case 1: {  // write
        if (fds.empty()) break;
        const std::string data(1 + rng.below(64), 'w');
        const std::int64_t n = sys.write_str(fds[rng.below(fds.size())], data);
        note("write=" + std::to_string(n));
        break;
      }
      case 2: {  // read
        if (fds.empty()) break;
        char buf[64];
        const std::int64_t fd = fds[rng.below(fds.size())];
        sys.lseek(fd, 0, 0);
        const std::int64_t n =
            sys.read(fd, std::as_writable_bytes(std::span<char>(buf, sizeof buf)));
        note("read=" + std::to_string(n));
        break;
      }
      case 3: {  // close
        if (fds.empty()) break;
        const std::size_t i = rng.below(fds.size());
        note("close=" + std::to_string(sys.close(fds[i])));
        fds.erase(fds.begin() + static_cast<std::ptrdiff_t>(i));
        break;
      }
      case 4: {  // fork/exit/wait
        const std::int64_t code = static_cast<std::int64_t>(rng.below(100));
        const std::int64_t pid = sys.fork([code](ISys& c) { c.exit(code); });
        std::int64_t status = -1;
        const std::int64_t got = sys.wait_pid(pid > 0 ? pid : 0, &status);
        note("spawn=" + std::to_string(pid > 0 && got == pid ? status : -1));
        break;
      }
      case 5: {  // ds round trip
        const std::string key = "k" + std::to_string(rng.below(8));
        const std::uint64_t v = rng.next() % 1000;
        sys.ds_publish(key, v);
        std::uint64_t back = 0;
        sys.ds_retrieve(key, &back);
        note("ds=" + std::to_string(back == v));
        break;
      }
      case 6: {  // stat
        os::StatResult st{};
        const std::int64_t r = sys.stat("/tmp/p0", &st);
        note("stat=" + std::to_string(r == kernel::OK ? static_cast<std::int64_t>(st.size) : r));
        break;
      }
      case 7: {  // pipe ping
        std::int64_t p[2];
        if (sys.pipe(p) != kernel::OK) break;
        sys.write_str(p[1], "x");
        char b = 0;
        sys.read(p[0], std::as_writable_bytes(std::span<char>(&b, 1)));
        sys.close(p[0]);
        sys.close(p[1]);
        note(std::string("pipe=") + b);
        break;
      }
      case 8: {  // unlink
        const std::string path = "/tmp/p" + std::to_string(rng.below(4));
        note("unlink=" + std::to_string(sys.unlink(path)));
        break;
      }
      case 9: {  // getpid/uid sanity
        note("pid=" + std::to_string(sys.getpid() > 0));
        break;
      }
    }
  }
  for (std::int64_t fd : fds) sys.close(fd);
}

/// Fill the fd table, free one slot, then ask for a pipe, which needs two:
/// the failed pipe must give back the slot its read end took, so the open
/// after it gets that slot.
void pipe_at_fd_limit(ISys& sys, std::string* trace) {
  std::vector<std::int64_t> fds;
  std::int64_t fd = 0;
  for (int i = 0; i < 1024 && fd >= 0; ++i) {
    fd = sys.open("/tmp/fdlimit", servers::O_CREAT | servers::O_RDWR);
    if (fd >= 0) fds.push_back(fd);
  }
  *trace += "full=" + std::to_string(fd) + ";";
  if (fds.empty()) return;
  sys.close(fds.back());
  fds.pop_back();
  std::int64_t p[2];
  *trace += "pipe=" + std::to_string(sys.pipe(p)) + ";";
  fd = sys.open("/tmp/fdlimit", servers::O_RDWR);
  *trace += "open=" + std::to_string(fd) + ";";
  if (fd >= 0) fds.push_back(fd);
  for (const std::int64_t f : fds) sys.close(f);
}

/// A seeded scenario that reaches every ISys call random_scenario leaves
/// out. Each round runs all steps in a seeded order with seeded arguments.
/// Where the two systems promise the same semantics the trace records the
/// result; for uptime, system name, RS restart counts, memory totals,
/// region ids and DS events, which the monolithic baseline only models,
/// it records whether the call succeeded.
void every_call_scenario(ISys& sys, std::uint64_t seed, std::string* trace) {
  Rng rng(seed);
  auto note = [trace](const std::string& what, std::int64_t v) {
    *trace += what + "=" + std::to_string(v) + ";";
  };
  auto status = [&note](const std::string& what, std::int64_t r) { note(what, r < 0 ? r : 0); };
  const std::int64_t me = sys.getpid();
  const std::uint64_t sigs[] = {0, servers::kSigUsr1, servers::kSigUsr2, servers::kSigKill, 64};
  const std::function<void()> steps[] = {
      [&] {  // processes: a child's parent, then its state once reaped
        const std::int64_t pid = sys.fork([me](ISys& c) { c.exit(c.getppid() == me ? 7 : 8); });
        std::int64_t st = -1;
        note("child", sys.wait_pid(pid, &st) == pid ? st : -1);
        note("procstat.self", sys.procstat(me));
        note("procstat.reaped", sys.procstat(pid));
        note("procstat.none", sys.procstat(900 + static_cast<std::int64_t>(rng.below(50))));
      },
      [&] {  // signals: dispositions, a self-signal and the pending mask
        const std::uint64_t sig = sigs[rng.below(std::size(sigs))];
        note("sigaction", sys.sigaction(sig, rng.chance(1, 2)));
        note("kill.self", sys.kill(me, sig == servers::kSigKill ? 0 : sig));
        note("kill.none", sys.kill(900 + static_cast<std::int64_t>(rng.below(50)), sig));
        std::uint64_t mask = 0;
        note("sigpending", sys.sigpending(&mask));
        note("mask", static_cast<std::int64_t>(mask));
      },
      [&] {  // a child that would block forever on a pipe, killed by its parent
        std::int64_t p[2];
        if (sys.pipe(p) != kernel::OK) return;
        const std::int64_t pid = sys.fork([p](ISys& c) {
          char b = 0;
          c.read(p[0], std::as_writable_bytes(std::span<char>(&b, 1)));
          c.exit(1);
        });
        sys.close(p[0]);
        note("kill.child", sys.kill(pid, servers::kSigKill));
        std::int64_t st = 0;
        note("killed", sys.wait_pid(pid, &st) == pid ? st : -1);
        sys.close(p[1]);
      },
      [&] {  // identity
        const auto uid = static_cast<std::uint64_t>(rng.below(3));
        note("setuid", sys.setuid(uid));
        note("getuid", sys.getuid());
      },
      [&] {  // memory
        const std::uint64_t addrs[] = {0x100, 0x10000, 0x20000 + 0x1000 * rng.below(8)};
        note("brk", sys.brk(addrs[rng.below(std::size(addrs))]));
        const std::int64_t region = sys.mmap(4096 * (1 + rng.below(4)));
        status("mmap", region);
        status("mmap.empty", sys.mmap(0));
        if (region >= 0) note("munmap", sys.munmap(region));
        std::uint64_t free_pages = 0;
        std::uint64_t total_pages = 0;
        status("meminfo", sys.getmeminfo(&free_pages, &total_pages));
      },
      [&] {  // fstat of a file, a pipe end and a bad fd; dup
        const std::int64_t fd = sys.open("/tmp/f", servers::O_CREAT | servers::O_RDWR);
        note("open", fd);
        if (fd < 0) return;
        sys.write_str(fd, "abc");
        os::StatResult st{};
        note("fstat", sys.fstat(fd, &st));
        note("fstat.size", static_cast<std::int64_t>(st.size));
        note("fstat.type", static_cast<std::int64_t>(st.type));
        note("fstat.nlinks", static_cast<std::int64_t>(st.nlinks));
        const std::int64_t copy = sys.dup(fd);
        note("dup", copy);
        note("lseek.dup", sys.lseek(copy, 0, 1));
        std::int64_t p[2];
        if (sys.pipe(p) == kernel::OK) {
          st = os::StatResult{1, 1, 1};
          note("fstat.pipe", sys.fstat(p[0], &st));
          note("fstat.pipe.nlinks", static_cast<std::int64_t>(st.nlinks));
          sys.close(p[0]);
          sys.close(p[1]);
        }
        sys.close(copy);
        sys.close(fd);
        note("fstat.closed", sys.fstat(fd, &st));
      },
      [&] {  // names: rename, truncate, access, readdir
        const std::string leaf = "r" + std::to_string(rng.below(3));
        const std::int64_t fd = sys.open("/tmp/" + leaf, servers::O_CREAT | servers::O_RDWR);
        if (fd >= 0) {
          sys.write_str(fd, "0123456789");
          sys.close(fd);
        }
        const std::string to = "n" + std::to_string(rng.below(3));
        note("rename", sys.rename("/tmp/" + leaf, to));
        note("rename.missing", sys.rename("/tmp/missing", to));
        const auto size = static_cast<std::uint64_t>(rng.below(12));
        note("truncate", sys.truncate("/tmp/" + to, size));
        os::StatResult st{};
        note("stat", sys.stat("/tmp/" + to, &st));
        note("stat.size", static_cast<std::int64_t>(st.size));
        note("access", sys.access("/tmp/" + to));
        note("access.missing", sys.access("/tmp/" + leaf + "x"));
        note("fsync", sys.fsync());
        std::string name;
        for (std::uint64_t i = 0;; ++i) {
          const std::int64_t r = sys.readdir("/tmp", i, &name);
          if (r < 0) {
            note("readdir.end", r);
            break;
          }
          *trace += "readdir=" + name + ";";
        }
      },
      [&] {  // data store
        const std::string key = "d" + std::to_string(rng.below(3));
        status("ds.subscribe", sys.ds_subscribe(key));
        sys.ds_publish(key, rng.below(100));
        std::uint64_t events = 0;
        status("ds.check", sys.ds_check(&events));
        note("ds.delete", sys.ds_delete(key));
        note("ds.delete.again", sys.ds_delete(key));
      },
      [&] {  // misc
        std::uint64_t ticks = 0;
        status("times", sys.times(&ticks));
        std::string name;
        status("uname", sys.uname(&name));
        status("rs_status", sys.rs_status(kernel::kVfsEp.value));
      },
  };
  std::size_t order[std::size(steps)];
  for (std::size_t i = 0; i < std::size(steps); ++i) order[i] = i;
  for (int round = 0; round < 3; ++round) {
    for (std::size_t i = std::size(steps) - 1; i > 0; --i) {
      std::swap(order[i], order[rng.below(i + 1)]);
    }
    for (const std::size_t i : order) steps[i]();
  }
}

/// The observable traces `scenario` leaves on the multiserver system and
/// on the monolithic baseline, in that order.
std::pair<std::string, std::string> both_traces(
    const std::function<void(ISys&, std::string*)>& scenario) {
  std::string micro_trace;
  {
    os::OsConfig cfg;
    os::OsInstance inst(cfg);
    workload::register_suite_programs(inst.programs());
    inst.boot();
    const auto outcome = inst.run([&](ISys& sys) { scenario(sys, &micro_trace); });
    EXPECT_EQ(outcome, os::OsInstance::Outcome::kCompleted);
  }

  std::string mono_trace;
  {
    os::MonoOs mono;
    workload::register_suite_programs(mono.programs());
    mono.boot();
    mono.run([&](ISys& sys) {
      scenario(sys, &mono_trace);
      sys.exit(0);
    });
  }
  return {micro_trace, mono_trace};
}

class DifferentialP : public ::testing::TestWithParam<std::uint64_t> {};

}  // namespace

TEST_P(DifferentialP, MicrokernelAndMonoProduceSameTrace) {
  const std::uint64_t seed = GetParam();
  const auto [micro_trace, mono_trace] =
      both_traces([seed](ISys& sys, std::string* trace) { random_scenario(sys, seed, trace); });
  EXPECT_EQ(micro_trace, mono_trace) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialP,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233));

namespace {
class DifferentialCallsP : public ::testing::TestWithParam<std::uint64_t> {};
}  // namespace

TEST_P(DifferentialCallsP, EveryOtherCallAgreesOnBothSystems) {
  const std::uint64_t seed = GetParam();
  const auto [micro_trace, mono_trace] = both_traces(
      [seed](ISys& sys, std::string* trace) { every_call_scenario(sys, seed, trace); });
  EXPECT_EQ(micro_trace, mono_trace) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialCallsP, ::testing::Values(1, 2, 3));

TEST(Differential, PipeAtTheFdLimitReleasesWhatItTook) {
  const auto [micro_trace, mono_trace] = both_traces(pipe_at_fd_limit);
  EXPECT_NE(micro_trace.find("pipe=" + std::to_string(kernel::E_MFILE) + ";open="),
            std::string::npos)
      << micro_trace;
  EXPECT_EQ(micro_trace.find("open=-"), std::string::npos) << micro_trace;
  EXPECT_EQ(micro_trace, mono_trace);
}

// --- recovery transparency -----------------------------------------------

namespace {
class RecoveryTransparencyP : public ::testing::TestWithParam<std::uint64_t> {};
}  // namespace

TEST_P(RecoveryTransparencyP, CompletedRunsLeaveAccountingIntact) {
  const std::uint64_t seed = GetParam();

  // Profile once to learn the triggered sites of this scenario.
  std::uint64_t baseline_free = 0;
  std::size_t baseline_procs = 0;
  {
    os::OsConfig cfg;
    os::OsInstance inst(cfg);
    workload::register_suite_programs(inst.programs());
    inst.boot();
    std::string trace;
    inst.run([&](ISys& sys) {
      random_scenario(sys, seed, &trace);
      sys.getmeminfo(&baseline_free, nullptr);
    });
    baseline_procs = inst.pm().proc_count();
  }
  std::vector<fi::Site*> candidates;
  for (fi::Site* s : fi::Registry::instance().sites()) {
    if (s->hits() > 0) candidates.push_back(s);
  }
  ASSERT_FALSE(candidates.empty());

  // Inject a fail-stop fault at a seeded site/hit and rerun.
  Rng rng(seed * 7919);
  fi::Site* site = candidates[rng.below(candidates.size())];
  const std::uint64_t trigger = rng.range(1, site->hits());

  os::OsConfig cfg;
  cfg.policy = seep::Policy::kEnhanced;
  os::OsInstance inst(cfg);
  workload::register_suite_programs(inst.programs());
  inst.boot();
  fi::Registry::instance().arm(site, fi::FaultType::kNullDeref, trigger);
  std::string trace;
  std::uint64_t free_after = 0;
  const auto outcome = inst.run([&](ISys& sys) {
    random_scenario(sys, seed, &trace);
    sys.getmeminfo(&free_after, nullptr);
  });

  if (outcome != os::OsInstance::Outcome::kCompleted) {
    // Shutdown is a legitimate consistent outcome; nothing more to check.
    EXPECT_EQ(outcome, os::OsInstance::Outcome::kShutdown) << "site " << site->tag << ":"
                                                           << site->line;
    return;
  }
  // The run completed (recovery was transparent or error-virtualized):
  // resource accounting must be exactly as in the fault-free run.
  if (free_after != 0) {  // 0 = the meminfo call itself was the failed op
    EXPECT_EQ(free_after, baseline_free)
        << "VM frames leaked after recovery at " << site->tag << ":" << site->line;
  }
  // PM's process table ends as the fault-free run's did: no process, live
  // or zombie, outlived the recovery.
  EXPECT_EQ(inst.pm().proc_count(), baseline_procs)
      << "processes leaked after recovery at " << site->tag << ":" << site->line;
}

INSTANTIATE_TEST_SUITE_P(Seeds, RecoveryTransparencyP,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88));

// --- rollback soundness -----------------------------------------------------

namespace {

struct PropState {
  ckpt::Cell<std::uint64_t> scalars[4];
  ckpt::Array<std::uint32_t, 32> words;
  ckpt::Table<std::uint64_t, 8> slots;
  ckpt::Str<24> label;
};

class RollbackP : public ::testing::TestWithParam<std::uint64_t> {};

}  // namespace

TEST_P(RollbackP, RandomMutationsAlwaysRollBack) {
  Rng rng(GetParam());
  ckpt::Context ctx(ckpt::Mode::kAlways);
  ckpt::Context::Scope scope(&ctx);
  PropState state{};

  // Build an arbitrary committed state first.
  for (int i = 0; i < 20; ++i) {
    state.scalars[rng.below(4)] = rng.next();
    state.words.set(rng.below(32), static_cast<std::uint32_t>(rng.next()));
    if (rng.chance(1, 2)) state.slots.alloc();
  }
  ctx.log().checkpoint();  // top of the loop

  PropState snapshot{};
  std::memcpy(&snapshot, &state, sizeof state);

  // Random mutation storm (the "request processing" that will crash).
  for (int i = 0; i < 50; ++i) {
    switch (rng.below(5)) {
      case 0: state.scalars[rng.below(4)] += rng.below(100); break;
      case 1: state.words.set(rng.below(32), static_cast<std::uint32_t>(rng.next())); break;
      case 2: {
        const std::size_t s = state.slots.alloc();
        if (s != decltype(state.slots)::npos) state.slots.mutate(s) = rng.next();
        break;
      }
      case 3: {
        const std::size_t s =
            state.slots.find([](const std::uint64_t&) { return true; });
        if (s != decltype(state.slots)::npos) state.slots.free(s);
        break;
      }
      case 4: state.label = std::to_string(rng.next()); break;
    }
  }

  ctx.log().rollback();
  EXPECT_EQ(std::memcmp(&snapshot, &state, sizeof state), 0)
      << "rollback failed to restore the checkpoint image";
}

INSTANTIATE_TEST_SUITE_P(Seeds, RollbackP,
                         ::testing::Range<std::uint64_t>(1000, 1030));
