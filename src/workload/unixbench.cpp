#include "workload/unixbench.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "os/instance.hpp"
#include "os/mono.hpp"
#include "servers/protocol.hpp"
#include "support/common.hpp"
#include "workload/campaign.hpp"
#include "workload/suite.hpp"

namespace osiris::workload {

using os::ISys;
using namespace osiris::servers;

namespace {

// Optimization sink for the compute workloads. Thread-local so concurrent
// campaign workers running unixbench programs never share a counter.
thread_local volatile std::uint64_t g_sink;

// Completed-work counter (see Fig3Cell::completed), same per-worker scoping.
thread_local std::uint64_t g_completed = 0;

void ub_dhry2reg(ISys&, std::uint64_t iters) {
  // Register-heavy integer work: string-ish byte shuffling and arithmetic,
  // no syscalls (like Dhrystone).
  std::uint64_t acc = 0x243F6A8885A308D3ULL;
  char buf[64];
  for (std::uint64_t i = 0; i < iters; ++i) {
    for (int j = 0; j < 64; ++j) buf[j] = static_cast<char>((acc >> (j % 56)) & 0xff);
    std::uint64_t h = 1469598103934665603ULL;
    for (int j = 0; j < 64; ++j) h = (h ^ static_cast<std::uint8_t>(buf[j])) * 1099511628211ULL;
    acc = acc * 6364136223846793005ULL + h;
  }
  g_sink = acc;
  g_completed += iters;
}

void ub_whetstone(ISys&, std::uint64_t iters) {
  // Floating-point kernel (like Whetstone).
  double x = 1.0, y = 1.0, z = 1.0;
  for (std::uint64_t i = 0; i < iters; ++i) {
    x = (x + y + z) * 0.499975;
    y = (x + y - z) * 0.499975;
    z = std::sqrt(x * x + y * y + 1e-9);
    x = std::sin(z) * std::cos(y) + 1.0;
  }
  g_sink = static_cast<std::uint64_t>(x * 1e6);
  g_completed += iters;
}

void ub_execl(ISys& sys, std::uint64_t iters) {
  for (std::uint64_t i = 0; i < iters; ++i) {
    // An iteration is one *successful* exec round trip: failed forks (e.g.
    // E_CRASH while PM recovers) are retried, so injected faults cost time
    // instead of silently shrinking the work (Figure 3 semantics: the
    // benchmark completes without functional service degradation).
    for (int attempt = 0; attempt < 64; ++attempt) {
      const std::int64_t pid = sys.fork([](ISys& c) {
        c.exec("/bin/true");
        c.exit(99);
      });
      if (pid <= 0) continue;
      std::int64_t s = -1;
      sys.wait_pid(pid, &s);
      ++g_completed;
      break;
    }
  }
}

void ub_fs_generic(ISys& sys, std::uint64_t iters, std::size_t bufsize, std::size_t nbufs,
                   const char* path) {
  std::vector<std::byte> buf(bufsize, std::byte{'u'});
  const std::int64_t fd = sys.open(path, O_CREAT | O_RDWR | O_TRUNC);
  if (fd < 0) return;
  for (std::uint64_t i = 0; i < iters; ++i) {
    sys.lseek(fd, 0, 0);
    for (std::size_t b = 0; b < nbufs; ++b) sys.write(fd, buf);
    sys.lseek(fd, 0, 0);
    for (std::size_t b = 0; b < nbufs; ++b) sys.read(fd, buf);
    ++g_completed;
  }
  sys.close(fd);
  sys.unlink(path);
}

void ub_fstime(ISys& sys, std::uint64_t iters) {
  ub_fs_generic(sys, iters, 1024, 8, "/tmp/ub_fstime");
}

void ub_fsbuffer(ISys& sys, std::uint64_t iters) {
  ub_fs_generic(sys, iters, 256, 16, "/tmp/ub_fsbuffer");
}

void ub_fsdisk(ISys& sys, std::uint64_t iters) {
  ub_fs_generic(sys, iters, 4096, 16, "/tmp/ub_fsdisk");
}

void ub_pipe(ISys& sys, std::uint64_t iters) {
  std::int64_t fds[2];
  if (sys.pipe(fds) != kernel::OK) return;
  std::vector<std::byte> buf(512, std::byte{'p'});
  for (std::uint64_t i = 0; i < iters; ++i) {
    if (sys.write(fds[1], buf) > 0 && sys.read(fds[0], buf) > 0) ++g_completed;
  }
  sys.close(fds[0]);
  sys.close(fds[1]);
}

void ub_context1(ISys& sys, std::uint64_t iters) {
  std::int64_t up[2], down[2];
  if (sys.pipe(up) != kernel::OK || sys.pipe(down) != kernel::OK) return;
  std::int64_t pid = -1;
  for (int attempt = 0; attempt < 64 && pid <= 0; ++attempt)
    pid = sys.fork([up, down](ISys& c) {
    // Each side closes the ends it does not use, or EOF never arrives.
    c.close(up[1]);
    c.close(down[0]);
    char b = 0;
    for (;;) {
      if (c.read(up[0], std::as_writable_bytes(std::span<char>(&b, 1))) != 1) c.exit(0);
      if (c.write(down[1], std::as_bytes(std::span<const char>(&b, 1))) != 1) c.exit(1);
    }
  });
  if (pid <= 0) return;
  sys.close(up[0]);
  sys.close(down[1]);
  char b = 'c';
  for (std::uint64_t i = 0; i < iters; ++i) {
    if (sys.write(up[1], std::as_bytes(std::span<const char>(&b, 1))) == 1 &&
        sys.read(down[0], std::as_writable_bytes(std::span<char>(&b, 1))) == 1) {
      ++g_completed;
    }
  }
  sys.close(up[1]);  // EOF stops the child
  std::int64_t s = -1;
  sys.wait_pid(pid, &s);
  sys.close(down[0]);
}

void ub_spawn(ISys& sys, std::uint64_t iters) {
  for (std::uint64_t i = 0; i < iters; ++i) {
    // Retry failed forks: see ub_execl.
    for (int attempt = 0; attempt < 64; ++attempt) {
      const std::int64_t pid = sys.fork([](ISys& c) { c.exit(0); });
      if (pid <= 0) continue;
      std::int64_t s = -1;
      sys.wait_pid(pid, &s);
      ++g_completed;
      break;
    }
  }
}

void ub_syscall(ISys& sys, std::uint64_t iters) {
  for (std::uint64_t i = 0; i < iters; ++i) {
    if (sys.getpid() > 0) ++g_completed;
    if ((i & 7) == 0) sys.getuid();
  }
}

void ub_shell(ISys& sys, std::uint64_t iters, int concurrency) {
  for (std::uint64_t i = 0; i < iters; ++i) {
    std::vector<std::int64_t> pids;
    for (int c = 0; c < concurrency; ++c) {
      // Retry failed forks so every iteration runs `concurrency` scripts.
      for (int attempt = 0; attempt < 64; ++attempt) {
        const std::int64_t pid = sys.fork([](ISys& child) {
          child.exec("/bin/sh_script");
          child.exit(95);
        });
        if (pid > 0) {
          pids.push_back(pid);
          break;
        }
      }
    }
    for (std::size_t c = 0; c < pids.size(); ++c) {
      std::int64_t s = -1;
      if (sys.wait_pid(0, &s) > 0 && s == 0) ++g_completed;
    }
  }
}

void ub_shell1(ISys& sys, std::uint64_t iters) { ub_shell(sys, iters, 1); }
void ub_shell8(ISys& sys, std::uint64_t iters) { ub_shell(sys, iters, 8); }

}  // namespace

const std::vector<UbWorkload>& ub_workloads() {
  static const std::vector<UbWorkload> workloads = {
      {"dhry2reg", 400000, ub_dhry2reg},
      {"whetstone-double", 600000, ub_whetstone},
      {"execl", 600, ub_execl},
      {"fstime", 600, ub_fstime},
      {"fsbuffer", 600, ub_fsbuffer},
      {"fsdisk", 150, ub_fsdisk},
      {"pipe", 12000, ub_pipe},
      {"context1", 6000, ub_context1},
      {"spawn", 800, ub_spawn},
      {"syscall", 50000, ub_syscall},
      {"shell1", 150, ub_shell1},
      {"shell8", 25, ub_shell8},
  };
  return workloads;
}

const UbWorkload& ub_workload(std::string_view name) {
  for (const UbWorkload& w : ub_workloads()) {
    if (w.name == name) return w;
  }
  OSIRIS_PANIC("unknown unixbench workload");
}

void register_ub_programs(os::ProgramRegistry& registry) {
  // The shell workloads reuse the suite's /bin programs (sh_script, true).
  register_suite_programs(registry);
}

fi::Site* pm_entry_site() {
  fi::Site* site = busiest_site("pm", [](ISys& sys) {
    for (int i = 0; i < 50; ++i) sys.getpid();
  });
  OSIRIS_ASSERT(site != nullptr);
  return site;
}

Fig3Cell run_fig3_cell(const UbWorkload& w, fi::Site* site, std::uint64_t interval,
                       double scale) {
  const std::uint64_t iters = std::max<std::uint64_t>(
      static_cast<std::uint64_t>(static_cast<double>(w.default_iters) * scale / 2), 1);
  os::OsConfig cfg;
  cfg.max_recoveries = 1u << 30;  // Figure 3 sustains recovery indefinitely
  os::OsInstance inst(cfg);
  register_ub_programs(inst.programs());
  inst.boot();
  if (interval > 0) fi::Registry::instance().arm_periodic_window_crash(site, interval);
  g_completed = 0;
  Fig3Cell cell;
  cell.outcome = inst.run([&w, iters](ISys& sys) { w.body(sys, iters); });
  cell.completed = g_completed;
  return cell;
}

double run_ub_microkernel(const os::OsConfig& cfg, const UbWorkload& w, std::uint64_t iters) {
  os::OsInstance inst(cfg);
  register_ub_programs(inst.programs());
  inst.boot();
  g_completed = 0;
  const auto body = w.body;
  const auto t0 = std::chrono::steady_clock::now();
  const auto outcome = inst.run([&body, iters](ISys& sys) { body(sys, iters); });
  const auto t1 = std::chrono::steady_clock::now();
  OSIRIS_ASSERT(outcome == os::OsInstance::Outcome::kCompleted);
  return std::chrono::duration<double>(t1 - t0).count();
}

double run_ub_mono(const UbWorkload& w, std::uint64_t iters) {
  os::MonoOs mono;
  register_ub_programs(mono.programs());
  mono.boot();
  g_completed = 0;
  const auto body = w.body;
  const auto t0 = std::chrono::steady_clock::now();
  mono.run([&body, iters](ISys& sys) { body(sys, iters); });
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

}  // namespace osiris::workload
