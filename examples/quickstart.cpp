// Quickstart: boot an OSIRIS machine, run a user program, inject one
// fail-stop fault into the Process Manager, and watch the recovery pipeline
// (restart -> rollback -> reconciliation) keep the system alive.
//
//   $ ./build/examples/quickstart
#include <cstdio>

#include "fi/registry.hpp"
#include "os/instance.hpp"
#include "support/log.hpp"
#include "workload/campaign.hpp"
#include "workload/suite.hpp"

using namespace osiris;

int main() {
  slog::set_threshold(slog::Level::kInfo);  // narrate recoveries

  // Profiling machine: probes register lazily on first execution, so a
  // throwaway run of a few PM requests finds PM's busiest probe (its
  // request-loop entry) before we arm it.
  slog::set_threshold(slog::Level::kWarn);
  fi::Site* pm_site = workload::busiest_site("pm", [](os::ISys& sys) {
    for (int i = 0; i < 5; ++i) sys.getpid();
  });
  OSIRIS_ASSERT(pm_site != nullptr);
  slog::set_threshold(slog::Level::kInfo);

  os::OsConfig cfg;                     // enhanced policy, optimized
  cfg.policy = seep::Policy::kEnhanced;  // instrumentation — the defaults
  os::OsInstance inst(cfg);
  workload::register_suite_programs(inst.programs());
  inst.boot();
  std::printf("== booted: PM, VM, VFS (multithreaded), DS, RS + SYS task ==\n");

  // Arm one fail-stop fault there, on its 20th request of this run.
  fi::Registry::instance().arm(pm_site, fi::FaultType::kNullDeref, 20);

  const auto outcome = inst.run([](os::ISys& sys) {
    std::printf("[init] pid=%lld, uname=", static_cast<long long>(sys.getpid()));
    std::string name;
    sys.uname(&name);
    std::printf("%s\n", name.c_str());

    // Write and read back a file.
    const std::int64_t fd = sys.open("/tmp/quickstart", servers::O_CREAT | servers::O_RDWR);
    sys.write_str(fd, "hello from simulated userland\n");
    sys.close(fd);

    // Fork children in a loop: one of these PM requests will take the
    // injected fault. The error-virtualized E_CRASH reply is handled like
    // any other fork failure.
    int ok = 0, failed = 0;
    for (int i = 0; i < 8; ++i) {
      const std::int64_t pid = sys.fork([i](os::ISys& c) { c.exit(i); });
      if (pid > 0) {
        std::int64_t status = -1;
        sys.wait_pid(pid, &status);
        ++ok;
      } else {
        std::printf("[init] fork #%d failed with %s — continuing\n", i,
                    kernel::errno_name(pid));
        ++failed;
      }
    }
    std::printf("[init] forks: %d ok, %d failed — system still running\n", ok, failed);
  });

  std::printf("== machine outcome: %s ==\n", os::OsInstance::outcome_name(outcome));
  std::printf("recoveries: PM restarted %u time(s); undo-log rollbacks: %llu\n",
              inst.engine().recoveries_of(kernel::kPmEp),
              static_cast<unsigned long long>(inst.engine().stats().rollbacks));
  return outcome == os::OsInstance::Outcome::kCompleted ? 0 : 1;
}
