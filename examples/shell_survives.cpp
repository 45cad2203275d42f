// The paper's SIII-C narrative, reproduced end to end: a shell issues
// fork(); the Process Manager takes a NULL-pointer dereference while
// handling it *before* communicating with other components; the Recovery
// Server restores PM from the undo log and answers the shell with E_CRASH;
// the shell "simply aborts the execution of the command and informs the
// user that something went wrong" — and keeps running.
//
//   $ ./build/examples/shell_survives
#include <cstdio>
#include <cstring>

#include "fi/registry.hpp"
#include "os/instance.hpp"
#include "support/log.hpp"
#include "workload/suite.hpp"

using namespace osiris;

int main() {
  slog::set_threshold(slog::Level::kInfo);
  os::OsConfig cfg;
  os::OsInstance inst(cfg);
  workload::register_suite_programs(inst.programs());
  inst.boot();

  // A tiny shell: run each command with fork+exec+wait, report failures to
  // the "user" and continue — exactly how well-written programs deal with
  // E_CRASH (paper SIII-C).
  const auto outcome = inst.run([&inst](os::ISys& sys) {
    const char* script[] = {"/bin/true", "/bin/sh_script", "/bin/true",
                            "/bin/sh_script", "/bin/true"};
    int command_no = 0;
    for (const char* cmd : script) {
      ++command_no;
      if (command_no == 3) {
        // Plant the fault the example is about: PM will crash while handling
        // the *next* fork, before it has talked to any other component.
        for (fi::Site* s : fi::Registry::instance().sites()) {
          if (std::strcmp(s->tag, "pm") == 0 && s->hits() > 0) {
            fi::Registry::instance().arm(s, fi::FaultType::kNullDeref, s->hits() + 2);
            break;
          }
        }
        std::printf("sh: (a NULL-pointer bug is about to fire inside PM)\n");
      }
      const std::int64_t pid = sys.fork([cmd](os::ISys& c) {
        c.exec(cmd);
        c.exit(127);
      });
      if (pid < 0) {
        std::printf("sh: %s: cannot execute (%s) — continuing with the next command\n", cmd,
                    kernel::errno_name(pid));
        continue;
      }
      std::int64_t status = -1;
      sys.wait_pid(pid, &status);
      std::printf("sh: %s exited with status %lld\n", cmd, static_cast<long long>(status));
    }
    std::printf("sh: script done; PM was recovered %u time(s) along the way\n",
                inst.engine().recoveries_of(kernel::kPmEp));
  });

  std::printf("machine outcome: %s (the failure was cleanly handled and the system\n"
              "is once again in a stable and consistent state)\n",
              os::OsInstance::outcome_name(outcome));
  return outcome == os::OsInstance::Outcome::kCompleted ? 0 : 1;
}
