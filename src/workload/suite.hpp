// The prototype test suite: 89 self-checking user programs (the equivalent
// of the MINIX 3 test set the paper uses, SVI), written to maximize code
// coverage in the five system servers.
//
// The suite driver runs inside the simulated OS as init: each test executes
// in a forked child so that a failing (or error-virtualized) test cannot
// take the driver down — mirroring how the paper's QEMU harness observes
// pass/fail per test while the machine survives or dies around it.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "os/instance.hpp"
#include "os/isys.hpp"

namespace osiris::workload {

struct SuiteTest {
  std::string name;
  std::string group;  // proc / signal / fs / pipe / ds / vm / cross
  /// Returns 0 on pass, a nonzero code (usually the failing line) otherwise.
  std::function<std::int64_t(os::ISys&)> body;
};

/// All 89 tests, in execution order.
const std::vector<SuiteTest>& suite_tests();

/// Programs the suite (and the shell workloads) exec(); must be registered
/// with every OS instance before boot.
void register_suite_programs(os::ProgramRegistry& registry);

struct SuiteResult {
  int passed = 0;
  int failed = 0;
  bool driver_completed = false;  // init ran the whole list
  os::OsInstance::Outcome outcome = os::OsInstance::Outcome::kCompleted;
  std::vector<std::string> failures;

  friend bool operator==(const SuiteResult&, const SuiteResult&) = default;
};

/// Run the full suite as init on a booted instance.
SuiteResult run_suite(os::OsInstance& inst);

}  // namespace osiris::workload
