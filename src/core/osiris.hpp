// Umbrella header: the OSIRIS public API.
//
// A downstream user typically needs only:
//
//   #include "core/osiris.hpp"
//
//   osiris::os::OsConfig cfg;                 // policy, instrumentation mode
//   osiris::os::OsInstance machine(cfg);
//   machine.programs().add("myprog", ...);    // exec()-able programs
//   machine.boot();
//   auto outcome = machine.run([](osiris::os::ISys& sys) { ... });
//
// plus, for experiments, the fault-injection registry (osiris::fi), the
// campaign drivers (osiris::workload) and the metrics snapshot (osiris::core).
#pragma once

#include "ckpt/cell.hpp"
#include "ckpt/context.hpp"
#include "ckpt/undo_log.hpp"
#include "core/metrics.hpp"
#include "fi/registry.hpp"
#include "fs/minifs.hpp"
#include "kernel/kernel.hpp"
#include "os/instance.hpp"
#include "os/mono.hpp"
#include "recovery/engine.hpp"
#include "seep/policy.hpp"
#include "seep/seep.hpp"
#include "seep/window.hpp"
#include "servers/protocol.hpp"
#include "workload/campaign.hpp"
#include "workload/suite.hpp"
#include "workload/unixbench.hpp"
