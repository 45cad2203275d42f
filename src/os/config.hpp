// OS instance configuration: the experiment axes of the paper's evaluation.
#pragma once

#include <cstdint>

#include "ckpt/context.hpp"
#include "recovery/ladder.hpp"
#include "seep/policy.hpp"
#include "support/clock.hpp"

namespace osiris::os {

struct OsConfig {
  /// Recovery policy (Tables I-III): stateless / naive / pessimistic / enhanced.
  seep::Policy policy = seep::Policy::kEnhanced;

  /// Instrumentation mode (Table V): kOff = uninstrumented baseline,
  /// kAlways = "without opt", kWindowOnly = optimized (default).
  ckpt::Mode ckpt_mode = ckpt::Mode::kWindowOnly;

  /// Register the recovery engine as the kernel's crash and storm handler,
  /// which also runs the kernel's health monitor (DESIGN.md §15). When false
  /// (pure-performance baselines), any crash wedges the system and nothing
  /// samples for storms.
  bool recovery_enabled = true;

  /// Heartbeat sweep interval in virtual ticks; 0 disables heartbeats.
  Tick heartbeat_interval = 400;

  /// Recovery budget per component: once exhausted, the escalation ladder
  /// forces the component straight into quarantine (degraded mode) instead
  /// of wedging the system.
  std::uint32_t max_recoveries = 8;

  /// Escalation-ladder tuning: rung-1 backoff base and quarantine cooldown
  /// (see recovery::LadderConfig; the rest of the ladder is constant).
  recovery::LadderConfig ladder;

  // Disk geometry (latencies: BlockDevice's 40/60-tick defaults).
  std::size_t disk_blocks = 4096;
  std::size_t cache_blocks = 64;

  /// Structured event tracing (requires an OSIRIS_TRACE=ON build; ignored —
  /// at zero cost — otherwise). Off by default: tracing is opt-in per run.
  bool trace_enabled = false;
  /// Per-component ring capacity in events (flight-recorder semantics:
  /// oldest events are overwritten once a component's ring is full). The
  /// default keeps the busiest ring cache-resident; raise it for analyses
  /// that must retain a full run.
  std::size_t trace_ring_capacity = 1024;

  /// FOM request executor for VFS (DESIGN.md §16): cache misses park the
  /// request as a resumable state machine instead of suspending a worker
  /// fiber, so the SEEP window machinery stays live across the disk wait.
  /// Off by default so every pre-existing scenario — and every golden
  /// trace — is bit-identical.
  bool vfs_fom = false;
};

}  // namespace osiris::os
