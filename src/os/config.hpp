// OS instance configuration: the experiment axes of the paper's evaluation.
#pragma once

#include <cstdint>

#include "ckpt/context.hpp"
#include "ckpt/page_store.hpp"
#include "kernel/fastpath.hpp"
#include "kernel/health.hpp"
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

  /// Register the recovery engine as the kernel's crash handler. When false
  /// (pure-performance baselines), any crash wedges the system.
  bool recovery_enabled = true;

  /// Heartbeat sweep interval in virtual ticks; 0 disables heartbeats.
  Tick heartbeat_interval = 400;

  /// Recovery budget per component: once exhausted, the escalation ladder
  /// forces the component straight into quarantine (degraded mode) instead
  /// of wedging the system.
  std::uint32_t max_recoveries = 8;

  /// Escalation-ladder tuning: crash-loop detection window, backoff curve,
  /// and quarantine cooldown (see recovery::LadderConfig).
  recovery::LadderConfig ladder;

  // Disk geometry and latency.
  std::size_t disk_blocks = 4096;
  std::size_t cache_blocks = 64;
  Tick disk_read_latency = 40;
  Tick disk_write_latency = 60;

  /// Structured event tracing (requires an OSIRIS_TRACE=ON build; ignored —
  /// at zero cost — otherwise). Off by default: tracing is opt-in per run.
  bool trace_enabled = false;
  /// Per-component ring capacity in events (flight-recorder semantics:
  /// oldest events are overwritten once a component's ring is full). The
  /// default keeps the busiest ring cache-resident; raise it for analyses
  /// that must retain a full run.
  std::size_t trace_ring_capacity = 1024;

  /// IPC fast path (DESIGN.md §14): arena-backed message queue and
  /// per-endpoint dispatch batching. Both off by default; the serving
  /// benchmark reports before/after columns per flag, and golden traces pin
  /// observational equivalence. Bulk file payloads always ride grant spans.
  kernel::FastPath fastpath;

  /// FOM request executor for VFS (DESIGN.md §16): cache misses park the
  /// request as a resumable state machine instead of suspending a worker
  /// fiber, so the SEEP window machinery stays live across the disk wait.
  /// Off by default so every pre-existing scenario — and every golden
  /// trace — is bit-identical.
  bool vfs_fom = false;

  /// Two-tier checkpointing (DESIGN.md §17): stores into registered MB+
  /// regions take page-granular CoW snapshots in a ckpt::PageStore instead
  /// of element-granular arena records, and the Recovery Server's restart
  /// phase moves only transfer-dirty pages (delta restart). Off by default
  /// so every pre-existing scenario — and every golden trace — is
  /// bit-identical; only meaningful for components with an aux region
  /// (ds_blob_slots / vfs_journal_slots below).
  ckpt::PagesConfig ckpt_pages;

  /// Capacity of DS's heap-backed blob table (4 KiB payload slots behind
  /// DS_PUBLISH/RETRIEVE/DELETE). 0 = no blob tier; sized MB+ (e.g. 512
  /// slots = 2 MiB) for the large-state experiments.
  std::size_t ds_blob_slots = 0;

  /// Capacity of VFS's heap-backed op-journal ring (one 128-byte record per
  /// dispatched request). 0 = no journal.
  std::size_t vfs_journal_slots = 0;

  /// Physiological health monitor (DESIGN.md §15): per-endpoint fever
  /// detection feeding the ladder's storm rung. Off by default so every
  /// pre-existing scenario — and every golden trace — is bit-identical.
  kernel::HealthConfig health;

  /// Deliveries one kernel drain loop may make before the livelock valve
  /// trips (an undetected self-sustaining storm would otherwise spin the
  /// host forever: the virtual clock stands still while work is pending).
  /// Far above anything a legitimate workload produces. 0 disables.
  std::uint64_t max_dispatch_burst = 200'000;

  /// Scheduler-step budget: exceeded = the run is classified as hung.
  std::uint64_t max_steps = 20'000'000;
  /// Iterations without any user-process progress before declaring a hang.
  /// Disk completions and hang-recovery all resolve within tens of
  /// iterations; 2000 leaves two orders of magnitude of margin.
  std::uint64_t max_idle_iters = 2'000;
};

}  // namespace osiris::os
