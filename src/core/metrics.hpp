// System-wide metrics snapshot: one structure aggregating everything the
// paper's evaluation measures, collected from a live (or finished) machine.
// Machine-wide counters are the subsystems' own stats structs, copied whole;
// the per-component rows hold only what no stats struct does.
#pragma once

#include <string>
#include <vector>

#include "os/instance.hpp"
#include "workload/suite.hpp"

namespace osiris::core {

struct ComponentMetrics {
  std::string name;
  double recovery_coverage = 0.0;      // Table I: share of probe hits inside a window
  std::uint64_t probe_hits = 0;        // Table I's weight: executed probes
  std::uint64_t windows_opened = 0;
  std::uint64_t closed_by_seep = 0;
  std::uint64_t closed_by_yield = 0;
  std::size_t state_bytes = 0;         // Table VI "base"
  std::size_t clone_bytes = 0;         // Table VI "+clone"
  std::size_t max_undo_log_bytes = 0;  // Table VI "+undo log"
  std::uint64_t undo_records = 0;
  std::uint32_t recoveries = 0;

  // Event tracing (zero unless the run had cfg.trace_enabled on an
  // OSIRIS_TRACE=ON build): flight-recorder health per component.
  std::uint64_t trace_high_water = 0;  // max events simultaneously retained
  std::uint64_t trace_dropped = 0;     // events overwritten after the ring filled
};

struct SystemMetrics {
  std::vector<ComponentMetrics> components;  // PM, VM, VFS, DS, RS
  double weighted_coverage = 0.0;            // Table I mean, weighted by probe hits

  kernel::KernelStats kernel;
  /// Zero on a machine without recovery, as are the components' clone bytes
  /// and recovery counts.
  recovery::EngineStats engine;

  // event tracing (machine-wide; see ComponentMetrics for the per-ring view)
  bool trace_active = false;          // a tracer was attached to the run
  std::uint64_t trace_emitted = 0;    // total events emitted (incl. overwritten)
  std::uint64_t trace_dropped = 0;    // total events lost to full rings

  /// Render a human-readable report.
  [[nodiscard]] std::string report() const;
};

/// Snapshot all metrics from a booted machine (typically after run()).
SystemMetrics collect_metrics(os::OsInstance& inst);

/// A fresh machine under one policy after a full prototype test-suite run:
/// the setting of Table I.
struct SuiteSnapshot {
  workload::SuiteResult suite;
  SystemMetrics metrics;
};
SuiteSnapshot snapshot_suite(seep::Policy policy);

}  // namespace osiris::core
