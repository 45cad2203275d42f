// System-wide metrics snapshot: one structure aggregating everything the
// paper's evaluation measures, collected from a live (or finished) machine.
#pragma once

#include <string>
#include <vector>

#include "os/instance.hpp"

namespace osiris::core {

struct ComponentMetrics {
  std::string name;
  double recovery_coverage = 0.0;     // Table I quantity
  std::uint64_t windows_opened = 0;
  std::uint64_t closed_by_seep = 0;
  std::uint64_t closed_by_yield = 0;
  std::size_t state_bytes = 0;        // Table VI "base"
  std::size_t clone_bytes = 0;        // Table VI "+clone"
  std::size_t max_undo_log_bytes = 0;  // Table VI "+undo log"
  std::uint64_t undo_records = 0;
  std::uint32_t recoveries = 0;

  // FOM executor (DESIGN.md §16): all zero unless the component runs the
  // executor (cfg.vfs_fom) and requests actually parked mid-flight.
  std::uint64_t fom_admitted = 0;
  std::uint64_t fom_parks = 0;
  std::uint64_t fom_resumes = 0;
  std::uint64_t fom_aborts = 0;
  std::uint64_t fom_sync_fallbacks = 0;
  std::uint64_t fom_in_flight_high_water = 0;
  std::uint64_t fom_wait_ticks = 0;

  // Event tracing (zero unless the run had cfg.trace_enabled on an
  // OSIRIS_TRACE=ON build): flight-recorder health per component.
  std::uint64_t trace_events = 0;        // events currently retained in the ring
  std::uint64_t trace_dropped = 0;       // events overwritten after the ring filled
  std::uint64_t trace_high_water = 0;    // max events simultaneously retained
};

struct SystemMetrics {
  std::vector<ComponentMetrics> components;
  double weighted_coverage = 0.0;

  // kernel substrate
  std::uint64_t messages = 0;
  std::uint64_t nested_calls = 0;
  std::uint64_t crashes = 0;
  std::uint64_t hangs = 0;

  // IPC (DESIGN.md §14): queue depth and grant copy accounting.
  std::uint64_t queue_high_water = 0;
  std::uint64_t safecopy_bytes = 0;
  std::uint64_t grant_bypass_bytes = 0;
  std::uint64_t grant_spans = 0;

  // recovery engine
  std::uint64_t restarts = 0;
  std::uint64_t rollbacks = 0;
  std::uint64_t error_replies = 0;
  std::uint64_t shutdowns = 0;
  std::uint64_t fom_reconciles = 0;  // windowed recoveries reconciled by the FOM executor

  // Physiological health monitor + storm rung (DESIGN.md §15). All zero when
  // cfg.health.enabled is off (the default), except health_charges which
  // stays zero anyway because the monitor never samples.
  std::uint64_t health_charges = 0;    // deliveries charged as non-useful
  std::uint64_t fever_onsets = 0;      // quanta where an endpoint crossed the fever threshold
  std::uint64_t throttled_drops = 0;   // deliveries dropped past a throttled sender's allowance
  std::uint64_t starved_quanta = 0;    // quanta where charged work dominated useful work
  std::uint64_t dispatch_aborts = 0;   // livelock-valve trips (cleared backlog)
  std::uint64_t storm_throttles = 0;   // fever onsets answered with a throttle
  std::uint64_t storm_quarantines = 0; // fevers persisting under throttle
  std::uint64_t detection_latency_ticks = 0;  // storm onset -> throttle (first detection)
  bool storm_detected = false;         // detection_latency_ticks is valid

  // SEEP classification health: how many lookups fell back to the
  // conservative default because the type was absent from the spec table.
  // Nonzero means a channel carried an undeclared type (dispatch fail-stops
  // on these at the receiver, but outbound wrappers consult the table too).
  std::uint64_t classification_defaults = 0;

  // event tracing (machine-wide; see ComponentMetrics for the per-ring view)
  bool trace_active = false;          // a tracer was attached to the run
  std::uint64_t trace_emitted = 0;    // total events emitted (incl. overwritten)
  std::uint64_t trace_dropped = 0;    // total events lost to full rings

  /// Render a human-readable report.
  [[nodiscard]] std::string report() const;
};

/// Snapshot all metrics from a machine (typically after run()).
SystemMetrics collect_metrics(os::OsInstance& inst);

}  // namespace osiris::core
