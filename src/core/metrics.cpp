#include "core/metrics.hpp"

#include "servers/fom.hpp"
#include "support/table_printer.hpp"

namespace osiris::core {

SystemMetrics collect_metrics(os::OsInstance& inst) {
  SystemMetrics m;
  std::uint64_t total_hits = 0;
  double weighted = 0.0;
  for (recovery::Recoverable* comp : inst.components()) {
    ComponentMetrics cm;
    cm.name = std::string(comp->name());
    const seep::WindowStats& ws = comp->window().stats();
    cm.recovery_coverage = ws.coverage();
    cm.windows_opened = ws.opened;
    cm.closed_by_seep = ws.closed_by_seep;
    cm.closed_by_yield = ws.closed_by_yield;
    cm.state_bytes = comp->data_section_size();
    cm.clone_bytes = inst.engine().clone_bytes(comp->endpoint());
    const ckpt::UndoLogStats& ls = comp->ckpt_context().log().stats();
    cm.max_undo_log_bytes = ls.max_log_bytes;
    cm.undo_records = ls.records;
    cm.recoveries = inst.engine().recoveries_of(comp->endpoint());
    if (const servers::FomStats* fs = comp->fom_stats()) {
      cm.fom_admitted = fs->admitted;
      cm.fom_parks = fs->parks;
      cm.fom_resumes = fs->resumes;
      cm.fom_aborts = fs->aborts;
      cm.fom_sync_fallbacks = fs->sync_fallbacks;
      cm.fom_in_flight_high_water = fs->in_flight_high_water;
      cm.fom_wait_ticks = fs->wait_ticks_total;
    }
#if OSIRIS_TRACE_ENABLED
    if (const trace::Tracer* tracer = inst.tracer()) {
      if (const trace::EventRing* ring = tracer->ring(comp->endpoint().value)) {
        cm.trace_events = ring->size();
        cm.trace_dropped = ring->dropped();
        cm.trace_high_water = ring->high_water();
      }
    }
#endif
    const std::uint64_t hits = ws.probe_hits_inside + ws.probe_hits_outside;
    total_hits += hits;
    weighted += ws.coverage() * static_cast<double>(hits);
    m.components.push_back(std::move(cm));
  }
  m.weighted_coverage = total_hits > 0 ? weighted / static_cast<double>(total_hits) : 0.0;

  const kernel::KernelStats& ks = inst.kern().stats();
  m.messages = ks.messages_queued;
  m.nested_calls = ks.nested_calls;
  m.crashes = ks.crashes;
  m.hangs = ks.hangs;

  m.queue_high_water = ks.queue_high_water;
  m.safecopy_bytes = ks.safecopy_bytes;
  m.grant_bypass_bytes = ks.grant_bypass_bytes;
  m.grant_spans = ks.grant_spans;

  m.health_charges = ks.health_charges;
  m.fever_onsets = ks.fever_onsets;
  m.throttled_drops = ks.throttled_drops;
  m.starved_quanta = ks.starved_quanta;
  m.dispatch_aborts = ks.dispatch_aborts;

  const recovery::EngineStats& es = inst.engine().stats();
  m.restarts = es.restarts;
  m.rollbacks = es.rollbacks;
  m.error_replies = es.error_replies;
  m.shutdowns = es.shutdowns;
  m.fom_reconciles = es.fom_reconciles;
  m.storm_throttles = es.storm_throttles;
  m.storm_quarantines = es.storm_quarantines;
  m.detection_latency_ticks = es.detection_latency_ticks;
  m.storm_detected = es.storm_detected;

  m.classification_defaults = inst.classification().default_lookups();

#if OSIRIS_TRACE_ENABLED
  if (const trace::Tracer* tracer = inst.tracer()) {
    m.trace_active = true;
    m.trace_emitted = tracer->events_emitted();
    m.trace_dropped = tracer->total_dropped();
  }
#endif
  return m;
}

std::string SystemMetrics::report() const {
  std::vector<std::string> headers = {"Component", "Coverage", "Windows", "Closed(SEEP/yield)",
                                      "State B", "Clone B", "MaxLog B", "Recoveries"};
  if (trace_active) {
    headers.push_back("TraceHW");
    headers.push_back("TraceDrop");
  }
  TablePrinter t(headers);
  for (const ComponentMetrics& c : components) {
    std::vector<std::string> row = {
        c.name, TablePrinter::pct(c.recovery_coverage), std::to_string(c.windows_opened),
        std::to_string(c.closed_by_seep) + "/" + std::to_string(c.closed_by_yield),
        std::to_string(c.state_bytes), std::to_string(c.clone_bytes),
        std::to_string(c.max_undo_log_bytes), std::to_string(c.recoveries)};
    if (trace_active) {
      row.push_back(std::to_string(c.trace_high_water));
      row.push_back(std::to_string(c.trace_dropped));
    }
    t.add_row(std::move(row));
  }
  std::string out = t.str();
  out += "weighted coverage: " + TablePrinter::pct(weighted_coverage) + "\n";
  out += "kernel: " + std::to_string(messages) + " messages, " + std::to_string(nested_calls) +
         " nested calls, " + std::to_string(crashes) + " crashes, " + std::to_string(hangs) +
         " hangs\n";
  out += "ipc: queue high-water " + std::to_string(queue_high_water) + ", " +
         std::to_string(safecopy_bytes) + " B safecopied, " +
         std::to_string(grant_bypass_bytes) + " B zero-copy over " +
         std::to_string(grant_spans) + " spans\n";
  out += "engine: " + std::to_string(restarts) + " restarts, " + std::to_string(rollbacks) +
         " rollbacks, " + std::to_string(error_replies) + " error replies, " +
         std::to_string(shutdowns) + " shutdowns\n";
  out += "classification: " + std::to_string(classification_defaults) +
         " default-trait lookups\n";
  for (const ComponentMetrics& c : components) {
    if (c.fom_admitted == 0) continue;
    out += "fom[" + c.name + "]: " + std::to_string(c.fom_admitted) + " admitted, " +
           std::to_string(c.fom_parks) + " parks, " + std::to_string(c.fom_resumes) +
           " resumes, " + std::to_string(c.fom_aborts) + " aborts, " +
           std::to_string(c.fom_sync_fallbacks) + " sync fallbacks, high-water " +
           std::to_string(c.fom_in_flight_high_water) + ", " +
           std::to_string(c.fom_wait_ticks) + " wait ticks";
    if (fom_reconciles > 0) out += ", " + std::to_string(fom_reconciles) + " reconciles";
    out += "\n";
  }
  // Charges alone are routine with recovery on: report fevers, throttles, valve trips.
  if (fever_onsets > 0 || storm_throttles > 0 || dispatch_aborts > 0) {
    out += "health: " + std::to_string(health_charges) + " charges, " +
           std::to_string(fever_onsets) + " fever onsets, " + std::to_string(throttled_drops) +
           " throttled drops, " + std::to_string(starved_quanta) + " starved quanta, " +
           std::to_string(storm_throttles) + " throttles, " + std::to_string(storm_quarantines) +
           " storm quarantines";
    if (storm_detected) {
      out += ", detection latency " + std::to_string(detection_latency_ticks) + " ticks";
    }
    if (dispatch_aborts > 0) out += ", " + std::to_string(dispatch_aborts) + " dispatch aborts";
    out += "\n";
  }
  if (trace_active) {
    out += "trace: " + std::to_string(trace_emitted) + " events emitted, " +
           std::to_string(trace_dropped) + " dropped\n";
  }
  return out;
}

}  // namespace osiris::core
