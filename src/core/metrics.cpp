#include "core/metrics.hpp"

#include "support/table_printer.hpp"

namespace osiris::core {

SystemMetrics collect_metrics(os::OsInstance& inst) {
  SystemMetrics m;
  recovery::Engine* engine = inst.config().recovery_enabled ? &inst.engine() : nullptr;
  std::uint64_t total_hits = 0;
  double weighted = 0.0;
  for (recovery::Recoverable* comp : inst.components()) {
    ComponentMetrics cm;
    cm.name = std::string(comp->name());
    const seep::WindowStats& ws = comp->window().stats();
    cm.recovery_coverage = ws.coverage();
    cm.probe_hits = ws.probe_hits_inside + ws.probe_hits_outside;
    cm.windows_opened = ws.opened;
    cm.closed_by_seep = ws.closed_by_seep;
    cm.closed_by_yield = ws.closed_by_yield;
    cm.state_bytes = comp->data_section_size();
    const ckpt::UndoLogStats& ls = comp->ckpt_context().log().stats();
    cm.max_undo_log_bytes = ls.max_log_bytes;
    cm.undo_records = ls.records;
    if (engine != nullptr) {
      cm.clone_bytes = engine->clone_bytes(comp->endpoint());
      cm.recoveries = engine->recoveries_of(comp->endpoint());
    }
#if OSIRIS_TRACE_ENABLED
    if (const trace::Tracer* tracer = inst.tracer()) {
      if (const trace::EventRing* ring = tracer->ring(comp->endpoint().value)) {
        cm.trace_dropped = ring->dropped();
        cm.trace_high_water = ring->high_water();
      }
    }
#endif
    total_hits += cm.probe_hits;
    weighted += cm.recovery_coverage * static_cast<double>(cm.probe_hits);
    m.components.push_back(std::move(cm));
  }
  m.weighted_coverage = total_hits > 0 ? weighted / static_cast<double>(total_hits) : 0.0;

  m.kernel = inst.kern().stats();
  if (engine != nullptr) m.engine = engine->stats();

#if OSIRIS_TRACE_ENABLED
  if (const trace::Tracer* tracer = inst.tracer()) {
    m.trace_active = true;
    m.trace_emitted = tracer->events_emitted();
    m.trace_dropped = tracer->total_dropped();
  }
#endif
  return m;
}

SuiteSnapshot snapshot_suite(seep::Policy policy) {
  os::OsConfig cfg;
  cfg.policy = policy;
  os::OsInstance inst(cfg);
  workload::register_suite_programs(inst.programs());
  inst.boot();
  SuiteSnapshot s;
  s.suite = workload::run_suite(inst);
  s.metrics = collect_metrics(inst);
  return s;
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
  const kernel::KernelStats& k = kernel;
  const recovery::EngineStats& e = engine;
  std::string out = t.str();
  out += "weighted coverage: " + TablePrinter::pct(weighted_coverage) + "\n";
  out += "kernel: " + std::to_string(k.messages_queued) + " messages, " +
         std::to_string(k.nested_calls) + " nested calls, " + std::to_string(k.crashes) +
         " crashes, " + std::to_string(k.hangs) + " hangs\n";
  out += "ipc: queue high-water " + std::to_string(k.queue_high_water) + ", " +
         std::to_string(k.safecopy_bytes) + " B safecopied, " +
         std::to_string(k.grant_bypass_bytes) + " B zero-copy over " +
         std::to_string(k.grant_spans) + " spans\n";
  out += "engine: " + std::to_string(e.restarts) + " restarts, " + std::to_string(e.rollbacks) +
         " rollbacks, " + std::to_string(e.error_replies) + " error replies, " +
         std::to_string(e.shutdowns) + " shutdowns\n";
  // Charges alone are routine with recovery on: report fevers, throttles, valve trips.
  if (k.fever_onsets > 0 || e.storm_throttles > 0 || k.dispatch_aborts > 0) {
    out += "health: " + std::to_string(k.health_charges) + " charges, " +
           std::to_string(k.fever_onsets) + " fever onsets, " +
           std::to_string(k.throttled_drops) + " throttled drops, " +
           std::to_string(k.starved_quanta) + " starved quanta, " +
           std::to_string(e.storm_throttles) + " throttles, " +
           std::to_string(e.storm_quarantines) + " storm quarantines";
    if (e.storm_detected) {
      out += ", detection latency " + std::to_string(e.detection_latency_ticks) + " ticks";
    }
    if (k.dispatch_aborts > 0) out += ", " + std::to_string(k.dispatch_aborts) + " dispatch aborts";
    out += "\n";
  }
  if (trace_active) {
    out += "trace: " + std::to_string(trace_emitted) + " events emitted, " +
           std::to_string(trace_dropped) + " dropped\n";
  }
  return out;
}

}  // namespace osiris::core
