// osiris-trace — run a canned fault/recovery scenario with event tracing
// enabled and export the merged machine timeline.
//
//   osiris-trace --scenario ladder --chrome timeline.json
//
// The Chrome output loads straight into chrome://tracing (or Perfetto's
// legacy importer): components appear as named threads, recovery windows as
// duration spans, and every IPC / checkpoint / fault / ladder event as an
// instant. The text output is the same format the golden-trace tests diff.
//
// Exit status: 0 on success, 2 on usage/IO errors, 3 when the scenario run
// did not complete (the export still happens — a truncated timeline of a
// wedged machine is exactly what one wants to look at).

#include <cstring>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>

#include "fi/registry.hpp"
#include "os/instance.hpp"
#include "trace/export.hpp"
#include "workload/suite.hpp"

namespace {

using osiris::os::ISys;
using osiris::os::OsConfig;
using osiris::os::OsInstance;

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " [--scenario transient|ladder|hang|storm] [--text FILE] [--chrome FILE]\n"
               "       [--ring EVENTS]\n"
            << "  --scenario S  fault scenario to trace (default: transient)\n"
            << "                  transient: one in-window PM crash, rolled back and\n"
            << "                             error-virtualized\n"
            << "                  ladder:    persistent DS bug climbing the escalation\n"
            << "                             ladder into quarantine and back\n"
            << "                  hang:      injected DS hang caught by RS heartbeats\n"
            << "                  storm:     DS handler-spin storm caught by the health\n"
            << "                             monitor (fever -> throttle -> quarantine)\n"
            << "  --text FILE   write the merged text trace to FILE ('-' = stdout;\n"
            << "                default when no --chrome is given)\n"
            << "  --chrome FILE write a Chrome trace_event JSON timeline to FILE\n"
            << "  --ring N      per-component ring capacity in events (default "
            << osiris::trace::kDefaultRingCapacity << ")\n";
  return 2;
}

/// The busiest probe site of `tag` after a profiling run of `body` — the same
/// site-selection the recovery integration tests use, so the traced scenarios
/// match the tested ones.
osiris::fi::Site* busiest_site(const char* tag, const ISys::ProcBody& body) {
  osiris::fi::Registry::instance().disarm();
  osiris::fi::Registry::instance().reset_counts();
  OsInstance inst{OsConfig{}};
  osiris::workload::register_suite_programs(inst.programs());
  inst.boot();
  inst.run(body);
  osiris::fi::Site* best = nullptr;
  for (osiris::fi::Site* s : osiris::fi::Registry::instance().sites()) {
    if (std::strcmp(s->tag, tag) == 0 && (best == nullptr || s->hits() > best->hits())) best = s;
  }
  return best;
}

struct ScenarioResult {
  OsInstance::Outcome outcome = OsInstance::Outcome::kCompleted;
  std::string text;
  std::string chrome;
  osiris::kernel::KernelStats kernel_stats;
};

ScenarioResult run_scenario(const std::string& name, std::size_t ring_capacity) {
  OsConfig cfg;
  cfg.trace_enabled = true;
  cfg.trace_ring_capacity = ring_capacity;

  osiris::fi::Site* site = nullptr;
  ISys::ProcBody body;

  if (name == "transient") {
    site = busiest_site("pm", [](ISys& sys) {
      for (int i = 0; i < 30; ++i) sys.getpid();
    });
    body = [](ISys& sys) {
      for (int i = 0; i < 30; ++i) sys.setuid(0);
    };
  } else if (name == "ladder") {
    site = busiest_site("ds", [](ISys& sys) {
      for (int i = 0; i < 30; ++i) sys.ds_publish("trace.key", 1);
    });
    cfg.ladder.backoff_base_ticks = 50;
    cfg.ladder.quarantine_cooldown_ticks = 400;  // short: the readmission shows up too
    body = [](ISys& sys) {
      for (int i = 0; i < 120; ++i) sys.ds_publish("trace.key", static_cast<std::uint64_t>(i));
    };
  } else if (name == "hang") {
    site = busiest_site("ds", [](ISys& sys) {
      for (int i = 0; i < 30; ++i) sys.ds_publish("trace.key", 1);
    });
    cfg.heartbeat_interval = 50;
    body = [](ISys& sys) {
      for (int i = 0; i < 30; ++i) sys.ds_publish("trace.key", static_cast<std::uint64_t>(i));
    };
  } else if (name == "storm") {
    site = busiest_site("ds", [](ISys& sys) {
      for (int i = 0; i < 30; ++i) sys.ds_publish("trace.key", 1);
    });
    body = [](ISys& sys) {
      for (int i = 0; i < 200; ++i) sys.ds_publish("trace.key", static_cast<std::uint64_t>(i));
    };
  } else {
    throw std::runtime_error("unknown scenario: " + name);
  }
  if (site == nullptr) throw std::runtime_error("no probe site found for scenario " + name);

  osiris::fi::Registry::instance().reset_counts();
  OsInstance inst(cfg);
  osiris::workload::register_suite_programs(inst.programs());
  inst.boot();

  if (name == "transient") {
    osiris::fi::Registry::instance().arm(site, osiris::fi::FaultType::kNullDeref, 15);
  } else if (name == "ladder") {
    osiris::fi::Registry::instance().arm_persistent(site, osiris::fi::FaultType::kNullDeref, 2);
  } else if (name == "storm") {
    osiris::fi::Registry::instance().set_storm_plan(/*victim=*/-1, /*burst=*/4);
    osiris::fi::Registry::instance().arm_persistent(site, osiris::fi::FaultType::kHandlerSpin,
                                                    10);
  } else {
    osiris::fi::Registry::instance().arm(site, osiris::fi::FaultType::kHang, 5);
  }

  ScenarioResult result;
  result.outcome = inst.run(std::move(body));
  osiris::fi::Registry::instance().disarm();

  const osiris::trace::Tracer& tracer = *inst.tracer();
  const auto events = tracer.merged();
  result.text = osiris::trace::format_text(events, tracer);
  result.chrome = osiris::trace::to_chrome_json(events, tracer);
  result.kernel_stats = inst.kern().stats();
  return result;
}

bool write_output(const std::string& path, const std::string& content) {
  if (path == "-") {
    std::cout << content;
    return true;
  }
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  out << content;
  return out.good();
}

}  // namespace

int main(int argc, char** argv) {
  std::string scenario = "transient";
  std::string text_path;
  std::string chrome_path;
  // Offline exploration wants full retention, not the cache-sized in-sim
  // default: lose nothing unless the user shrinks the rings explicitly.
  std::size_t ring_capacity = 1u << 16;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--scenario" && i + 1 < argc) {
      scenario = argv[++i];
    } else if (arg == "--text" && i + 1 < argc) {
      text_path = argv[++i];
    } else if (arg == "--chrome" && i + 1 < argc) {
      chrome_path = argv[++i];
    } else if (arg == "--ring" && i + 1 < argc) {
      ring_capacity = static_cast<std::size_t>(std::stoull(argv[++i]));
    } else {
      return usage(argv[0]);
    }
  }
  if (text_path.empty() && chrome_path.empty()) text_path = "-";

  ScenarioResult result;
  try {
    result = run_scenario(scenario, ring_capacity);
  } catch (const std::exception& e) {
    std::cerr << "osiris-trace: " << e.what() << '\n';
    return 2;
  }

  if (!text_path.empty() && !write_output(text_path, result.text)) {
    std::cerr << "osiris-trace: cannot write " << text_path << '\n';
    return 2;
  }
  if (!chrome_path.empty() && !write_output(chrome_path, result.chrome)) {
    std::cerr << "osiris-trace: cannot write " << chrome_path << '\n';
    return 2;
  }

  const osiris::kernel::KernelStats& ks = result.kernel_stats;
  std::cerr << "osiris-trace: scenario=" << scenario
            << " outcome=" << OsInstance::outcome_name(result.outcome)
            << " queue-hw=" << ks.queue_high_water << " zero-copy-bytes=" << ks.grant_bypass_bytes
            << " fevers=" << ks.fever_onsets << " throttled-drops=" << ks.throttled_drops
            << '\n';
  return result.outcome == OsInstance::Outcome::kCompleted ? 0 : 3;
}
