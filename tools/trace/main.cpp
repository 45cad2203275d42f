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

#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>

#include "scenarios.hpp"
#include "trace/export.hpp"

namespace {

using osiris::os::OsInstance;
using osiris::scenarios::kFullRetention;

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0 << " [--scenario NAME] [--text FILE] [--chrome FILE]\n"
            << "       [--ring EVENTS]\n"
            << "  --scenario S  fault scenario to trace (default: transient):\n";
  for (const osiris::scenarios::Scenario& s : osiris::scenarios::all()) {
    std::cerr << "                  " << s.name << ": " << s.summary << '\n';
  }
  std::cerr << "  --text FILE   write the merged text trace to FILE ('-' = stdout;\n"
            << "                default when no --chrome is given)\n"
            << "  --chrome FILE write a Chrome trace_event JSON timeline to FILE\n"
            << "  --ring N      per-component ring capacity in events (default "
            << kFullRetention << ")\n";
  return 2;
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
  std::size_t ring_capacity = kFullRetention;  // lose nothing unless asked to

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

  const osiris::scenarios::Scenario* row = osiris::scenarios::find(scenario);
  if (row == nullptr) {
    std::cerr << "osiris-trace: unknown scenario: " << scenario << '\n';
    return usage(argv[0]);
  }
  osiris::scenarios::Run run;
  try {
    run = osiris::scenarios::run(*row, ring_capacity);
  } catch (const std::exception& e) {
    std::cerr << "osiris-trace: " << e.what() << '\n';
    return 2;
  }

  const osiris::trace::Tracer& tracer = *run.inst->tracer();
  const auto events = tracer.merged();
  if (!text_path.empty() &&
      !write_output(text_path, osiris::trace::format_text(events, tracer))) {
    std::cerr << "osiris-trace: cannot write " << text_path << '\n';
    return 2;
  }
  if (!chrome_path.empty() &&
      !write_output(chrome_path, osiris::trace::to_chrome_json(events, tracer))) {
    std::cerr << "osiris-trace: cannot write " << chrome_path << '\n';
    return 2;
  }

  const osiris::kernel::KernelStats& ks = run.inst->kern().stats();
  std::cerr << "osiris-trace: scenario=" << scenario
            << " outcome=" << OsInstance::outcome_name(run.outcome)
            << " queue-hw=" << ks.queue_high_water << " zero-copy-bytes=" << ks.grant_bypass_bytes
            << " fevers=" << ks.fever_onsets << " throttled-drops=" << ks.throttled_drops
            << '\n';
  return run.outcome == OsInstance::Outcome::kCompleted ? 0 : 3;
}
