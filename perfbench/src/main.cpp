// Benchmark driver: runs one workload for --seconds as back-to-back
// repetitions of a fixed, seeded amount of work and prints the result as
// one JSON object on the last line of stdout.
//
// Usage: perfbench --workload serve-hit|serve-miss|proc-faulted --seed N
//                  --seconds S --trace 0|1 [--spans FILE.csv]
//
// --trace 0 reports the end-to-end metrics, from untraced repetitions only.
// --trace 1 interleaves untraced, traced and (fault-free workloads) kOff
// repetitions and reports the per-layer metrics: the traced repetitions
// feed the ledger and the op spans, the untraced ones the overhead baseline,
// and kOff the checkpointing cost. Exit codes: 0 ok, 1 a failed output
// check, 2 usage, 3 a determinism-guard mismatch.
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "bench.hpp"

using namespace perfbench;

namespace {

/// Share of the traced timed phase that may fall outside every span.
constexpr double kLedgerTolerance = 0.05;
/// Host seconds the calibration computation takes on the reference machine.
/// Host-time figures are scaled by kCalibRefSeconds / (its time just before
/// each repetition), i.e. reported in reference-machine seconds, so a shared
/// machine running slower or faster for a while does not move them.
constexpr double kCalibRefSeconds = 0.010;
/// At least this many repetitions of every kind, whatever --seconds says.
constexpr int kMinCycles = 3;
/// Stop starting repetitions after this long so the run ends within 180 s.
constexpr double kHardCapSeconds = 120.0;

enum class Kind : std::uint8_t { kPlain, kTraced, kOff };

struct Metric {
  const char* name;
  const char* unit;
};

// End-to-end metrics reported in the JSON (--trace 0).
const Metric kEndToEnd[] = {
    {"setup_s", "s"},
    {"ops_per_s", "1/s"},
    {"lat_p50_us", "us"},
    {"vops_per_ktick", "1/ktick"},
    {"rss_peak_mib", "MiB"},
};

// Per-layer metrics reported in the JSON (--trace 1).
const Metric kPerLayer[] = {
    {"kernel.msgs_per_op", "count"},
    {"kernel.nested_calls_per_op", "count"},
    {"kernel.queue_high_water", "count"},
    {"kernel.dispatch_busy_frac", "frac"},
    {"kernel.dispatch_ns_per_msg", "ns"},
    {"kernel.send_ns", "ns"},
    {"kernel.send_grant_frac", "frac"},
    {"kernel.copy_bytes_per_op", "B"},
    {"kernel.safecopy_frac", "frac"},
    {"kernel.grants_per_op", "count"},
    {"clock.advance_busy_frac", "frac"},
    {"ledger.generator_frac", "frac"},
    {"ledger.recovery_frac", "frac"},
    {"ledger.residual_frac", "frac"},
    {"trace_overhead_frac", "frac"},
    {"fs.cache_hit_ratio", "frac"},
    {"fs.evictions_per_op", "count"},
    {"fs.writebacks_per_op", "count"},
    {"fs.disk_reads_per_op", "count"},
    {"fs.disk_writes_per_op", "count"},
    {"vfs.read_p50_us", "us"},
    {"vfs.write_p50_us", "us"},
    {"vfs.stat_p50_us", "us"},
    {"vfs.pipe_p50_us", "us"},
    {"ds.p50_us", "us"},
    {"pm.getpid_p50_us", "us"},
    {"pm.fork_p50_us", "us"},
    {"seep.windows_per_op", "count"},
    {"seep.closed_by_seep_frac", "frac"},
    {"seep.closed_by_yield_frac", "frac"},
    {"seep.weighted_coverage", "frac"},
    {"ckpt.undo_records_per_op", "count"},
    {"ckpt.undo_log_peak_bytes", "B"},
    {"ckpt.cost_frac", "frac"},
    {"recovery.crashes", "count"},
    {"recovery.restarts", "count"},
    {"recovery.rollbacks", "count"},
    {"recovery.transient_frac", "frac"},
    {"recovery.ecrash_per_fault", "count"},
    {"recovery.inflight_at_crash_mean", "count"},
    {"recovery.pm_p50_us", "us"},
    {"recovery.vfs_p50_us", "us"},
    {"recovery.ds_p50_us", "us"},
    {"recovery_p50_us", "us"},
    {"recovery_p90_us", "us"},
    {"disruption_p50_ticks", "ticks"},
    {"disruption_max_ticks", "ticks"},
    {"lat_p90_us", "us"},
    {"lat_p99_us", "us"},
    {"vlat_p50_ticks", "ticks"},
    {"vlat_p99_ticks", "ticks"},
    {"fail_frac", "frac"},
    {"fi.probe_hits_per_op", "count"},
    {"os.steps_per_op", "count"},
    {"os.procs_per_s", "1/s"},
    {"calib_ms", "ms"},
    {"op_samples", "count"},
    {"fault_samples", "count"},
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string spans;
};

using RunFn = Rep (*)(const RepConfig&, Ledger&);

double val(const std::map<std::string, double>& m, const char* k) {
  const auto it = m.find(k);
  return it == m.end() ? 0.0 : it->second;
}

double frac(std::uint64_t part, std::uint64_t whole) {
  return whole > 0 ? static_cast<double>(part) / static_cast<double>(whole) : 0.0;
}

/// Host-time per-layer figures of one traced repetition; `speed` converts
/// host durations to reference-machine durations.
std::map<std::string, double> layer_host(Ledger& l, const Rep& rep, bool proc, double speed) {
  std::map<std::string, double> m;
  const std::uint64_t total = l.total_ns();
  const double msgs = val(rep.exact, "kernel.msgs");
  // proc-faulted: OsInstance::run owns the loop, so the kernel share is
  // system mode (dispatch + scheduler + clock) and the clock is folded in.
  const std::uint64_t kern = proc ? l.excl_ns(Layer::kSystem) : l.excl_ns(Layer::kDispatch);
  m["kernel.dispatch_busy_frac"] = frac(kern, total);
  m["kernel.dispatch_ns_per_msg"] = msgs > 0 ? static_cast<double>(kern) / msgs * speed : 0.0;
  m["kernel.send_ns"] =
      l.calls(Layer::kSend) > 0 ? static_cast<double>(l.incl_ns(Layer::kSend)) /
                                      static_cast<double>(l.calls(Layer::kSend)) * speed
                                : 0.0;
  m["kernel.send_grant_frac"] = frac(l.excl_ns(Layer::kSend) + l.excl_ns(Layer::kGrant), total);
  m["clock.advance_busy_frac"] = frac(l.excl_ns(Layer::kAdvance), total);
  m["ledger.generator_frac"] = frac(l.excl_ns(Layer::kGen), total);
  m["ledger.recovery_frac"] = frac(l.excl_ns(Layer::kCrash), total);
  m["ledger.residual_frac"] = frac(l.excl_ns(Layer::kNone), total);

  std::array<std::vector<std::uint64_t>, kOpKinds> by_kind;
  for (std::size_t i = 0; i < rep.lat_ns.size(); ++i) by_kind[rep.op_kind[i]].push_back(rep.lat_ns[i]);
  auto p50 = [&](OpKind k) {
    return percentile(by_kind[static_cast<std::size_t>(k)], 0.5) / 1000.0 * speed;
  };
  m["vfs.read_p50_us"] = p50(OpKind::kRead);
  m["vfs.write_p50_us"] = p50(OpKind::kWrite);
  m["vfs.stat_p50_us"] = p50(OpKind::kStat);
  m["vfs.pipe_p50_us"] = p50(OpKind::kPipe);
  m["ds.p50_us"] = p50(OpKind::kDs);
  m["pm.getpid_p50_us"] = p50(OpKind::kGetpid);
  m["pm.fork_p50_us"] = p50(OpKind::kFork);
  return m;
}

/// Per-repetition recovery host times: all faults, and per component.
std::map<std::string, double> recovery_host(const Rep& rep, double speed) {
  std::vector<std::uint64_t> all, pm, vfs, ds;
  for (const auto& [ep, ns] : rep.recovery_ns) {
    all.push_back(ns);
    if (ep == osiris::kernel::kPmEp.value) pm.push_back(ns);
    if (ep == osiris::kernel::kVfsEp.value) vfs.push_back(ns);
    if (ep == osiris::kernel::kDsEp.value) ds.push_back(ns);
  }
  const double us = speed / 1000.0;
  return {{"recovery_p50_us", percentile(all, 0.5) * us},
          {"recovery_p90_us", percentile(all, 0.9) * us},
          {"recovery.pm_p50_us", percentile(pm, 0.5) * us},
          {"recovery.vfs_p50_us", percentile(vfs, 0.5) * us},
          {"recovery.ds_p50_us", percentile(ds, 0.5) * us}};
}

/// Median over repetitions of one key of per-repetition maps.
double median_of(const std::vector<std::map<std::string, double>>& reps, const char* k) {
  std::vector<double> v;
  for (const auto& m : reps) v.push_back(val(m, k));
  return median(v);
}

/// Compare a repetition's deterministic figures against the reference one.
bool same_exact(const Rep& ref, const Rep& rep, std::string* diff) {
  if (ref.fingerprint != rep.fingerprint) {
    *diff = "op-level fingerprint (virtual latencies and statuses)";
    return false;
  }
  for (const auto& [k, v] : ref.exact) {
    const double w = val(rep.exact, k.c_str());
    if (std::memcmp(&v, &w, sizeof v) != 0) {
      *diff = k + ": " + std::to_string(v) + " vs " + std::to_string(w);
      return false;
    }
  }
  return ref.exact.size() == rep.exact.size();
}

void write_spans(const std::string& path, Ledger& l) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "perfbench: cannot write spans to %s\n", path.c_str());
    return;
  }
  static const char* kLayerNames[] = {"none", "dispatch_pending", "advance_to_next", "send",
                                      "grant", "crash_handler", "generator", "system"};
  static const char* kOpNames[] = {"read", "write", "stat", "lseek", "pipe", "ds",
                                   "getpid", "fork", "pm_other", "vfs_other"};
  std::vector<Span>& spans = l.spans();  // in end order; written in start order
  std::sort(spans.begin(), spans.end(),
            [](const Span& a, const Span& b) { return a.start_ns < b.start_ns; });
  const std::uint64_t base = spans.empty() ? 0 : spans.front().start_ns;
  std::fprintf(f, "kind,name,start_ns,dur_ns,target,req\n");
  for (const Span& s : spans) {
    const bool op = s.kind >= 100;
    std::fprintf(f, "%s,%s,%llu,%llu,%d,%llu\n", op ? "op" : "call",
                 op ? kOpNames[s.kind - 100] : kLayerNames[s.kind],
                 static_cast<unsigned long long>(s.start_ns - base),
                 static_cast<unsigned long long>(s.dur_ns), s.target,
                 static_cast<unsigned long long>(s.req));
  }
  std::fclose(f);
}

void emit(bool correct, std::uint64_t attempted, std::uint64_t failed,
          const std::map<std::string, double>& values, const Metric* defs, std::size_t n) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < n; ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ", defs[i].name,
                val(values, defs[i].name), defs[i].unit);
  }
  std::printf("}}\n");
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload serve-hit|serve-miss|proc-faulted --seed N "
               "--seconds S --trace 0|1 [--spans FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage();
    const char* v = argv[++i];
    if (a == "--workload") opt.workload = v;
    else if (a == "--seed") opt.seed = std::strtoull(v, nullptr, 10);
    else if (a == "--seconds") opt.seconds = std::atof(v);
    else if (a == "--trace") opt.trace = std::atoi(v);
    else if (a == "--spans") opt.spans = v;
    else return usage();
  }
  const bool proc = opt.workload == "proc-faulted";
  RunFn run = nullptr;
  if (opt.workload == "serve-hit") run = run_serve_hit;
  else if (opt.workload == "serve-miss") run = run_serve_miss;
  else if (proc) run = run_proc_faulted;
  else return usage();
  if (proc) proc_prepare();
  (void)calibration_seconds();  // first call pays page faults for its buffers

  std::vector<Kind> cycle = {Kind::kPlain};
  if (opt.trace != 0) {
    cycle.push_back(Kind::kTraced);
    if (!proc) cycle.push_back(Kind::kOff);  // ckpt cost is measured fault-free only
  }

  const std::uint64_t t_start = now_ns();
  // Per-repetition host figures (medians are taken over these).
  std::vector<std::map<std::string, double>> plain, traced_host;
  std::vector<double> traced_ops_per_s, off_timed_s;
  double rss_mib = 0.0;
  std::optional<Rep> ref_default, ref_off;  // first repetition of each checkpoint mode
  std::uint64_t attempted = 0, failed = 0;
  std::vector<std::string> errors;
  int cycles = 0;
  std::unique_ptr<Ledger> last_traced;

  for (;;) {
    for (const Kind kind : cycle) {
      RepConfig rc;
      rc.seed = opt.seed;
      rc.ckpt_mode = kind == Kind::kOff ? osiris::ckpt::Mode::kOff : osiris::ckpt::Mode::kWindowOnly;
      auto ledger = std::make_unique<Ledger>(kind == Kind::kTraced);
      const double calib_s = calibration_seconds();
      const double speed = kCalibRefSeconds / calib_s;  // reference seconds per host second
      Rep rep = run(rc, *ledger);
      attempted += rep.attempted;
      failed += rep.failed;
      for (const std::string& e : rep.errors) {
        if (errors.size() < 8) errors.push_back(e);
      }
      if (!rep.errors.empty()) break;

      std::optional<Rep>& ref = kind == Kind::kOff ? ref_off : ref_default;
      std::string diff;
      if (!ref) {
        ref = rep;
      } else if (!same_exact(*ref, rep, &diff)) {
        std::fprintf(stderr, "perfbench: determinism guard: seed %llu repeated differently: %s\n",
                     static_cast<unsigned long long>(opt.seed), diff.c_str());
        return 3;
      }
      switch (kind) {
        case Kind::kPlain: {
          std::map<std::string, double> m = recovery_host(rep, speed);
          const double timed_s = rep.timed_s * speed;
          m["calib_ms"] = calib_s * 1000.0;
          m["setup_s"] = rep.setup_s * speed;
          m["timed_s"] = timed_s;
          m["ops_per_s"] = static_cast<double>(rep.lat_ns.size()) / timed_s;
          m["lat_p50_us"] = percentile(rep.lat_ns, 0.50) / 1000.0 * speed;
          m["lat_p90_us"] = percentile(rep.lat_ns, 0.90) / 1000.0 * speed;
          m["lat_p99_us"] = percentile(rep.lat_ns, 0.99) / 1000.0 * speed;
          m["os.procs_per_s"] = static_cast<double>(rep.procs_created) / timed_s;
          plain.push_back(std::move(m));
          if (plain.size() == 1) {
            // Peak RSS over one fixed repetition, so it does not depend on
            // how many repetitions fit in --seconds.
            rusage ru{};
            getrusage(RUSAGE_SELF, &ru);
            rss_mib = static_cast<double>(ru.ru_maxrss) / 1024.0;
          }
          break;
        }
        case Kind::kOff:
          off_timed_s.push_back(rep.timed_s * speed);
          break;
        case Kind::kTraced: {
          traced_host.push_back(layer_host(*ledger, rep, proc, speed));
          traced_ops_per_s.push_back(static_cast<double>(rep.lat_ns.size()) / (rep.timed_s * speed));
          last_traced = std::move(ledger);
          break;
        }
      }
    }
    if (!errors.empty()) break;
    ++cycles;
    const double elapsed = static_cast<double>(now_ns() - t_start) * 1e-9;
    if ((cycles >= kMinCycles && elapsed >= opt.seconds) || elapsed >= kHardCapSeconds) break;
  }

  if (!errors.empty()) {
    for (const std::string& e : errors) std::fprintf(stderr, "perfbench: check failed: %s\n", e.c_str());
    emit(false, attempted, failed, {}, opt.trace != 0 ? kPerLayer : kEndToEnd,
         opt.trace != 0 ? std::size(kPerLayer) : std::size(kEndToEnd));
    return 1;
  }

  const Rep& ref = *ref_default;
  std::map<std::string, double> out = ref.exact;
  for (const char* k : {"calib_ms", "setup_s", "ops_per_s", "lat_p50_us", "lat_p90_us", "lat_p99_us", "os.procs_per_s",
                        "recovery_p50_us", "recovery_p90_us", "recovery.pm_p50_us",
                        "recovery.vfs_p50_us", "recovery.ds_p50_us"}) {
    out[k] = median_of(plain, k);
  }
  out["rss_peak_mib"] = rss_mib;
  out["op_samples"] = val(ref.exact, "ops");
  out["fault_samples"] = static_cast<double>(ref.recovery_ns.size());

  std::printf("perfbench %s seed=%llu: %d cycles of %zu repetition kind(s), %.1f s\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed), cycles, cycle.size(),
              static_cast<double>(now_ns() - t_start) * 1e-9);
  std::printf("  host times in reference seconds: calibration median %.3f ms, reference %.1f ms\n",
              out["calib_ms"], kCalibRefSeconds * 1000.0);
  std::printf("  %-22s %14s %-8s %-8s %s\n", "metric", "value", "unit", "clock", "samples");
  const std::string ops_n = std::to_string(static_cast<long long>(val(ref.exact, "ops"))) + " ops x " +
                            std::to_string(plain.size()) + " reps";
  const std::string faults_n = std::to_string(ref.recovery_ns.size()) + " faults x " +
                               std::to_string(plain.size()) + " reps";
  const std::string dis_n = std::to_string(static_cast<long long>(val(ref.exact, "disruption.samples"))) +
                            " faults";
  const struct {
    const char* name;
    const char* unit;
    const char* clock;
    std::string samples;
  } table[] = {
      {"setup_s", "s", "host", std::to_string(plain.size()) + " setups"},
      {"ops_per_s", "1/s", "host", ops_n},
      {"lat_p50_us", "us", "host", ops_n},
      {"lat_p90_us", "us", "host", ops_n},
      {"lat_p99_us", "us", "host", ops_n},
      {"vops_per_ktick", "1/ktick", "virtual", ops_n},
      {"vlat_p50_ticks", "ticks", "virtual", ops_n},
      {"vlat_p99_ticks", "ticks", "virtual", ops_n},
      {"fail_frac", "frac", "count", ops_n},
      {"recovery_p50_us", "us", "host", faults_n},
      {"recovery_p90_us", "us", "host", faults_n},
      {"disruption_p50_ticks", "ticks", "virtual", dis_n},
      {"disruption_max_ticks", "ticks", "virtual", dis_n},
      {"rss_peak_mib", "MiB", "host", "1 process"},
  };
  for (const auto& row : table) {
    std::printf("  %-22s %14.6g %-8s %-8s %s\n", row.name, val(out, row.name), row.unit, row.clock,
                row.samples.c_str());
  }

  if (opt.trace == 0) {
    emit(true, attempted, failed, out, kEndToEnd, std::size(kEndToEnd));
    return 0;
  }

  for (const char* k : {"kernel.dispatch_busy_frac", "kernel.dispatch_ns_per_msg", "kernel.send_ns",
                        "kernel.send_grant_frac", "clock.advance_busy_frac", "ledger.generator_frac",
                        "ledger.recovery_frac", "ledger.residual_frac", "vfs.read_p50_us",
                        "vfs.write_p50_us", "vfs.stat_p50_us", "vfs.pipe_p50_us", "ds.p50_us",
                        "pm.getpid_p50_us", "pm.fork_p50_us"}) {
    out[k] = median_of(traced_host, k);
  }
  out["trace_overhead_frac"] = 1.0 - median(traced_ops_per_s) / out["ops_per_s"];
  if (!off_timed_s.empty()) out["ckpt.cost_frac"] = 1.0 - median(off_timed_s) / median_of(plain, "timed_s");

  std::printf("  ledger (traced, share of the timed phase): dispatch %.4f + clock %.4f + send/grant "
              "%.4f + generator %.4f + recovery %.4f + residual %.4f\n",
              out["kernel.dispatch_busy_frac"], out["clock.advance_busy_frac"],
              out["kernel.send_grant_frac"], out["ledger.generator_frac"], out["ledger.recovery_frac"],
              out["ledger.residual_frac"]);
  if (!opt.spans.empty() && last_traced) write_spans(opt.spans, *last_traced);
  const bool closes = out["ledger.residual_frac"] <= kLedgerTolerance;
  if (!closes) {
    std::fprintf(stderr, "perfbench: ledger does not close: residual %.4f > tolerance %.2f\n",
                 out["ledger.residual_frac"], kLedgerTolerance);
  }
  emit(closes, attempted, failed, out, kPerLayer, std::size(kPerLayer));
  return closes ? 0 : 1;
}
