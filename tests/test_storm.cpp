// Liveness faults vs the physiological health monitor (DESIGN.md §15).
//
// Storm faults (handler spin, channel flood) are invisible to crash and
// heartbeat detection by construction: the component stays live and keeps
// answering pings while it burns dispatches or floods a peer. These tests
// pin the whole detection pipeline — charge attribution, EWMA fever,
// throttle, quarantine + fault disarm, readmission — plus the properties
// that keep it honest: zero false positives on clean load, and heartbeat
// truthfulness under an active throttle.
#include <gtest/gtest.h>

#include <string_view>
#include <vector>

#include "kernel/health.hpp"
#include "os/instance.hpp"
#include "workload/campaign.hpp"
#include "workload/suite.hpp"

using namespace osiris;

namespace {

/// The plan_storm() entry for `type` whose site lives in subsystem `tag`
/// (every subsystem gets one spin and one flood entry).
workload::StormInjection storm_entry(fi::FaultType type, std::string_view tag) {
  for (const workload::StormInjection& s : workload::plan_storm()) {
    if (s.site != nullptr && s.type == type && std::string_view(s.site->tag) == tag) return s;
  }
  ADD_FAILURE() << "no " << fi::fault_name(type) << " entry for tag " << tag;
  return {};
}

struct StormRun {
  os::OsInstance::Outcome outcome = os::OsInstance::Outcome::kCompleted;
  int failed = 0;
  bool driver_completed = false;
  kernel::KernelStats ks;
  recovery::EngineStats es;
  bool armed_after_suite = false;  // storm fault still armed when the suite ended
};

/// One suite run with the health monitor on and (optionally) a storm armed —
/// the same shape as workload::run_one_storm, but exposing the raw stats.
StormRun run_storm_scenario(const workload::StormInjection& s) {
  fi::Registry& reg = fi::Registry::instance();
  reg.disarm();
  reg.reset_counts();

  os::OsConfig cfg;
  cfg.health.enabled = true;
  os::OsInstance inst(cfg);
  workload::register_suite_programs(inst.programs());
  inst.boot();
  if (s.site != nullptr) {
    reg.set_storm_plan(s.victim, s.burst);
    reg.arm_persistent(s.site, s.type, s.trigger_hit);
  }
  const workload::SuiteResult suite = workload::run_suite(inst);

  // The suite driver exits the moment init finishes, which is routinely
  // before the storm rung's readmission cooldown expires. Drain the clock
  // program (bounded by a tick horizon — heartbeat sweeps reschedule
  // forever) so a pending readmission gets to run before we sample stats.
  if (inst.engine().stats().storm_quarantines > 0) {
    const std::uint64_t horizon = inst.clock().now() + 20000;
    while (inst.clock().now() < horizon && inst.engine().stats().readmissions == 0 &&
           inst.clock().advance_to_next()) {
      inst.kern().dispatch_pending();
    }
  }

  StormRun r;
  r.outcome = suite.outcome;
  r.failed = suite.failed;
  r.driver_completed = suite.driver_completed;
  r.ks = inst.kern().stats();
  r.es = inst.engine().stats();
  r.armed_after_suite = reg.armed();
  reg.disarm();
  return r;
}

}  // namespace

// --- HealthMonitor unit level ---------------------------------------------

namespace {

kernel::HealthConfig tiny_config() {
  kernel::HealthConfig c;
  c.enabled = true;
  c.quantum_dispatches = 8;
  c.ewma_shift = 1;       // fast fold: ewma += (sample - ewma) / 2
  c.fever_threshold = 3;
  c.onset_quanta = 2;
  c.escalate_quanta = 2;
  c.throttle_allowance = 1;
  c.idle_quantum_ticks = 100;
  return c;
}

/// Fill and close one quantum with `charges` charged deliveries to `ep`.
kernel::QuantumResult quantum(kernel::HealthMonitor& h, std::int32_t ep, int charges,
                              std::uint64_t now) {
  for (std::uint32_t i = 0; i < h.config().quantum_dispatches; ++i) h.note_delivery();
  for (int i = 0; i < charges; ++i) h.charge(ep);
  EXPECT_TRUE(h.quantum_due());
  return h.close_quantum(now);
}

}  // namespace

TEST(HealthMonitor, DisabledMonitorNeverSamples) {
  kernel::HealthMonitor h;  // default config: enabled = false
  for (int i = 0; i < 1000; ++i) h.note_delivery();
  EXPECT_FALSE(h.quantum_due());
}

TEST(HealthMonitor, SustainedChargesCrossThresholdAfterOnsetQuanta) {
  kernel::HealthMonitor h;
  h.configure(tiny_config());
  // Sample 6 > threshold 3, shift 1: ewma 3, then 4 (hot), then 5 (hot).
  EXPECT_TRUE(quantum(h, 7, 6, 10).fevers.empty());   // ewma 3: not hot yet
  EXPECT_TRUE(quantum(h, 7, 6, 20).fevers.empty());   // ewma 4: hot #1 of 2
  const kernel::QuantumResult r = quantum(h, 7, 6, 30);  // hot #2 -> onset
  ASSERT_EQ(r.fevers.size(), 1u);
  EXPECT_EQ(r.fevers[0].endpoint, 7);
  EXPECT_FALSE(r.fevers[0].escalation);
  EXPECT_TRUE(h.fevered(7));
  // The onset is an edge, not a level: staying hot does not re-fire it.
  EXPECT_TRUE(quantum(h, 7, 6, 40).fevers.empty());
}

TEST(HealthMonitor, SingleBurstQuantumIsNotAFever) {
  kernel::HealthMonitor h;
  h.configure(tiny_config());
  // One dense quantum, then quiet: the EWMA spike decays without an onset.
  EXPECT_TRUE(quantum(h, 4, 8, 10).fevers.empty());
  for (int q = 0; q < 8; ++q) EXPECT_TRUE(quantum(h, 4, 0, 20 + q).fevers.empty());
  EXPECT_EQ(h.ewma(4), 0);
  EXPECT_FALSE(h.fevered(4));
}

TEST(HealthMonitor, IdleQuantaDecayInsteadOfCharging) {
  kernel::HealthMonitor h;
  h.configure(tiny_config());
  // Quanta spanning > idle_quantum_ticks are heartbeat-paced idle: even
  // wall-to-wall charged traffic (pings/pongs open no windows) must decay.
  std::uint64_t now = 10;
  for (int q = 0; q < 10; ++q) {
    now += 500;  // 500 > idle_quantum_ticks (100): idle quantum
    EXPECT_TRUE(quantum(h, 5, 8, now).fevers.empty()) << "idle quantum " << q;
  }
  EXPECT_EQ(h.ewma(5), 0);
}

TEST(HealthMonitor, ThrottleAllowanceAndEscalation) {
  kernel::HealthMonitor h;
  h.configure(tiny_config());
  EXPECT_TRUE(h.admit(9));  // unthrottled: always admitted
  h.set_throttled(9, true);
  EXPECT_TRUE(h.is_throttled(9));
  EXPECT_TRUE(h.admit(9));   // allowance = 1
  EXPECT_FALSE(h.admit(9));  // past the allowance: caller drops
  // Hot under throttle for escalate_quanta (2) quanta -> escalation event.
  EXPECT_TRUE(quantum(h, 9, 6, 10).fevers.empty());  // ewma 3: not hot
  EXPECT_TRUE(quantum(h, 9, 6, 20).fevers.empty());  // ewma 4: throttled-hot #1
  const kernel::QuantumResult r = quantum(h, 9, 6, 30);  // throttled-hot #2
  ASSERT_EQ(r.fevers.size(), 1u);
  EXPECT_TRUE(r.fevers[0].escalation);
  // close_quantum resets the allowance each quantum.
  EXPECT_TRUE(h.admit(9));
  h.set_throttled(9, false);
  EXPECT_FALSE(h.is_throttled(9));
}

TEST(HealthMonitor, StarvationFlagsQuantaDominatedByCharges) {
  kernel::HealthMonitor h;
  h.configure(tiny_config());
  EXPECT_FALSE(quantum(h, 3, 4, 10).starved);  // 4*2 == 8: not strictly >
  EXPECT_TRUE(quantum(h, 3, 5, 20).starved);
}

// --- full-system scenarios ------------------------------------------------

TEST(Storm, HandlerSpinMasksHeartbeatsButNotTheMonitor) {
  // The satellite regression: a spinning handler still answers every
  // heartbeat ping, so the hang sweep stays silent — zero hangs — while the
  // physiological monitor flags the same component as feverish and the
  // ladder's storm rung engages.
  const workload::StormInjection spin = storm_entry(fi::FaultType::kHandlerSpin, "pm");
  ASSERT_NE(spin.site, nullptr);
  const StormRun r = run_storm_scenario(spin);

  EXPECT_EQ(r.ks.hangs, 0u) << "spin storms must be invisible to hang detection";
  EXPECT_EQ(r.ks.crashes, 0u) << "spin storms must be invisible to crash detection";
  EXPECT_GT(r.ks.fever_onsets, 0u);
  EXPECT_GT(r.ks.health_charges, 0u);
  EXPECT_GE(r.es.storm_throttles, 1u);
  EXPECT_TRUE(r.es.storm_detected);
}

TEST(Storm, QuarantineDisarmsStormAndReadmitsClean) {
  // Throttle-then-quarantine must *end* an infinite re-firing fault: the
  // quarantine disarms it, so the flood pump stops and the readmitted
  // component comes back healthy. The ds flood is the canonical instance —
  // it escalates past the throttle and the suite still completes.
  const workload::StormInjection flood = storm_entry(fi::FaultType::kChannelFlood, "ds");
  ASSERT_NE(flood.site, nullptr);
  const StormRun r = run_storm_scenario(flood);

  EXPECT_GE(r.es.storm_throttles, 1u);
  EXPECT_GE(r.es.storm_quarantines, 1u);
  EXPECT_EQ(r.es.storm_disarms, 1u);
  EXPECT_FALSE(r.armed_after_suite) << "quarantine left the storm fault armed";
  EXPECT_GE(r.es.readmissions, 1u) << "quarantined component was never readmitted";
  EXPECT_EQ(r.outcome, os::OsInstance::Outcome::kCompleted);
  EXPECT_TRUE(r.driver_completed);
}

TEST(Storm, FloodDetectionLatencyIsBounded) {
  // Channel floods are clock-pumped, so their detection latency is measured
  // in real virtual time. The bound is deliberately loose (a handful of
  // fever quanta at pump pace); the bench reports the exact number.
  const workload::StormInjection flood = storm_entry(fi::FaultType::kChannelFlood, "vm");
  ASSERT_NE(flood.site, nullptr);
  const StormRun r = run_storm_scenario(flood);

  ASSERT_TRUE(r.es.storm_detected);
  EXPECT_LE(r.es.detection_latency_ticks, 1000u)
      << "flood ran for over 1000 ticks before the throttle engaged";
}

TEST(Storm, CleanSuiteProducesZeroFalsePositives) {
  // Monitor on, nothing armed: the legitimate suite — including its bulk
  // I/O bursts and idle heartbeat-only stretches — must never read as a
  // fever. This is the property the EWMA threshold and the idle-quantum
  // decay rule exist to uphold.
  const StormRun r = run_storm_scenario(workload::StormInjection{});

  EXPECT_EQ(r.ks.fever_onsets, 0u) << "health monitor cried wolf on a clean run";
  EXPECT_EQ(r.es.storm_throttles, 0u);
  EXPECT_EQ(r.es.storm_quarantines, 0u);
  EXPECT_EQ(r.ks.throttled_drops, 0u);
  EXPECT_EQ(r.outcome, os::OsInstance::Outcome::kCompleted);
  EXPECT_EQ(r.failed, 0);
}

TEST(Storm, HealthMonitoringOffIsFreeAndSilent) {
  // The default configuration must be bit-identical to the pre-storm world:
  // no charges, no onsets, no drops, suite green.
  fi::Registry& reg = fi::Registry::instance();
  reg.disarm();
  reg.reset_counts();
  os::OsConfig cfg;  // health.enabled defaults to false
  os::OsInstance inst(cfg);
  workload::register_suite_programs(inst.programs());
  inst.boot();
  const workload::SuiteResult suite = workload::run_suite(inst);

  EXPECT_EQ(inst.kern().stats().health_charges, 0u);
  EXPECT_EQ(inst.kern().stats().fever_onsets, 0u);
  EXPECT_EQ(inst.kern().stats().throttled_drops, 0u);
  EXPECT_EQ(suite.outcome, os::OsInstance::Outcome::kCompleted);
  EXPECT_EQ(suite.failed, 0);
}

TEST(Storm, MonitorTracksLiveEndpointsOnly) {
  // Every sender gets a health record; an exiting client's must go with it,
  // or the map (and each close_quantum sweep over it) grows by one entry per
  // process ever run. Sampled after each reap, when the only live client is
  // init itself, the tracked count may cover at most the servers plus init,
  // and must not drift across a thousand fork+exit rounds.
  fi::Registry& reg = fi::Registry::instance();
  reg.disarm();
  reg.reset_counts();
  os::OsConfig cfg;
  cfg.health.enabled = true;
  os::OsInstance inst(cfg);
  workload::register_suite_programs(inst.programs());
  inst.boot();
  std::size_t live = 1;  // init
  for (std::int32_t ep = 0; ep < kernel::kFirstUserEndpoint; ++ep) {
    if (inst.kern().is_server(kernel::Endpoint{ep})) ++live;
  }
  std::vector<std::size_t> tracked;
  const auto outcome = inst.run([&](os::ISys& sys) {
    for (int round = 1; round <= 1000; ++round) {
      const std::int64_t pid =
          sys.fork([](os::ISys& child) { child.exit(child.getpid() > 0 ? 0 : 1); });
      std::int64_t status = -1;
      if (sys.wait_pid(pid, &status) != pid || status != 0) sys.exit(1);
      if (round % 250 == 0) tracked.push_back(inst.kern().health().tracked());
    }
  });
  EXPECT_EQ(outcome, os::OsInstance::Outcome::kCompleted);
  ASSERT_EQ(tracked.size(), 4u);
  for (const std::size_t n : tracked) {
    EXPECT_GT(n, 0u);
    EXPECT_LE(n, live);
    EXPECT_EQ(n, tracked.front());
  }
  EXPECT_EQ(inst.kern().stats().fever_onsets, 0u);
}

TEST(Storm, StormFaultsRideTheRegularArmingApi) {
  // Satellite: storm faults arm through the same arm_persistent used by the
  // recurring campaigns, and disarm_storms_for only clears *storm* faults
  // owned by the quarantined endpoint — a persistent crash fault survives.
  // Sites register lazily on first probe execution, so pull one out of the
  // storm plan (whose profiling pass boots and runs the suite) rather than
  // assuming an earlier test already populated the directory.
  const fi::Site* site = storm_entry(fi::FaultType::kHandlerSpin, "pm").site;
  ASSERT_NE(site, nullptr);
  fi::Registry& reg = fi::Registry::instance();
  reg.disarm();
  reg.reset_counts();

  reg.arm_persistent(site, fi::FaultType::kNullDeref, 1);
  EXPECT_FALSE(reg.disarm_storms_for(/*endpoint=*/3)) << "crash faults are not storms";
  EXPECT_TRUE(reg.armed());
  reg.disarm();

  reg.set_storm_plan(/*victim=*/4, /*burst=*/8);
  reg.arm_persistent(site, fi::FaultType::kHandlerSpin, 1);
  EXPECT_TRUE(reg.armed());
  // No owner yet (the probe has not fired): disarm misses...
  EXPECT_FALSE(reg.disarm_storms_for(/*endpoint=*/3));
  EXPECT_TRUE(reg.armed());
  reg.disarm();
  EXPECT_FALSE(reg.armed());
}
