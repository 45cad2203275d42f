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
#include "kernel/kernel.hpp"
#include "os/instance.hpp"
#include "support/clock.hpp"
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

/// One suite run on a default machine, whose recovery brings the health
/// monitor with it, with a storm optionally armed — the same shape as a
/// workload::run_storm_plan run, but exposing the raw stats.
StormRun run_storm_scenario(const workload::StormInjection& s) {
  fi::Registry& reg = fi::Registry::instance();
  reg.disarm();
  reg.reset_counts();

  os::OsConfig cfg;
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
//
// These run the production constants (kernel/health.hpp): 64-delivery
// quanta, EWMA shift 2, fever threshold 24, onset after 2 hot quanta,
// escalation after 4, a throttle allowance of 2, idle above 1000 ticks.

namespace {

/// Fill and close one quantum with `charges` charged deliveries to `ep`.
kernel::QuantumResult quantum(kernel::HealthMonitor& h, std::int32_t ep, std::uint32_t charges,
                              std::uint64_t now) {
  for (std::uint32_t i = 0; i < kernel::kQuantumDispatches; ++i) h.note_delivery();
  for (std::uint32_t i = 0; i < charges; ++i) h.charge(ep);
  EXPECT_TRUE(h.quantum_due());
  return h.close_quantum(now);
}

constexpr std::uint32_t kAll = kernel::kQuantumDispatches;  // every delivery charged

/// A server whose every delivery is non-useful: no reply, no window.
class SilentServer : public kernel::IServer {
 public:
  [[nodiscard]] std::string_view name() const override { return "silent"; }
  std::optional<kernel::Message> dispatch(const kernel::Message&) override { return {}; }
};

class NullClient : public kernel::IClient {
 public:
  void on_reply(const kernel::Message&) override {}
  void on_notify(const kernel::Message&) override {}
};

}  // namespace

TEST(HealthMonitor, DisabledMonitorNeverSamples) {
  // The kernel's monitor is disabled until a storm handler is installed
  // (OsInstance installs one iff recovery is on). Until then a client's
  // stream of non-useful deliveries charges nothing and never fills a
  // quantum; installing a handler switches the same stream on.
  VirtualClock clock;
  kernel::Kernel kern{clock};
  SilentServer server;
  NullClient client;
  kern.register_server(kernel::kPmEp, &server);
  const kernel::Endpoint client_ep = kern.register_client(&client);
  const auto stream = [&] {
    for (int i = 0; i < 1000; ++i) kern.send(client_ep, kernel::kPmEp, kernel::make_msg(0x42));
    kern.dispatch_pending();
  };

  stream();
  EXPECT_EQ(kern.stats().server_dispatches, 1000u);
  EXPECT_EQ(kern.stats().health_charges, 0u);
  EXPECT_EQ(kern.health().tracked(), 0u);
  EXPECT_FALSE(kern.health().quantum_due());

  int fevers = 0;
  kern.set_storm_handler([&](kernel::Endpoint ep) {
    EXPECT_EQ(ep.value, client_ep.value);
    ++fevers;
  });
  stream();
  EXPECT_EQ(kern.stats().health_charges, 1000u);
  EXPECT_EQ(kern.health().tracked(), 1u);
  EXPECT_EQ(fevers, 1);
}

TEST(HealthMonitor, SustainedChargesCrossThresholdAfterOnsetQuanta) {
  kernel::HealthMonitor h;
  // Every delivery charged, shift 2: ewma 16, then 28 (hot), then 37 (hot).
  EXPECT_TRUE(quantum(h, 7, kAll, 10).fevers.empty());  // ewma 16: not hot yet
  EXPECT_EQ(h.ewma(7), 16);
  EXPECT_TRUE(quantum(h, 7, kAll, 20).fevers.empty());  // ewma 28: hot #1 of 2
  const kernel::QuantumResult r = quantum(h, 7, kAll, 30);  // hot #2 -> onset
  ASSERT_EQ(r.fevers.size(), 1u);
  EXPECT_EQ(r.fevers[0].endpoint, 7);
  EXPECT_EQ(r.fevers[0].ewma, 37);
  EXPECT_FALSE(r.fevers[0].escalation);
  EXPECT_TRUE(h.fevered(7));
  // The onset is an edge, not a level: staying hot does not re-fire it.
  EXPECT_TRUE(quantum(h, 7, kAll, 40).fevers.empty());
}

TEST(HealthMonitor, SingleBurstQuantumIsNotAFever) {
  kernel::HealthMonitor h;
  // Two dense quanta (ewma 16, then 28: one hot quantum, short of the
  // onset), then quiet: the EWMA spike decays without an onset.
  EXPECT_TRUE(quantum(h, 4, kAll, 10).fevers.empty());
  EXPECT_TRUE(quantum(h, 4, kAll, 20).fevers.empty());
  EXPECT_GT(h.ewma(4), kernel::kFeverThreshold);
  for (int q = 0; q < 16; ++q) EXPECT_TRUE(quantum(h, 4, 0, 30 + q).fevers.empty());
  EXPECT_EQ(h.ewma(4), 0);
  EXPECT_FALSE(h.fevered(4));
}

TEST(HealthMonitor, IdleQuantaDecayInsteadOfCharging) {
  kernel::HealthMonitor h;
  // Quanta spanning > kIdleQuantumTicks are heartbeat-paced idle: even
  // wall-to-wall charged traffic (pings/pongs open no windows) must decay.
  // The first quantum has no predecessor, so it samples (ewma 16).
  std::uint64_t now = 10;
  for (int q = 0; q < 10; ++q) {
    now += kernel::kIdleQuantumTicks + 500;
    EXPECT_TRUE(quantum(h, 5, kAll, now).fevers.empty()) << "idle quantum " << q;
  }
  EXPECT_EQ(h.ewma(5), 0);
}

TEST(HealthMonitor, ThrottleAllowanceAndEscalation) {
  kernel::HealthMonitor h;
  EXPECT_TRUE(h.admit(9));  // unthrottled: always admitted
  h.set_throttled(9, true);
  EXPECT_TRUE(h.is_throttled(9));
  for (std::uint32_t i = 0; i < kernel::kThrottleAllowance; ++i) EXPECT_TRUE(h.admit(9));
  EXPECT_FALSE(h.admit(9));  // past the allowance: caller drops
  EXPECT_TRUE(h.admit(8)) << "a throttle gates only its own endpoint";
  // Hot under throttle for 4 quanta (ewma 28, 37, 43, 48) -> escalation.
  EXPECT_TRUE(quantum(h, 9, kAll, 10).fevers.empty());  // ewma 16: not hot
  for (std::uint32_t q = 1; q < kernel::kEscalateQuanta; ++q) {
    EXPECT_TRUE(quantum(h, 9, kAll, 10 + 10 * q).fevers.empty()) << "throttled-hot #" << q;
  }
  const kernel::QuantumResult r = quantum(h, 9, kAll, 100);
  ASSERT_EQ(r.fevers.size(), 1u);
  EXPECT_TRUE(r.fevers[0].escalation);
  // close_quantum resets the allowance each quantum.
  EXPECT_TRUE(h.admit(9));
  h.set_throttled(9, false);
  EXPECT_FALSE(h.is_throttled(9));
  for (std::uint32_t i = 0; i <= kernel::kThrottleAllowance; ++i) EXPECT_TRUE(h.admit(9));
}

TEST(HealthMonitor, StarvationFlagsQuantaDominatedByCharges) {
  kernel::HealthMonitor h;
  EXPECT_FALSE(quantum(h, 3, kAll / 2, 10).starved);  // exactly half: not strictly >
  EXPECT_TRUE(quantum(h, 3, kAll / 2 + 1, 20).starved);
}

// --- full-system scenarios ------------------------------------------------

TEST(Storm, HandlerSpinMasksHeartbeatsButNotTheMonitor) {
  // A spinning handler still answers every heartbeat ping, so the hang
  // sweep stays silent — zero hangs — while the physiological monitor flags
  // the same component as feverish and the ladder's storm rung engages. The
  // machine is a default OsConfig with no health setting anywhere: the
  // monitor comes with recovery.
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

  EXPECT_GT(r.ks.health_charges, 0u) << "the monitor never sampled";
  EXPECT_EQ(r.ks.fever_onsets, 0u) << "health monitor cried wolf on a clean run";
  EXPECT_EQ(r.es.storm_throttles, 0u);
  EXPECT_EQ(r.es.storm_quarantines, 0u);
  EXPECT_EQ(r.ks.throttled_drops, 0u);
  EXPECT_EQ(r.outcome, os::OsInstance::Outcome::kCompleted);
  EXPECT_EQ(r.failed, 0);
}

TEST(Storm, RecoveryOffMachineNeverSamples) {
  // The monitor is part of recovery: a machine without it (the Table IV/V
  // pure-performance baselines) installs no storm handler, so the kernel
  // neither samples nor charges, and its suite run is the pre-monitor one.
  fi::Registry& reg = fi::Registry::instance();
  reg.disarm();
  reg.reset_counts();
  os::OsConfig cfg;
  cfg.recovery_enabled = false;
  os::OsInstance inst(cfg);
  workload::register_suite_programs(inst.programs());
  inst.boot();
  const workload::SuiteResult suite = workload::run_suite(inst);

  EXPECT_EQ(inst.kern().stats().health_charges, 0u);
  EXPECT_EQ(inst.kern().stats().fever_onsets, 0u);
  EXPECT_EQ(inst.kern().stats().throttled_drops, 0u);
  EXPECT_EQ(inst.kern().health().tracked(), 0u);
  EXPECT_EQ(suite.outcome, os::OsInstance::Outcome::kCompleted);
  EXPECT_EQ(suite.failed, 0);
}

TEST(Storm, MonitorTracksLiveEndpointsOnly) {
  // Every charged sender gets a health record; an exiting client's must go
  // with it, or the map (and each close_quantum sweep over it) grows by one
  // entry per process ever run. Without recovery windows (the naive policy)
  // a deferred wait_pid reply leaves the request's delivery charged to the
  // waiting client, so each child below, which waits on a grandchild, is
  // charged. Sampled after each reap, when the only live client is init
  // itself, the tracked count may cover at most the servers plus init, and
  // must not drift across a thousand rounds.
  fi::Registry& reg = fi::Registry::instance();
  reg.disarm();
  reg.reset_counts();
  os::OsConfig cfg;
  cfg.policy = seep::Policy::kNaive;
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
      const std::int64_t pid = sys.fork([](os::ISys& child) {
        const std::int64_t grandchild = child.fork([](os::ISys& g) {
          for (int i = 0; i < 3; ++i) (void)g.getpid();  // outlive the parent's wait_pid
          g.exit(0);
        });
        std::int64_t status = -1;
        child.exit(child.wait_pid(grandchild, &status) == grandchild && status == 0 ? 0 : 1);
      });
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
