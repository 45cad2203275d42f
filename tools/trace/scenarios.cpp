#include "scenarios.hpp"

#include <stdexcept>
#include <string>

#include "servers/protocol.hpp"
#include "workload/campaign.hpp"
#include "workload/suite.hpp"

namespace osiris::scenarios {

namespace {

using fi::FaultType;
using os::ISys;

// The profiling bodies: 30 requests make the busiest probe of PM or DS its
// request-loop entry.
void getpids(ISys& sys) {
  for (int i = 0; i < 30; ++i) sys.getpid();
}

void publishes(ISys& sys) {
  for (int i = 0; i < 30; ++i) sys.ds_publish("g.key", 1);
}

template <int N>
void publish_values(ISys& sys) {
  for (int i = 0; i < N; ++i) sys.ds_publish("g.key", static_cast<std::uint64_t>(i));
}

void persistent_crash(fi::Registry& reg, const fi::Site* site) {
  reg.arm_persistent(site, FaultType::kNullDeref, 2);
}

const Scenario kScenarios[] = {
    {"transient", "one in-window PM crash, rolled back and error-virtualized", nullptr, "pm",
     getpids,
     [](fi::Registry& reg, const fi::Site* site) { reg.arm(site, FaultType::kNullDeref, 15); },
     [](ISys& sys) {
       for (int i = 0; i < 30; ++i) sys.setuid(0);
     }},
    {"stateless", "one DS crash under the stateless policy: a plain microreboot",
     [](os::OsConfig& cfg) { cfg.policy = seep::Policy::kStateless; }, "ds", publishes,
     [](fi::Registry& reg, const fi::Site* site) { reg.arm(site, FaultType::kNullDeref, 2); },
     publish_values<20>},
    {"ladder", "persistent DS bug crash-looping into quarantine and back",
     [](os::OsConfig& cfg) {
       cfg.quarantine_cooldown_ticks = 400;  // short: the readmission shows up too
     },
     "ds", publishes, persistent_crash, publish_values<200>},
    {"budget", "persistent DS bug under a one-recovery budget: straight to quarantine",
     [](os::OsConfig& cfg) {
       cfg.max_recoveries = 1;  // one free recovery, then the budget is gone
       cfg.quarantine_cooldown_ticks = 100000;  // parked to the end
     },
     "ds", publishes, persistent_crash, publish_values<60>},
    {"hang", "injected DS hang caught by RS heartbeats",
     [](os::OsConfig& cfg) {
       cfg.heartbeat_interval = 50;  // fast sweeps: the hang is caught mid-run
     },
     "ds", publishes,
     [](fi::Registry& reg, const fi::Site* site) { reg.arm(site, FaultType::kHang, 5); },
     publish_values<30>},
    {"storm", "DS handler-spin storm caught by the health monitor (fever, throttle, quarantine)",
     nullptr, "ds", publishes,
     [](fi::Registry& reg, const fi::Site* site) {
       reg.set_storm_plan(/*victim=*/-1, /*burst=*/4);
       reg.arm_persistent(site, FaultType::kHandlerSpin, 10);
     },
     publish_values<200>},
    {"ipc", "fault-free file, PM and DS calls", nullptr, nullptr, nullptr, nullptr,
     [](ISys& sys) {
       const std::int64_t fd = sys.open("/tmp/gold", servers::O_CREAT | servers::O_RDWR);
       sys.write_str(fd, "x");
       sys.close(fd);
       (void)sys.getpid();
       sys.ds_publish("g.key", 7);
     }},
};

}  // namespace

std::span<const Scenario> all() { return kScenarios; }

const Scenario* find(std::string_view name) {
  for (const Scenario& s : kScenarios) {
    if (name == s.name) return &s;
  }
  return nullptr;
}

Run run(const Scenario& s, std::size_t ring_capacity) {
  Run r;
  if (s.tag != nullptr) {
    r.site = workload::busiest_site(s.tag, s.profile);
    if (r.site == nullptr) {
      throw std::runtime_error(std::string("no probe site found for scenario ") + s.name);
    }
  }
  os::OsConfig cfg;
  cfg.trace_enabled = true;
  cfg.trace_ring_capacity = ring_capacity;
  if (s.tweak != nullptr) s.tweak(cfg);
  r.inst = std::make_unique<os::OsInstance>(cfg);
  workload::register_suite_programs(r.inst->programs());
  r.inst->boot();
  if (r.site != nullptr) s.arm(fi::Registry::instance(), r.site);
  r.outcome = r.inst->run(s.body);
  return r;
}

}  // namespace osiris::scenarios
