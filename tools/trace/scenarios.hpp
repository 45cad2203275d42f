// The traced fault scenarios: one table that osiris-trace exports and the
// golden-trace tests pin.
//
// A row holds everything that defines its run: a config tweak, the probe tag
// and body of the profiling run that picks the site to arm (the tag's
// busiest probe), the arming, and the traced run's body. A fault-free row
// has no tag and no arming.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <string_view>

#include "fi/registry.hpp"
#include "os/instance.hpp"

namespace osiris::scenarios {

struct Scenario {
  const char* name;
  const char* summary;                          // one line of osiris-trace's usage
  void (*tweak)(os::OsConfig&);                 // nullptr: the default machine
  const char* tag;                              // nullptr: a fault-free row
  void (*profile)(os::ISys&);                   // the profiling run's body
  void (*arm)(fi::Registry&, const fi::Site*);  // arms the profiled site
  void (*body)(os::ISys&);                      // the traced run's body
};

/// Every row, in the order osiris-trace lists them.
std::span<const Scenario> all();

/// The row called `name`, or nullptr.
const Scenario* find(std::string_view name);

struct Run {
  std::unique_ptr<os::OsInstance> inst;  // the finished machine, tracer included
  os::OsInstance::Outcome outcome = os::OsInstance::Outcome::kCompleted;
  const fi::Site* site = nullptr;        // the armed probe; nullptr for a fault-free row
};

/// Ring capacity, in events, that keeps a whole scenario: offline tools and
/// the goldens want full retention, not the cache-sized in-sim default.
inline constexpr std::size_t kFullRetention = 1u << 16;

/// Profile the row's busiest probe, then boot a traced machine (rings of
/// `ring_capacity` events, the row's tweak applied), arm the probe and run
/// the body. Throws std::runtime_error when the profiling run reached no
/// probe of the row's tag.
Run run(const Scenario& s, std::size_t ring_capacity = kFullRetention);

}  // namespace osiris::scenarios
