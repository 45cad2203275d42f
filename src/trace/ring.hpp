// Fixed-capacity per-component event ring (flight-recorder semantics).
//
// push() never allocates past the configured capacity: once full, the oldest
// record is overwritten and the drop counter advances, so tracing cost is
// bounded no matter how long the simulation runs. Silent truncation is
// forbidden by design — core::collect_metrics copies dropped() and
// high_water() into each server's metrics row, so SystemMetrics::report()
// shows exactly what the ring held and what it lost. A zero-capacity ring is
// a valid "attached but recording nothing" configuration: every push is
// counted as dropped.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "trace/event.hpp"

namespace osiris::trace {

class EventRing {
 public:
  explicit EventRing(std::size_t capacity) : cap_(capacity) {}

  /// Append one event, overwriting the oldest when the ring is full.
  void push(const Event& e) {
    if (cap_ == 0) {
      ++dropped_;
      return;
    }
    if (buf_.size() < cap_) {
      buf_.push_back(e);
      if (buf_.size() > high_water_) high_water_ = buf_.size();
      return;
    }
    buf_[head_] = e;  // overwrite the oldest record
    if (++head_ == cap_) head_ = 0;  // conditional wrap: no division on the hot path
    ++dropped_;
  }

  [[nodiscard]] std::size_t size() const noexcept { return buf_.size(); }
  [[nodiscard]] std::size_t capacity() const noexcept { return cap_; }
  [[nodiscard]] bool empty() const noexcept { return buf_.empty(); }

  /// Events overwritten (or rejected by a zero-capacity ring) so far.
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }

  /// Most events the ring ever held at once (ring memory = this * sizeof(Event)).
  [[nodiscard]] std::size_t high_water() const noexcept { return high_water_; }

  /// Copy the retained records out in emission order (oldest first).
  void snapshot(std::vector<Event>& out) const {
    for (std::size_t i = 0; i < buf_.size(); ++i) {
      out.push_back(buf_[(head_ + i) % buf_.size()]);
    }
  }

  /// Forget all retained records (drop and high-water accounting persists).
  void clear() noexcept {
    buf_.clear();
    head_ = 0;
  }

 private:
  std::size_t cap_;
  std::vector<Event> buf_;   // grows lazily up to cap_, then wraps
  std::size_t head_ = 0;     // index of the oldest record once wrapped
  std::uint64_t dropped_ = 0;
  std::size_t high_water_ = 0;
};

}  // namespace osiris::trace
