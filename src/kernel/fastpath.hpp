// Fast-path configuration for the IPC substrate (DESIGN.md §14).
//
// Two independent queue/dispatch optimizations, each behind its own flag so
// the serving benchmark can report before/after columns and the golden-trace
// tests can pin observational equivalence per flag:
//
//   - arena_queue: back the kernel message queue with a fixed-capacity ring
//     so steady-state enqueue/dispatch does zero heap allocation. Bursts
//     beyond the ring spill to a deque overflow (FIFO order preserved) and
//     are counted, so backpressure is visible instead of silent.
//
//   - batching: coalesce consecutive front-of-queue messages to the same
//     server endpoint into one dispatch batch. Delivery order is exactly the
//     unbatched FIFO order; the win is one slot lookup per batch plus one
//     physical checkpoint per batch — the msg_spec SEEP class table decides
//     eligibility declaratively (NSM requests leave the undo log clean, so
//     every window open after the first finds nothing to truncate).
//
// Whatever the flags, VFS moves every file payload through a kernel-checked
// grant span (Kernel::grant_span).
#pragma once

#include <cstddef>
#include <cstdint>

namespace osiris::kernel {

struct FastPath {
  bool arena_queue = false;
  bool batching = false;

  /// Ring slots for the arena queue; beyond this, sends spill to the heap.
  std::size_t ring_capacity = 1024;

  /// Cap on one dispatch batch, so a flood to one endpoint cannot starve
  /// per-iteration bookkeeping (histogram buckets sized to match).
  std::size_t max_batch = 16;

  [[nodiscard]] static FastPath all_on() {
    FastPath f;
    f.arena_queue = true;
    f.batching = true;
    return f;
  }
};

/// Batch eligibility is decided by the declarative msg_spec class table
/// (servers layer); the kernel only holds a hook so the substrate stays
/// below the protocol in the layering.
using BatchEligibleFn = bool (*)(std::uint32_t type);

}  // namespace osiris::kernel
