// Interface between the recovery engine and recoverable OS components.
//
// Every system server exposes its recoverable state ("data section") as a
// contiguous, trivially-copyable byte range, plus its checkpointing context
// and recovery window. The engine uses these for the three recovery phases
// (paper SIV-C): restart (state transfer into a spare clone), rollback
// (undo-log replay) and reconciliation (decided by the engine itself).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "ckpt/context.hpp"
#include "kernel/endpoint.hpp"
#include "seep/window.hpp"

namespace osiris::recovery {

class Recoverable {
 public:
  virtual ~Recoverable() = default;

  [[nodiscard]] virtual std::string_view name() const = 0;
  [[nodiscard]] virtual kernel::Endpoint endpoint() const = 0;

  /// The component's data section: all recoverable state, trivially copyable.
  virtual std::byte* data_section() = 0;
  [[nodiscard]] virtual std::size_t data_section_size() const = 0;

  virtual ckpt::Context& ckpt_context() = 0;
  virtual seep::Window& window() = 0;

  /// Reset local state to its boot-time value (stateless restart, and the
  /// "initialization" RCB element: called before entering the request loop).
  virtual void reinitialize() = 0;

  /// Post-restore fixup hook, e.g. the cooperative-thread-library repair the
  /// paper describes for the multithreaded VFS (SIV-E). `rolled_back` tells
  /// the component whether the undo log was applied.
  virtual void on_restored(bool rolled_back) = 0;

  /// Dispatches that returned without a fault, heartbeat pings excluded: the
  /// progress the crash-loop classifier reads. Outside the data section.
  [[nodiscard]] virtual std::uint64_t completed_dispatches() const = 0;

  /// Extra memory the spare clone must pre-allocate beyond the data section.
  /// The Virtual Memory Manager needs a substantial recovery arena so that
  /// the fresh VM never depends on the defunct VM for allocations during
  /// recovery — the dominant term of the paper's Table VI "+clone" column.
  [[nodiscard]] virtual std::size_t recovery_arena_bytes() const { return 0; }
};

}  // namespace osiris::recovery
