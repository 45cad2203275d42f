// Checkpointing context: ties a component's undo log to the instrumentation
// mode and the recovery-window state.
//
// The paper's LLVM passes produce two clones of every server function — one
// with undo-log hooks, one without — and select a clone based on whether the
// recovery window is open (SIV-D). We realise the identical semantics with a
// mode switch consulted by every instrumented store:
//
//   kOff        — uninstrumented baseline build (no logging ever)
//   kAlways     — the paper's *unoptimized* build: every store is logged,
//                 even after the recovery window closed (~23% overhead)
//   kWindowOnly — the paper's *optimized* build: stores are logged only
//                 while the window is open (~5% overhead)
//
// Exactly one context is active at a time (the component currently
// dispatched); nested server calls stack contexts.
#pragma once

#include <cstddef>

#include "ckpt/undo_log.hpp"

namespace osiris::ckpt {

enum class Mode : std::uint8_t { kOff, kAlways, kWindowOnly };

class Context {
 public:
  explicit Context(Mode mode) : mode_(mode) {}

  Context(const Context&) = delete;
  Context& operator=(const Context&) = delete;

  [[nodiscard]] Mode mode() const noexcept { return mode_; }

  [[nodiscard]] UndoLog& log() noexcept { return log_; }
  [[nodiscard]] const UndoLog& log() const noexcept { return log_; }

  /// Trace attribution for the owning component (see UndoLog::set_trace_id).
  void set_trace_id(std::int32_t comp) noexcept {
    trace_id_ = comp;
    log_.set_trace_id(comp);
  }
  [[nodiscard]] std::int32_t trace_id() const noexcept { return trace_id_; }

  /// Recovery-window state, maintained by seep::Window.
  [[nodiscard]] bool window_open() const noexcept { return window_open_; }
  void set_window_open(bool open) noexcept { window_open_ = open; }

  [[nodiscard]] bool should_log() const noexcept {
    return mode_ == Mode::kAlways || (mode_ == Mode::kWindowOnly && window_open_);
  }

  // --- active-context stack --------------------------------------------

  /// The context of the component currently executing, or nullptr when
  /// running harness / kernel / user code (which is never instrumented).
  static Context* active() noexcept { return active_; }

  /// Instrumentation hook: called by Cell/Array/Table before a store.
  static void log_write(void* addr, std::size_t len) {
    Context* c = active_;
    if (c != nullptr && c->should_log()) c->log_.record(addr, len);
  }

  class Scope {
   public:
    explicit Scope(Context* ctx) noexcept : saved_(active_) { active_ = ctx; }
    ~Scope() { active_ = saved_; }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Context* saved_;
  };

 private:
  Mode mode_;
  bool window_open_ = false;
  std::int32_t trace_id_ = -1;
  UndoLog log_;

  inline static thread_local Context* active_ = nullptr;
};

}  // namespace osiris::ckpt
