// Recovery-window state machine (paper SIV-B, Figure 2).
//
// One Window per component. It opens at the top of the request processing
// loop (which is also where the checkpoint — an undo-log reset — is taken)
// and closes at the first outbound SEEP the policy forbids, or when a
// cooperative thread yields (SIV-E). The caller passes each outbound SEEP's
// class, read from the message's spec row (servers/msg_spec.hpp). While
// open, rolling back the undo log provably returns the whole system to a
// consistent state; once closed, the undo log is discarded and
// instrumentation stops logging (the SIV-D optimization).
//
// The Window also owns the recovery-coverage accounting behind Table I:
// every fi:: probe reports a basic-block execution, attributed to
// inside/outside the window.
#pragma once

#include <cstdint>

#include "ckpt/context.hpp"
#include "seep/policy.hpp"
#include "trace/trace.hpp"

namespace osiris::seep {

// Close-cause codes recorded in kWindowClose events. Mirrored as plain
// integers so OSIRIS_TRACE=OFF builds never reference trace types; the
// static_assert keeps them in lockstep with trace::CloseCause.
inline constexpr std::uint64_t kCloseCauseSeep = 0;
inline constexpr std::uint64_t kCloseCauseYield = 1;
inline constexpr std::uint64_t kCloseCauseEndOfRequest = 2;
#if OSIRIS_TRACE_ENABLED
static_assert(kCloseCauseSeep == static_cast<std::uint64_t>(trace::CloseCause::kSeep) &&
              kCloseCauseYield == static_cast<std::uint64_t>(trace::CloseCause::kYield) &&
              kCloseCauseEndOfRequest ==
                  static_cast<std::uint64_t>(trace::CloseCause::kEndOfRequest));
#endif

struct WindowStats {
  std::uint64_t opened = 0;
  std::uint64_t closed_by_seep = 0;
  std::uint64_t closed_by_yield = 0;
  std::uint64_t probe_hits_inside = 0;
  std::uint64_t probe_hits_outside = 0;

  [[nodiscard]] double coverage() const noexcept {
    const std::uint64_t total = probe_hits_inside + probe_hits_outside;
    return total == 0 ? 0.0 : static_cast<double>(probe_hits_inside) / static_cast<double>(total);
  }
};

class Window {
 public:
  Window(Policy policy, ckpt::Context& ctx) : policy_(policy), ctx_(ctx) {}

  Window(const Window&) = delete;
  Window& operator=(const Window&) = delete;

  [[nodiscard]] Policy policy() const noexcept { return policy_; }
  [[nodiscard]] bool is_open() const noexcept { return open_; }

  /// Top of the request processing loop: take the checkpoint and open the
  /// window. Under non-window policies this is a no-op.
  void open() {
    if (!policy_uses_windows(policy_)) return;
    ctx_.log().checkpoint();
    open_ = true;
    ctx_.set_window_open(true);
    ++stats_.opened;
    OSIRIS_TRACE_EVENT(kWindowOpen, ctx_.trace_id());
  }

  /// Called *before* each outbound SEEP message leaves the component.
  void on_outbound(SeepClass cls) {
    if (!open_) return;
    if (policy_closes_window(policy_, cls)) {
      close_common(kCloseCauseSeep, static_cast<std::uint64_t>(cls));
      ++stats_.closed_by_seep;
    }
  }

  /// Forced close when a cooperative thread yields mid-request (SIV-E).
  void on_yield() {
    if (open_) {
      close_common(kCloseCauseYield, 0);
      ++stats_.closed_by_yield;
    }
  }

  /// End of request processing: the window simply ends (no statistics —
  /// the next open() re-checkpoints).
  void end_of_request() {
    if (open_) {
      OSIRIS_TRACE_EVENT(kWindowClose, ctx_.trace_id(), kCloseCauseEndOfRequest);
    }
    open_ = false;
    ctx_.set_window_open(false);
  }

  /// Coverage probe (invoked by fi:: basic-block probes).
  void probe_hit() noexcept {
    if (open_) {
      ++stats_.probe_hits_inside;
    } else {
      ++stats_.probe_hits_outside;
    }
  }

  [[nodiscard]] const WindowStats& stats() const noexcept { return stats_; }

 private:
  void close_common([[maybe_unused]] std::uint64_t cause,
                    [[maybe_unused]] std::uint64_t seep_cls) {
    OSIRIS_TRACE_EVENT(kWindowClose, ctx_.trace_id(), cause, seep_cls);
    open_ = false;
    ctx_.set_window_open(false);
    // Past the window the checkpoint can never be restored: discard the log
    // now and stop paying for instrumentation (SIV-D).
    ctx_.log().checkpoint();
  }

  Policy policy_;
  ckpt::Context& ctx_;
  bool open_ = false;
  WindowStats stats_;
};

}  // namespace osiris::seep
