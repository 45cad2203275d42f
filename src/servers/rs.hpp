// RS: the Recovery Server.
//
// RS is the policy face of the recovery infrastructure: it monitors the
// other system servers with heartbeat pings (detecting hung components and
// converting them into crash events, paper SII-E / SIV-C) and answers
// status queries. The actual restart/rollback/reconciliation pipeline lives
// in recovery::Engine (RCB); RS invokes it through the kernel's
// recover_hung() privileged operation.
//
// RS itself is a recoverable component — the paper's prototype "allows all
// these core system components (including RS itself) to be recovered" — so
// its handlers carry fault-injection probes like any other server.
#pragma once

#include "ckpt/cell.hpp"
#include "recovery/engine.hpp"
#include "servers/server_base.hpp"

namespace osiris::servers {

struct RsCompInfo {
  std::int32_t ep = -1;
  std::uint64_t last_pong_tick = 0;
  std::uint32_t pings_outstanding = 0;
};

struct RsState {
  ckpt::Table<RsCompInfo, 8> comps;
  ckpt::Cell<std::uint64_t> sweeps;
  ckpt::Cell<std::uint64_t> pings_sent;
  ckpt::Cell<std::uint64_t> hangs_detected;
};

class Rs final : public ServerBase<RsState> {
 public:
  Rs(kernel::Kernel& kernel, seep::Policy policy, ckpt::Mode mode)
      : ServerBase(kernel, kernel::kRsEp, "rs", policy, mode) {
    init_state();
    register_handlers();
  }

  /// Boot: monitor a server with heartbeats. Returns false — with a loud
  /// diagnostic — when the monitoring table is full: a server silently
  /// missing from heartbeat coverage would turn every hang in it into an
  /// undetectable wedge.
  [[nodiscard]] bool monitor(kernel::Endpoint ep);

  /// Boot: start the periodic heartbeat sweep (self-notification driven by
  /// the virtual clock).
  void start_heartbeats(Tick interval);

  /// Wire the engine for RS_STATUS's recovery count (set once at boot).
  void attach_engine(const recovery::Engine* engine) { engine_ = engine; }

  [[nodiscard]] std::uint64_t sweeps() const { return st().sweeps; }
  [[nodiscard]] std::uint64_t pings_sent() const { return st().pings_sent; }

  /// Sum of unanswered pings across all monitored slots (tests: heartbeat
  /// shutdown must not leak outstanding pings).
  [[nodiscard]] std::uint32_t outstanding_pings() const;

 protected:
  void on_message(const kernel::Message& m) override;
  void init_state() override {}

 private:
  void register_handlers();

  void schedule_next_sweep();
  void run_sweep();

  std::optional<kernel::Message> do_sweep(const kernel::Message& m);
  std::optional<kernel::Message> do_pong(const kernel::Message& m);
  std::optional<kernel::Message> do_status(const kernel::Message& m);
  std::optional<kernel::Message> ignore_ds_note(const kernel::Message& m);
  std::optional<kernel::Message> ignore_publish_ack(const kernel::Message& m);

  const recovery::Engine* engine_ = nullptr;
  Tick sweep_interval_ = 0;
};

}  // namespace osiris::servers
