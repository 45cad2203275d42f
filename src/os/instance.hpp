// OsInstance: one booted OSIRIS machine.
//
// Owns the virtual clock, the simulated microkernel, the five system servers
// plus the SYS task, the recovery engine, the block device, and the live
// user processes (fibers). `run()` executes an init program to completion and
// classifies the machine's fate — the outcome classes of the survivability
// experiments (completed / controlled shutdown / crash / hang).
#pragma once

#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "cothread/fiber.hpp"
#include "fs/blockdev.hpp"
#include "kernel/kernel.hpp"
#include "os/config.hpp"
#include "os/isys.hpp"
#include "os/programs.hpp"
#include "recovery/engine.hpp"
#include "servers/ds.hpp"
#include "servers/pm.hpp"
#include "servers/rs.hpp"
#include "servers/sys_task.hpp"
#include "servers/vfs.hpp"
#include "servers/vm.hpp"
#include "trace/trace.hpp"
#if OSIRIS_TRACE_ENABLED
#include "trace/tracer.hpp"
#endif

namespace osiris::os {

class OsInstance;
class Sys;

/// A simulated user process: a fiber plus the kernel client mailbox.
class UserProc final : public kernel::IClient {
 public:
  enum class RunState : std::uint8_t { kReady, kRunning, kBlocked, kDone };

  UserProc(OsInstance& os, std::string name, ISys::ProcBody body);
  ~UserProc() override;

  // IClient
  void on_reply(const kernel::Message& reply) override;
  void on_notify(const kernel::Message& msg) override;

  [[nodiscard]] kernel::Endpoint ep() const noexcept { return ep_; }
  [[nodiscard]] std::int32_t pid() const noexcept { return pid_; }
  [[nodiscard]] RunState run_state() const noexcept { return run_state_; }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] std::int64_t exit_status() const noexcept { return exit_status_; }

 private:
  friend class OsInstance;
  friend class Sys;

  OsInstance& os_;
  std::string name_;
  ISys::ProcBody body_;
  std::unique_ptr<Sys> sys_;
  std::unique_ptr<cothread::Fiber> fiber_;
  kernel::Endpoint ep_;
  std::int32_t pid_ = -1;
  RunState run_state_ = RunState::kReady;
  bool in_ready_queue_ = false;

  bool has_reply_ = false;
  kernel::Message reply_;
  bool killed_ = false;
  std::uint64_t pending_sig_mask_ = 0;
  std::uint64_t handled_mask_ = 0;  // signals the process catches (sigaction)
  std::int64_t exit_status_ = 0;
};

class OsInstance {
 public:
  enum class Outcome : std::uint8_t { kCompleted, kShutdown, kCrashed, kHung };

  explicit OsInstance(OsConfig cfg = {});
  ~OsInstance();

  OsInstance(const OsInstance&) = delete;
  OsInstance& operator=(const OsInstance&) = delete;

  ProgramRegistry& programs() noexcept { return programs_; }

  /// Format + populate the disk, construct and wire all servers, start
  /// heartbeats, and mark boot complete for the fault-injection registry.
  void boot();

  /// Run `init_body` as pid 1 to completion. Returns the machine's fate.
  /// A process is destroyed as soon as its fiber finishes, and a child that
  /// PM refuses at fork as soon as the refusal arrives. Init, killed
  /// processes and processes still blocked when the machine halts go with
  /// the instance.
  Outcome run(ISys::ProcBody init_body);

  // --- accessors for tests and benches ---------------------------------
  kernel::Kernel& kern() noexcept { return *kernel_; }
  VirtualClock& clock() noexcept { return clock_; }
  servers::Pm& pm() noexcept { return *pm_; }
  servers::Vm& vm() noexcept { return *vm_; }
  servers::Vfs& vfs() noexcept { return *vfs_; }
  servers::Ds& ds() noexcept { return *ds_; }
  servers::Rs& rs() noexcept { return *rs_; }
  servers::SysTask& sys_task() noexcept { return *sys_; }
  /// The recovery engine; only a machine with cfg.recovery_enabled has one.
  recovery::Engine& engine() noexcept {
    OSIRIS_ASSERT(engine_ != nullptr);
    return *engine_;
  }
  fs::BlockDevice& disk() noexcept { return *disk_; }
#if OSIRIS_TRACE_ENABLED
  /// This machine's tracer, or nullptr when cfg.trace_enabled is false.
  [[nodiscard]] trace::Tracer* tracer() noexcept { return tracer_.get(); }
#endif
  [[nodiscard]] const OsConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] std::uint64_t steps() const noexcept { return steps_; }
  /// User processes the instance holds: the live ones, the killed ones, and
  /// init.
  [[nodiscard]] std::size_t user_procs() const noexcept { return procs_.size(); }
  [[nodiscard]] const std::string& halt_reason() const { return kernel_->halt_reason(); }

  /// The five recoverable servers (PM, VM, VFS, DS, RS), with or without
  /// recovery; empty before boot().
  [[nodiscard]] const std::vector<recovery::Recoverable*>& components() const {
    return components_;
  }

  static const char* outcome_name(Outcome o);

 private:
  friend class Sys;
  friend class UserProc;

  UserProc* create_proc(std::string name, ISys::ProcBody body);
  void mark_ready(UserProc* p);
  UserProc* pop_ready();
  void resume_proc(UserProc* p);

  OsConfig cfg_;
  VirtualClock clock_;
#if OSIRIS_TRACE_ENABLED
  std::unique_ptr<trace::Tracer> tracer_;
  trace::Tracer* prev_tracer_ = nullptr;
#endif
  std::unique_ptr<fs::BlockDevice> disk_;
  std::unique_ptr<kernel::Kernel> kernel_;
  std::unique_ptr<servers::SysTask> sys_;
  std::unique_ptr<servers::Pm> pm_;
  std::unique_ptr<servers::Vm> vm_;
  std::unique_ptr<servers::Vfs> vfs_;
  std::unique_ptr<servers::Ds> ds_;
  std::unique_ptr<servers::Rs> rs_;
  std::unique_ptr<recovery::Engine> engine_;
  ProgramRegistry programs_;
  std::vector<recovery::Recoverable*> components_;

  std::vector<std::unique_ptr<UserProc>> procs_;
  std::deque<UserProc*> ready_;
  std::uint64_t steps_ = 0;
  bool booted_ = false;
};

}  // namespace osiris::os
