// PM: the Process Manager.
//
// Owns the process table: pids, parent links, exit/wait synchronization,
// signals, and the cross-cutting system calls (fork, exec, exit) that fan
// out to VM, VFS and SYS — the paper's motivating example of state spread
// across several fault domains.
//
// Noteworthy recovery-relevant structure:
//  - fork/exit/kill issue state-modifying SEEPs early, closing the recovery
//    window under both OSIRIS policies;
//  - the read-mostly calls (getpid, times, getmeminfo, uname, procstat)
//    either stay local or perform read-only SEEPs, which keep the window
//    open under the *enhanced* policy — this is PM's Table I gain;
//  - exec is asynchronous: PM sends the binary check to VFS and continues
//    when the reply message comes back (Figure 1's "responses to previously
//    issued asynchronous requests").
#pragma once

#include "ckpt/cell.hpp"
#include "servers/server_base.hpp"

namespace osiris::servers {

enum class ProcState : std::uint8_t { kRunning = 1, kZombie = 2, kWaiting = 3 };

struct PmProc {
  std::int32_t pid = 0;
  std::int32_t parent = 0;
  std::int32_t client_ep = -1;  // kernel client endpoint of the user process
  ProcState state = ProcState::kRunning;
  std::int64_t exit_status = 0;
  std::uint64_t pending_sigs = 0;
  std::uint64_t handled_sigs = 0;  // signals with a user handler installed
  std::int32_t wait_target = 0;    // pid waited for; 0 = any (when kWaiting)
  std::uint64_t brk = 0x10000;
  std::uint32_t uid = 0;
  osiris::FixedString<32> name;
};

struct PmPendingExec {
  bool active = false;
  std::int32_t pid = 0;
  std::int32_t requester_ep = -1;
  osiris::FixedString<32> path;
};

struct PmState {
  ckpt::Table<PmProc, kMaxProcs> procs;
  ckpt::Cell<std::int32_t> next_pid;
  ckpt::Cell<std::uint64_t> forks;
  ckpt::Cell<std::uint64_t> exits;
  ckpt::Cell<std::uint64_t> signals_sent;
  ckpt::Table<PmPendingExec, 8> pending_execs;
};

class Pm final : public ServerBase<PmState> {
 public:
  Pm(kernel::Kernel& kernel, seep::Policy policy, ckpt::Mode mode)
      : ServerBase(kernel, kernel::kPmEp, "pm", policy, mode) {
    init_state();
    register_handlers();
  }

  /// Boot: install the init process (pid 1).
  void register_boot_proc(std::int32_t pid, kernel::Endpoint client_ep,
                          std::string_view name);

  /// Processes in the table, zombies included (harness/test helper).
  [[nodiscard]] std::size_t proc_count() const { return st().procs.in_use_count(); }

 protected:
  void on_message(const kernel::Message& m) override;
  void init_state() override;

 private:
  void register_handlers();

  std::size_t slot_of_pid(std::int32_t pid) const;
  std::size_t slot_of_ep(std::int32_t ep) const;

  std::optional<kernel::Message> do_fork(const kernel::Message& m);
  std::optional<kernel::Message> do_exit(const kernel::Message& m);
  std::optional<kernel::Message> do_wait(const kernel::Message& m);
  std::optional<kernel::Message> do_kill(const kernel::Message& m);
  std::optional<kernel::Message> do_exec(const kernel::Message& m);
  std::optional<kernel::Message> do_exec_reply(const kernel::Message& m);
  std::optional<kernel::Message> do_brk(const kernel::Message& m);
  std::optional<kernel::Message> do_getpid(const kernel::Message& m);
  std::optional<kernel::Message> do_getppid(const kernel::Message& m);
  std::optional<kernel::Message> do_getuid(const kernel::Message& m);
  std::optional<kernel::Message> do_setuid(const kernel::Message& m);
  std::optional<kernel::Message> do_sigaction(const kernel::Message& m);
  std::optional<kernel::Message> do_sigpending(const kernel::Message& m);
  std::optional<kernel::Message> do_times(const kernel::Message& m);
  std::optional<kernel::Message> do_getmeminfo(const kernel::Message& m);
  std::optional<kernel::Message> do_uname(const kernel::Message& m);
  std::optional<kernel::Message> do_procstat(const kernel::Message& m);

  /// Shared exit path (voluntary exit and kSigKill).
  void terminate_proc(std::size_t slot, std::int64_t status);
  /// Try to satisfy a waiting parent with zombie `child_slot`; returns true
  /// if the zombie was reaped.
  bool deliver_to_waiter(std::size_t parent_slot, std::size_t child_slot);
};

}  // namespace osiris::servers
