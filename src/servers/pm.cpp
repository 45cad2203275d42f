#include "servers/pm.hpp"

#include "support/log.hpp"

namespace osiris::servers {

using kernel::E_AGAIN;
using kernel::E_CHILD;
using kernel::E_INVAL;
using kernel::E_NOENT;
using kernel::E_NOMEM;
using kernel::E_SRCH;
using kernel::make_reply;
using kernel::Message;
using kernel::OK;

namespace {
constexpr auto kNpos = decltype(PmState{}.procs)::npos;
}

void Pm::init_state() {
  // The pid allocator starts at 1: init itself draws pid 1 at boot. (A
  // "naive" restart that re-runs this initializer over live state therefore
  // resets the allocator below running processes — the classic naive-restart
  // inconsistency.)
  st().next_pid = 1;
}

void Pm::register_boot_proc(std::int32_t pid, kernel::Endpoint client_ep,
                            std::string_view name) {
  OSIRIS_ASSERT(pid == st().next_pid.get());
  st().next_pid = pid + 1;
  const std::size_t i = st().procs.alloc();
  OSIRIS_ASSERT(i != kNpos);
  auto& p = st().procs.mutate(i);
  p.pid = pid;
  p.parent = 0;
  p.client_ep = client_ep.value;
  p.state = ProcState::kRunning;
  p.name.assign(name);
}

std::size_t Pm::slot_of_pid(std::int32_t pid) const {
  return st().procs.find([pid](const PmProc& p) { return p.pid == pid; });
}

std::size_t Pm::slot_of_ep(std::int32_t ep) const {
  return st().procs.find(
      [ep](const PmProc& p) { return p.client_ep == ep && p.state != ProcState::kZombie; });
}

void Pm::register_handlers() {
  on(PM_FORK, &Pm::do_fork);
  on(PM_EXIT, &Pm::do_exit);
  on(PM_WAIT, &Pm::do_wait);
  on(PM_KILL, &Pm::do_kill);
  on(PM_EXEC, &Pm::do_exec);
  on_reply(VFS_PM_EXEC, &Pm::do_exec_reply);
  on(PM_BRK, &Pm::do_brk);
  on(PM_GETPID, &Pm::do_getpid);
  on(PM_GETPPID, &Pm::do_getppid);
  on(PM_GETUID, &Pm::do_getuid);
  on(PM_SETUID, &Pm::do_setuid);
  on(PM_SIGACTION, &Pm::do_sigaction);
  on(PM_SIGPENDING, &Pm::do_sigpending);
  on(PM_TIMES, &Pm::do_times);
  on(PM_GETMEMINFO, &Pm::do_getmeminfo);
  on(PM_UNAME, &Pm::do_uname);
  on(PM_PROCSTAT, &Pm::do_procstat);
}

void Pm::on_message(const Message&) { FI_BLOCK("pm"); }

std::optional<Message> Pm::do_getpid(const Message& m) {
  FI_BLOCK("pm");
  const std::size_t i = slot_of_ep(m.sender.value);
  if (i == kNpos) return make_reply(m.type, E_SRCH);
  return make_reply(m.type, st().procs.at(i).pid);
}

std::optional<Message> Pm::do_getppid(const Message& m) {
  const std::size_t i = slot_of_ep(m.sender.value);
  if (i == kNpos) return make_reply(m.type, E_SRCH);
  return make_reply(m.type, st().procs.at(i).parent);
}

std::optional<Message> Pm::do_getuid(const Message& m) {
  const std::size_t i = slot_of_ep(m.sender.value);
  if (i == kNpos) return make_reply(m.type, E_SRCH);
  return make_reply(m.type, st().procs.at(i).uid);
}

std::optional<Message> Pm::do_setuid(const Message& m) {
  FI_BLOCK("pm");
  const std::size_t i = slot_of_ep(m.sender.value);
  if (i == kNpos) return make_reply(m.type, E_SRCH);
  st().procs.mutate(i).uid = static_cast<std::uint32_t>(MsgView(m).u(0));
  return make_reply(m.type, OK);
}

std::optional<Message> Pm::do_sigaction(const Message& m) {
  FI_BLOCK("pm");
  const std::size_t i = slot_of_ep(m.sender.value);
  if (i == kNpos) return make_reply(m.type, E_SRCH);
  const MsgView v(m);
  const std::uint64_t sig = v.u(0);
  if (sig == 0 || sig >= 64 || sig == kSigKill) return make_reply(m.type, E_INVAL);
  auto& p = st().procs.mutate(i);
  if (v.u(1) != 0) {
    p.handled_sigs |= (1ULL << sig);
  } else {
    p.handled_sigs &= ~(1ULL << sig);
  }
  return make_reply(m.type, OK);
}

std::optional<Message> Pm::do_sigpending(const Message& m) {
  const std::size_t i = slot_of_ep(m.sender.value);
  if (i == kNpos) return make_reply(m.type, E_SRCH);
  Message r = make_reply(m.type, OK);
  r.arg[1] = st().procs.at(i).pending_sigs;
  // Reading the pending set consumes it (simplified sigpending+sigwait).
  st().procs.mutate(i).pending_sigs = 0;
  return r;
}

std::optional<Message> Pm::do_times(const Message& m) {
  FI_BLOCK("pm");
  // Read-only SEEP to the kernel task: window survives under enhanced.
  Message r = seep_call(kSysEp, encode(SYS_TIMES));
  FI_BLOCK("pm");
  // Aggregate per-process accounting on top of the kernel's uptime:
  // under the pessimistic policy this whole scan is outside the window.
  std::uint64_t running = 0;
  st().procs.for_each([&](std::size_t, const PmProc& p) {
    FI_BLOCK("pm");
    if (p.state == ProcState::kRunning) ++running;
  });
  FI_BLOCK("pm");
  Message out = make_reply(m.type, r.sarg(0));
  out.arg[1] = r.arg[1];
  out.arg[2] = running;
  return out;
}

std::optional<Message> Pm::do_getmeminfo(const Message& m) {
  FI_BLOCK("pm");
  // Read-only SEEP to VM.
  Message r = seep_call(kernel::kVmEp, encode(VM_INFO));
  FI_BLOCK("pm");
  if (r.sarg(0) < 0) return make_reply(m.type, r.sarg(0));
  // Sanity-check VM's numbers against PM's own view of the system.
  SRV_CHECK(r.arg[1] <= r.arg[2], "pm: vm reported more free than total");
  std::uint64_t procs = 0;
  st().procs.for_each([&](std::size_t, const PmProc&) {
    FI_BLOCK("pm");
    ++procs;
  });
  SRV_CHECK(procs >= 1, "pm: process table empty while serving a request");
  FI_BLOCK("pm");
  Message out = make_reply(m.type, OK);
  out.arg[1] = r.arg[1];
  out.arg[2] = r.arg[2];
  return out;
}

std::optional<Message> Pm::do_uname(const Message& m) {
  FI_BLOCK("pm");
  // Read-only SEEP to DS for the published release string.
  Message r = seep_call(kernel::kDsEp, encode_text(DS_RETRIEVE, "sys.release"));
  FI_BLOCK("pm");
  // Attach the nodename of the calling process (a read-only scan that
  // stays inside the window only under the enhanced policy).
  std::uint64_t live = 0;
  st().procs.for_each([&](std::size_t, const PmProc& p) {
    FI_BLOCK("pm");
    if (p.state != ProcState::kZombie) ++live;
  });
  FI_BLOCK("pm");
  Message out = make_reply(m.type, OK);
  out.text.assign(r.sarg(0) == OK ? "osiris" : "osiris-unknown");
  out.arg[1] = r.sarg(0) == OK ? r.arg[1] : 0;
  out.arg[2] = live;
  return out;
}

std::optional<Message> Pm::do_procstat(const Message& m) {
  const std::size_t i = slot_of_pid(MsgView(m).i32(0));
  if (i == kNpos) return make_reply(m.type, E_SRCH);
  Message r = make_reply(m.type, OK);
  r.arg[1] = static_cast<std::uint64_t>(st().procs.at(i).state);
  r.arg[2] = static_cast<std::uint64_t>(st().procs.at(i).parent);
  return r;
}

std::optional<Message> Pm::do_fork(const Message& m) {
  FI_BLOCK("pm");
  const std::size_t parent_slot = slot_of_ep(m.sender.value);
  if (parent_slot == kNpos) return make_reply(m.type, E_SRCH);

  const std::size_t child_slot = st().procs.alloc();
  if (child_slot == kNpos) return make_reply(m.type, E_AGAIN);

  const std::int32_t parent_pid = st().procs.at(parent_slot).pid;
  const auto child_pid = static_cast<std::int32_t>(FI_VALUE("pm", st().next_pid.get()));

  // Fan-out: create the kernel slot, duplicate the address space, then the
  // fd table (VM's page mappings require the kernel slot to exist). Each of
  // these is a state-modifying SEEP: the recovery window closes at the
  // first one under both OSIRIS policies.
  Message sys_r = seep_call(kSysEp, encode(SYS_FORK, parent_pid, child_pid));
  FI_BLOCK("pm");
  // PM just drew a fresh pid: the kernel refusing the slot means PM's pid
  // allocator and the kernel slot table diverged (only possible after an
  // inconsistent recovery) — fatal.
  SRV_CHECK(sys_r.sarg(0) == OK || sys_r.sarg(0) == kernel::E_CRASH,
            "pm: kernel slot for fresh pid refused (tables out of sync)");
  if (sys_r.sarg(0) != OK) {
    // analyze-suppress(mutate-after-send): compensation on the refusal path —
    // frees only the slot this request allocated; a crash here leaks at most
    // one pid slot and cannot diverge cross-server state (SYS_FORK refused).
    st().procs.free(child_slot);
    return make_reply(m.type, E_AGAIN);
  }
  Message vm_r = seep_call(kernel::kVmEp, encode(VM_FORK_AS, parent_pid, child_pid));
  FI_BLOCK("pm");
  if (vm_r.sarg(0) != OK) {
    seep_call(kSysEp, encode(SYS_EXIT, child_pid));
    st().procs.free(child_slot);
    return make_reply(m.type, vm_r.sarg(0) == kernel::E_CRASH ? E_AGAIN : vm_r.sarg(0));
  }
  Message vfs_r =
      seep_call(kernel::kVfsEp, encode(VFS_PM_FORK, parent_pid, child_pid, m.arg[0]));
  FI_BLOCK("pm");
  if (vfs_r.sarg(0) != OK) {
    seep_call(kernel::kVmEp, encode(VM_EXIT_AS, child_pid));
    seep_call(kSysEp, encode(SYS_EXIT, child_pid));
    st().procs.free(child_slot);
    return make_reply(m.type, E_AGAIN);
  }

  // Commit the pid only now that all three fault domains accepted it: a
  // crash anywhere above leaves next_pid unadvanced, which a rollback-based
  // recovery undoes consistently (a naive restart does not).
  st().next_pid = child_pid + 1;
  auto& child = st().procs.mutate(child_slot);
  child.pid = child_pid;
  child.parent = parent_pid;
  FI_BLOCK("pm");  // mid-mutation: a crash here leaves a half-filled entry
  child.client_ep = static_cast<std::int32_t>(m.arg[0]);
  child.state = ProcState::kRunning;
  FI_BLOCK("pm");
  child.brk = st().procs.at(parent_slot).brk;
  child.uid = st().procs.at(parent_slot).uid;
  child.name = st().procs.at(parent_slot).name;
  st().forks += 1;
  FI_BLOCK("pm");
  // Post-fork audit: pids must stay unique (all of this is past the first
  // state-modifying SEEP, i.e. outside the recovery window).
  int with_pid = 0;
  st().procs.for_each([&](std::size_t, const PmProc& p) {
    FI_BLOCK("pm");
    if (p.pid == child_pid) ++with_pid;
  });
  SRV_CHECK(with_pid == 1, "pm: duplicate pid after fork");
  FI_BLOCK("pm");
  // Parent/child linkage audit.
  const std::size_t pslot2 = slot_of_pid(parent_pid);
  FI_BLOCK("pm");
  SRV_CHECK(pslot2 != kNpos, "pm: parent vanished during fork");
  FI_BLOCK("pm");
  SRV_CHECK(st().procs.at(pslot2).state == ProcState::kRunning,
            "pm: forking parent not running");
  FI_BLOCK("pm");
  // Publish process accounting to the data store. A DS failure here is
  // tolerated: the publication is best-effort telemetry, so an E_CRASH
  // reply after DS recovery is simply ignored (user-transparent recovery).
  (void)seep_call(kernel::kDsEp, encode_text(DS_PUBLISH, "pm.forks", st().forks.get()));
  FI_BLOCK("pm");
  return make_reply(m.type, child_pid);
}

bool Pm::deliver_to_waiter(std::size_t parent_slot, std::size_t child_slot) {
  const PmProc& parent = st().procs.at(parent_slot);
  const PmProc& child = st().procs.at(child_slot);
  if (parent.state != ProcState::kWaiting) return false;
  if (parent.wait_target != 0 && parent.wait_target != child.pid) return false;

  Message r = make_reply(PM_WAIT, child.pid);
  r.arg[1] = static_cast<std::uint64_t>(child.exit_status);
  // Mid-request wake-up of a third party: a state-modifying deferred reply.
  seep_deferred_reply(kernel::Endpoint{parent.client_ep}, r);
  st().procs.mutate(parent_slot).state = ProcState::kRunning;
  st().procs.free(child_slot);
  return true;
}

void Pm::terminate_proc(std::size_t slot, std::int64_t status) {
  const std::int32_t pid = st().procs.at(slot).pid;
  FI_BLOCK("pm");

  // Release resources in the other fault domains.
  seep_call(kernel::kVmEp, encode(VM_EXIT_AS, pid));
  FI_BLOCK("pm");
  seep_call(kernel::kVfsEp, encode(VFS_PM_EXIT, pid));
  seep_call(kSysEp, encode(SYS_EXIT, pid));

  // Reparent children to init (pid 1).
  st().procs.for_each([&](std::size_t i, const PmProc& p) {
    if (p.parent == pid && i != slot) {
      FI_BLOCK("pm");  // mid-mutation: partial reparenting on crash
      // analyze-suppress(mutate-after-send): exit teardown is deliberately
      // ordered kernel-first (VFS/SYS informed before PM commits); reparenting
      // is idempotent, so a post-close crash replays to the same state.
      st().procs.mutate(i).parent = 1;
    }
  });
  FI_BLOCK("pm");

  auto& p = st().procs.mutate(slot);
  p.state = ProcState::kZombie;
  p.exit_status = status;
  st().exits += 1;
  FI_BLOCK("pm");

  // Wake a waiting parent, or signal kSigChld if a handler is installed.
  const std::size_t parent_slot = slot_of_pid(p.parent);
  if (parent_slot != kNpos) {
    if (!deliver_to_waiter(parent_slot, slot)) {
      const PmProc& parent = st().procs.at(parent_slot);
      if ((parent.handled_sigs & (1ULL << kSigChld)) != 0) {
        st().procs.mutate(parent_slot).pending_sigs |= (1ULL << kSigChld);
        seep_send(kernel::Endpoint{parent.client_ep},
                  encode(PM_SIG_NOTIFY | kernel::kNotifyBit, 1ULL << kSigChld));
        st().signals_sent += 1;
      }
    }
  } else {
    // No parent: reap immediately.
    st().procs.free(slot);
  }
}

std::optional<Message> Pm::do_exit(const Message& m) {
  FI_BLOCK("pm");
  const std::size_t slot = slot_of_ep(m.sender.value);
  if (slot == kNpos) return make_reply(m.type, E_SRCH);
  terminate_proc(slot, m.sarg(0));
  FI_BLOCK("pm");
  // Exit epilogue: no runnable process may still claim the dead endpoint.
  const std::int32_t ep = m.sender.value;
  std::size_t claims = 0;
  st().procs.for_each([&](std::size_t, const PmProc& p) {
    if (p.client_ep == ep && p.state == ProcState::kRunning) ++claims;
  });
  FI_BLOCK("pm");
  SRV_CHECK(claims == 0, "pm: endpoint still live after exit");
  FI_BLOCK("pm");
  return make_reply(m.type, OK);
}

std::optional<Message> Pm::do_wait(const Message& m) {
  FI_BLOCK("pm");
  const std::size_t slot = slot_of_ep(m.sender.value);
  if (slot == kNpos) return make_reply(m.type, E_SRCH);
  const std::int32_t self_pid = st().procs.at(slot).pid;
  const auto target = static_cast<std::int32_t>(FI_VALUE("pm", m.sarg(0)));

  // A ready zombie?
  bool have_children = false;
  std::size_t zombie = kNpos;
  st().procs.for_each([&](std::size_t i, const PmProc& p) {
    if (p.parent != self_pid) return;
    if (target != 0 && p.pid != target) return;
    have_children = true;
    if (p.state == ProcState::kZombie && zombie == kNpos) zombie = i;
  });
  if (!FI_BRANCH("pm", have_children)) return make_reply(m.type, E_CHILD);
  if (zombie != kNpos) {
    Message r = make_reply(m.type, st().procs.at(zombie).pid);
    r.arg[1] = static_cast<std::uint64_t>(st().procs.at(zombie).exit_status);
    st().procs.free(zombie);
    return r;
  }

  // Postpone the reply until a child exits (Figure 1's deferred reply).
  auto& p = st().procs.mutate(slot);
  p.state = ProcState::kWaiting;
  p.wait_target = target;
  return std::nullopt;
}

std::optional<Message> Pm::do_kill(const Message& m) {
  FI_BLOCK("pm");
  const auto pid = static_cast<std::int32_t>(m.sarg(0));
  const std::uint64_t sig = FI_VALUE("pm", m.arg[1]);
  if (sig == 0 || sig >= 64) return make_reply(m.type, E_INVAL);
  const std::size_t slot = slot_of_pid(pid);
  if (slot == kNpos || st().procs.at(slot).state == ProcState::kZombie) {
    return make_reply(m.type, E_SRCH);
  }
  st().signals_sent += 1;

  FI_BLOCK("pm");
  if (sig == kSigKill) {
    FI_BLOCK("pm");
    // Forced termination: notify the victim's user context, then tear down.
    const std::int32_t victim_ep = st().procs.at(slot).client_ep;
    seep_send(kernel::Endpoint{victim_ep},
              encode(PM_SIG_NOTIFY | kernel::kNotifyBit, 1ULL << kSigKill));
    terminate_proc(slot, -static_cast<std::int64_t>(kSigKill));
    return make_reply(m.type, OK);
  }

  auto& p = st().procs.mutate(slot);
  p.pending_sigs |= (1ULL << sig);
  if ((p.handled_sigs & (1ULL << sig)) != 0) {
    seep_send(kernel::Endpoint{p.client_ep},
              encode(PM_SIG_NOTIFY | kernel::kNotifyBit, 1ULL << sig));
  }
  return make_reply(m.type, OK);
}

std::optional<Message> Pm::do_exec(const Message& m) {
  FI_BLOCK("pm");
  const std::size_t slot = slot_of_ep(m.sender.value);
  if (slot == kNpos) return make_reply(m.type, E_SRCH);
  if (m.text.empty()) return make_reply(m.type, E_INVAL);

  const std::size_t pe = st().pending_execs.alloc();
  if (pe == kNpos) return make_reply(m.type, E_AGAIN);
  auto& pending = st().pending_execs.mutate(pe);
  pending.active = true;
  pending.pid = st().procs.at(slot).pid;
  pending.requester_ep = m.sender.value;
  pending.path.assign(m.text.view());

  // Asynchronous binary check: VFS may need the disk, so PM must not block.
  // The reply re-enters PM's request loop as a message (do_exec_reply).
  Message check = encode_text(VFS_PM_EXEC, m.text.view());
  check.arg[1] = static_cast<std::uint64_t>(st().procs.at(slot).pid);  // correlation
  seep_send(kernel::kVfsEp, check);
  FI_BLOCK("pm");
  return std::nullopt;
}

std::optional<Message> Pm::do_exec_reply(const Message& m) {
  FI_BLOCK("pm");
  const auto pid = static_cast<std::int32_t>(m.arg[1]);
  const std::size_t pe = st().pending_execs.find(
      [pid](const PmPendingExec& e) { return e.active && e.pid == pid; });
  if (pe == kNpos) return std::nullopt;  // stale reply (e.g. after recovery)
  const PmPendingExec pending = st().pending_execs.at(pe);
  st().pending_execs.free(pe);

  const auto requester = kernel::Endpoint{pending.requester_ep};
  if (m.sarg(0) != OK) {
    seep_deferred_reply(requester, make_reply(PM_EXEC, m.sarg(0)));
    return std::nullopt;
  }
  const std::size_t slot = slot_of_pid(pid);
  if (slot == kNpos) return std::nullopt;  // process died meanwhile

  Message vm_r = seep_call(kernel::kVmEp, encode(VM_EXEC_AS, pid, /*image pages=*/2));
  FI_BLOCK("pm");
  if (vm_r.sarg(0) != OK) {
    seep_deferred_reply(requester, make_reply(PM_EXEC, vm_r.sarg(0)));
    return std::nullopt;
  }
  auto& p = st().procs.mutate(slot);
  p.name.assign(pending.path.view());
  p.brk = 0x10000;
  seep_deferred_reply(requester, make_reply(PM_EXEC, OK));
  return std::nullopt;
}

std::optional<Message> Pm::do_brk(const Message& m) {
  FI_BLOCK("pm");
  const std::size_t slot = slot_of_ep(m.sender.value);
  if (slot == kNpos) return make_reply(m.type, E_SRCH);
  const std::int32_t pid = st().procs.at(slot).pid;
  const std::uint64_t want = FI_VALUE("pm", m.arg[0]);

  Message vm_r = seep_call(kernel::kVmEp, encode(VM_BRK_AS, pid, want));
  FI_BLOCK("pm");
  if (vm_r.sarg(0) < 0) return make_reply(m.type, vm_r.sarg(0));
  // analyze-suppress(mutate-after-send): records VM's committed break value
  // from the reply — VM is authoritative, so replaying VM_BRK_AS after a
  // post-close crash re-derives the identical value (idempotent commit).
  st().procs.mutate(slot).brk = vm_r.arg[1];
  Message r = make_reply(m.type, OK);
  r.arg[1] = vm_r.arg[1];
  return r;
}

}  // namespace osiris::servers
