#include "os/syscalls.hpp"

#include "cothread/fiber.hpp"
#include "os/instance.hpp"
#include "servers/protocol.hpp"
#include "support/log.hpp"

namespace osiris::os {

using kernel::Access;
using kernel::E_INVAL;
using kernel::E_NOENT;
using kernel::GrantId;
using kernel::Message;
using kernel::OK;
using namespace osiris::servers;  // message type constants + encode()

void Sys::check_killed() {
  if (proc_.killed_) throw ProcKilled{};
}

Message Sys::sendrec(kernel::Endpoint dst, Message m) {
  // libc-style handling of error-virtualized replies: after a component
  // recovery the request was discarded (E_CRASH). A read-only request (NSM
  // in its spec row) is reissued once, the "most appropriate action" (paper
  // SIII-C), which is transparent when the recovery succeeded; any other
  // request's E_CRASH goes to the caller.
  int attempts = find_msg_spec(m.type)->seep == seep::SeepClass::kNonStateModifying ? 2 : 1;
  Message reply;
  do {
    check_killed();
    proc_.has_reply_ = false;
    os_.kern().send(proc_.ep_, dst, m);
    proc_.run_state_ = UserProc::RunState::kBlocked;
    while (!proc_.has_reply_) {
      cothread::Fiber::suspend();
      check_killed();
      if (os_.kern().state() != kernel::SystemState::kRunning) {
        // The machine is halting: unwind this process.
        throw ProcKilled{};
      }
    }
    proc_.run_state_ = UserProc::RunState::kRunning;
    reply = proc_.reply_;
    proc_.has_reply_ = false;
    proc_.pending_sig_mask_ &= ~proc_.handled_mask_;  // caught signals are consumed here
  } while (reply.sarg(0) == kernel::E_CRASH && --attempts > 0);
  return reply;
}

// --- processes -----------------------------------------------------------

std::int64_t Sys::fork(ProcBody body) {
  check_killed();
  UserProc* child = os_.create_proc(proc_.name_ + "+", std::move(body));
  Message r = sendrec(kernel::kPmEp, encode(PM_FORK, child->ep().value));
  const std::int64_t pid = r.sarg(0);
  if (pid < 0) {
    // fork failed: the child never existed, so nothing of it is kept. It
    // never ran, so it is in no ready queue and owns no grant.
    os_.kern().unregister_client(child->ep_);
    std::erase_if(os_.procs_,
                  [child](const std::unique_ptr<UserProc>& p) { return p.get() == child; });
    return pid;
  }
  child->pid_ = static_cast<std::int32_t>(pid);
  os_.mark_ready(child);
  return pid;
}

std::int64_t Sys::exec(std::string_view path) {
  check_killed();
  const ProgramRegistry::Body* body = os_.programs().find(path);
  Message r = sendrec(kernel::kPmEp, encode_text(PM_EXEC, path));
  if (r.sarg(0) != OK) return r.sarg(0);
  if (body == nullptr) return E_NOENT;  // binary on disk but not registered
  // The image is loaded: run the new program on this fiber; it never returns.
  const std::int64_t rc = (*body)(*this);
  exit(rc);
}

void Sys::exit(std::int64_t status) {
  check_killed();
  proc_.exit_status_ = status;
  // exit() must not fail: if PM crashed while processing it (E_CRASH after
  // recovery), the rollback restored this process's entry, so the request
  // can simply be reissued.
  for (int attempt = 0; attempt < 64; ++attempt) {
    Message r = sendrec(kernel::kPmEp, encode(PM_EXIT, status));
    if (r.sarg(0) != kernel::E_CRASH) break;
  }
  throw ProcExit{status};
}

std::int64_t Sys::wait_pid(std::int64_t pid, std::int64_t* status) {
  // wait() is idempotent: an E_CRASH reply after a PM recovery means the
  // (rolled-back) request was discarded — re-issue it.
  Message r;
  for (int attempt = 0; attempt < 64; ++attempt) {
    r = sendrec(kernel::kPmEp, encode(PM_WAIT, pid));
    if (r.sarg(0) != kernel::E_CRASH) break;
  }
  if (r.sarg(0) < 0) return r.sarg(0);
  if (status != nullptr) *status = static_cast<std::int64_t>(r.arg[1]);
  return r.sarg(0);
}

std::int64_t Sys::getpid() { return sendrec(kernel::kPmEp, encode(PM_GETPID)).sarg(0); }
std::int64_t Sys::getppid() { return sendrec(kernel::kPmEp, encode(PM_GETPPID)).sarg(0); }

std::int64_t Sys::kill(std::int64_t pid, std::uint64_t sig) {
  return sendrec(kernel::kPmEp, encode(PM_KILL, pid, sig)).sarg(0);
}

std::int64_t Sys::sigaction(std::uint64_t sig, bool handle) {
  // The local mask follows what PM accepted: PM refuses signal numbers out
  // of range and kSigKill, and a refused call changes no disposition.
  const std::int64_t r = sendrec(kernel::kPmEp, encode(PM_SIGACTION, sig, handle ? 1 : 0)).sarg(0);
  if (r != OK) return r;
  if (handle) proc_.handled_mask_ |= (1ULL << sig);
  else proc_.handled_mask_ &= ~(1ULL << sig);
  return OK;
}

std::int64_t Sys::sigpending(std::uint64_t* mask) {
  Message r = sendrec(kernel::kPmEp, encode(PM_SIGPENDING));
  if (r.sarg(0) != OK) return r.sarg(0);
  if (mask != nullptr) *mask = r.arg[1] | proc_.pending_sig_mask_;
  proc_.pending_sig_mask_ = 0;
  return OK;
}

std::int64_t Sys::procstat(std::int64_t pid) {
  Message r = sendrec(kernel::kPmEp, encode(PM_PROCSTAT, pid));
  return r.sarg(0) == OK ? static_cast<std::int64_t>(r.arg[1]) : r.sarg(0);
}

std::int64_t Sys::getuid() { return sendrec(kernel::kPmEp, encode(PM_GETUID)).sarg(0); }
std::int64_t Sys::setuid(std::uint64_t uid) {
  return sendrec(kernel::kPmEp, encode(PM_SETUID, uid)).sarg(0);
}

// --- memory ----------------------------------------------------------------

std::int64_t Sys::brk(std::uint64_t addr) {
  Message r = sendrec(kernel::kPmEp, encode(PM_BRK, addr));
  return r.sarg(0) == OK ? static_cast<std::int64_t>(r.arg[1]) : r.sarg(0);
}

std::int64_t Sys::mmap(std::uint64_t length) {
  Message r = sendrec(kernel::kVmEp, encode(VM_MMAP, proc_.pid_, length));
  return r.sarg(0) == OK ? static_cast<std::int64_t>(r.arg[1]) : r.sarg(0);
}

std::int64_t Sys::munmap(std::int64_t region) {
  return sendrec(kernel::kVmEp, encode(VM_MUNMAP, proc_.pid_, region)).sarg(0);
}

std::int64_t Sys::getmeminfo(std::uint64_t* free_pages, std::uint64_t* total_pages) {
  Message r = sendrec(kernel::kPmEp, encode(PM_GETMEMINFO));
  if (r.sarg(0) != OK) return r.sarg(0);
  if (free_pages != nullptr) *free_pages = r.arg[1];
  if (total_pages != nullptr) *total_pages = r.arg[2];
  return OK;
}

// --- files -------------------------------------------------------------------

std::int64_t Sys::open(std::string_view path, std::uint64_t flags) {
  return sendrec(kernel::kVfsEp, encode_text(VFS_OPEN, path, flags)).sarg(0);
}

std::int64_t Sys::close(std::int64_t fd) {
  return sendrec(kernel::kVfsEp, encode(VFS_CLOSE, fd)).sarg(0);
}

std::int64_t Sys::read(std::int64_t fd, std::span<std::byte> buf) {
  const GrantId g = os_.kern().make_grant(proc_.ep_, kernel::kVfsEp, buf.data(), buf.size(),
                                          Access::kWrite);
  Message r = sendrec(kernel::kVfsEp, encode(VFS_READ, fd, g, buf.size()));
  os_.kern().revoke_grant(g);
  return r.sarg(0);
}

std::int64_t Sys::write(std::int64_t fd, std::span<const std::byte> buf) {
  const GrantId g =
      os_.kern().make_grant(proc_.ep_, kernel::kVfsEp,
                            const_cast<std::byte*>(buf.data()), buf.size(), Access::kRead);
  Message r = sendrec(kernel::kVfsEp, encode(VFS_WRITE, fd, g, buf.size()));
  os_.kern().revoke_grant(g);
  return r.sarg(0);
}

std::int64_t Sys::lseek(std::int64_t fd, std::int64_t offset, int whence) {
  return sendrec(kernel::kVfsEp, encode(VFS_LSEEK, fd, offset, whence)).sarg(0);
}

std::int64_t Sys::stat(std::string_view path, StatResult* out) {
  Message r = sendrec(kernel::kVfsEp, encode_text(VFS_STAT, path));
  if (r.sarg(0) < 0) return r.sarg(0);
  if (out != nullptr) {
    out->size = r.arg[0];
    out->type = r.arg[1];
    out->nlinks = r.arg[2];
  }
  return OK;
}

std::int64_t Sys::fstat(std::int64_t fd, StatResult* out) {
  Message r = sendrec(kernel::kVfsEp, encode(VFS_FSTAT, fd));
  if (r.sarg(0) < 0) return r.sarg(0);
  if (out != nullptr) {
    out->size = r.arg[0];
    out->type = r.arg[1];
    out->nlinks = r.arg[2];
  }
  return OK;
}

std::int64_t Sys::unlink(std::string_view path) {
  return sendrec(kernel::kVfsEp, encode_text(VFS_UNLINK, path)).sarg(0);
}

std::int64_t Sys::mkdir(std::string_view path) {
  return sendrec(kernel::kVfsEp, encode_text(VFS_MKDIR, path)).sarg(0);
}

std::int64_t Sys::rmdir(std::string_view path) {
  return sendrec(kernel::kVfsEp, encode_text(VFS_RMDIR, path)).sarg(0);
}

std::int64_t Sys::rename(std::string_view path, std::string_view new_leaf) {
  const std::string spec = std::string(path) + ":" + std::string(new_leaf);
  return sendrec(kernel::kVfsEp, encode_text(VFS_RENAME, spec)).sarg(0);
}

std::int64_t Sys::readdir(std::string_view path, std::uint64_t index, std::string* name) {
  Message r = sendrec(kernel::kVfsEp, encode_text(VFS_READDIR, path, index));
  if (r.sarg(0) != OK) return r.sarg(0);
  if (name != nullptr) *name = r.text.str();
  return static_cast<std::int64_t>(r.arg[1]);
}

std::int64_t Sys::pipe(std::int64_t fds[2]) {
  Message r = sendrec(kernel::kVfsEp, encode(VFS_PIPE));
  if (r.sarg(0) < 0) return r.sarg(0);
  fds[0] = static_cast<std::int64_t>(r.arg[0]);
  fds[1] = static_cast<std::int64_t>(r.arg[1]);
  return OK;
}

std::int64_t Sys::dup(std::int64_t fd) {
  return sendrec(kernel::kVfsEp, encode(VFS_DUP, fd)).sarg(0);
}

std::int64_t Sys::truncate(std::string_view path, std::uint64_t size) {
  return sendrec(kernel::kVfsEp, encode_text(VFS_TRUNC, path, size)).sarg(0);
}

std::int64_t Sys::fsync() { return sendrec(kernel::kVfsEp, encode(VFS_SYNC)).sarg(0); }

std::int64_t Sys::access(std::string_view path) {
  return sendrec(kernel::kVfsEp, encode_text(VFS_ACCESS, path)).sarg(0);
}

// --- data store ---------------------------------------------------------------

std::int64_t Sys::ds_publish(std::string_view key, std::uint64_t value) {
  return sendrec(kernel::kDsEp, encode_text(DS_PUBLISH, key, value)).sarg(0);
}

std::int64_t Sys::ds_retrieve(std::string_view key, std::uint64_t* value) {
  Message r = sendrec(kernel::kDsEp, encode_text(DS_RETRIEVE, key));
  if (r.sarg(0) != OK) return r.sarg(0);
  if (value != nullptr) *value = r.arg[1];
  return OK;
}

std::int64_t Sys::ds_delete(std::string_view key) {
  return sendrec(kernel::kDsEp, encode_text(DS_DELETE, key)).sarg(0);
}

std::int64_t Sys::ds_subscribe(std::string_view prefix) {
  return sendrec(kernel::kDsEp, encode_text(DS_SUBSCRIBE, prefix)).sarg(0);
}

std::int64_t Sys::ds_check(std::uint64_t* events) {
  Message r = sendrec(kernel::kDsEp, encode(DS_CHECK));
  if (r.sarg(0) != OK) return r.sarg(0);
  if (events != nullptr) *events = r.arg[1];
  return OK;
}

// --- misc ------------------------------------------------------------------

std::int64_t Sys::times(std::uint64_t* ticks) {
  Message r = sendrec(kernel::kPmEp, encode(PM_TIMES));
  if (r.sarg(0) != OK) return r.sarg(0);
  if (ticks != nullptr) *ticks = r.arg[1];
  return OK;
}

std::int64_t Sys::uname(std::string* name) {
  Message r = sendrec(kernel::kPmEp, encode(PM_UNAME));
  if (r.sarg(0) != OK) return r.sarg(0);
  if (name != nullptr) *name = r.text.str();
  return OK;
}

std::int64_t Sys::rs_status(std::int32_t endpoint) {
  Message r = sendrec(kernel::kRsEp, encode(RS_STATUS, endpoint));
  return r.sarg(0) == OK ? static_cast<std::int64_t>(r.arg[1]) : r.sarg(0);
}

}  // namespace osiris::os
