#include "servers/vfs.hpp"

#include <algorithm>
#include <cstring>

#include "support/log.hpp"
#include "trace/trace.hpp"

namespace osiris::servers {

using kernel::E_AGAIN;
using kernel::E_BADF;
using kernel::E_EXIST;
using kernel::E_INVAL;
using kernel::E_ISDIR;
using kernel::E_MFILE;
using kernel::E_NFILE;
using kernel::E_NOENT;
using kernel::E_NOTDIR;
using kernel::E_PIPE;
using kernel::E_SRCH;
using kernel::make_reply;
using kernel::Message;
using kernel::OK;

namespace {
constexpr auto kNpos = static_cast<std::size_t>(-1);
}

Vfs::Vfs(kernel::Kernel& kernel, seep::Policy policy, ckpt::Mode mode, fs::BlockDevice& dev,
         std::size_t cache_blocks)
    : ServerBase(kernel, kernel::kVfsEp, "vfs", policy, mode),
      dev_(dev),
      cache_(cache_blocks),
      store_(*this),
      minifs_(store_) {
  workers_.resize(kVfsWorkers);
  for (std::size_t i = 0; i < kVfsWorkers; ++i) {
    Worker* w = &workers_[i];
    w->fiber = std::make_unique<cothread::Fiber>([this, w] {
      for (;;) {
        if (!w->busy) {
          cothread::Fiber::suspend();
          continue;
        }
        try {
          w->reply = run_fs_op(w->req);
        } catch (...) {
          w->exc = std::current_exception();
          w->reply.reset();
        }
        w->busy = false;
      }
    });
  }
  init_state();
  register_handlers();
}

Vfs::~Vfs() = default;

void Vfs::mount() {
  const std::int64_t r = minifs_.mount();
  OSIRIS_ASSERT(r == OK);
}

void Vfs::register_boot_proc(std::int32_t pid, kernel::Endpoint ep) {
  const std::size_t i = st().procs.alloc();
  OSIRIS_ASSERT(i != decltype(st().procs)::npos);
  auto& t = st().procs.mutate(i);
  t.pid = pid;
  t.ep = ep.value;
  for (auto& fd : t.fds) fd = -1;
}

void Vfs::on_restored(bool /*rolled_back*/) {
  // Cooperative-thread-library fixup (paper SIV-E): the library still thinks
  // the crashed thread is running; repair the current-thread variable and
  // return the worker to the run queue (here: to a clean idle state). The
  // worker's fiber itself already unwound to its top-level loop when the
  // fail-stop exception was captured.
  if (current_worker_ != nullptr) {
    current_worker_->busy = false;
    current_worker_->reply.reset();
    current_worker_->exc = nullptr;
    current_worker_->wait_token = 0;
    current_worker_ = nullptr;
  }
}

// --- CachedStore -----------------------------------------------------------

void Vfs::CachedStore::read_block(std::uint32_t bno,
                                  std::span<std::byte, fs::kBlockSize> out) {
  if (std::byte* hit = vfs_.cache_.lookup(bno); hit != nullptr) {
    std::memcpy(out.data(), hit, fs::kBlockSize);
    return;
  }
  Worker* w = vfs_.current_worker_;
  if (w == nullptr) {
    // Boot path (mount runs before the message loop starts): synchronous read.
    // analyze-suppress(blocking-in-handler): only reachable when no worker is
    // bound, i.e. during mount before dispatch begins — no request, no window.
    vfs_.dev_.read_now(bno, out);
    std::optional<fs::DirtyBlock> evicted_boot;
    vfs_.cache_.insert(bno, std::span<const std::byte, fs::kBlockSize>(out), &evicted_boot);
    return;
  }
  // Miss: fetch from the device. The worker thread yields, which forcibly
  // closes the recovery window (SIV-E). Each in-flight read owns its buffer:
  // several workers may be suspended on the disk at once.
  const std::uint64_t token = vfs_.next_token_++;
  auto staging = std::make_shared<std::array<std::byte, fs::kBlockSize>>();
  kernel::Kernel* k = &vfs_.kern();
  const auto self = vfs_.endpoint();
  vfs_.dev_.submit_read(bno, std::span<std::byte, fs::kBlockSize>(*staging),
                        [k, self, token, staging] {
                          Message done = encode(VFS_DEV_DONE | kernel::kNotifyBit, token);
                          // analyze-suppress(raw-kernel-send): self-directed
                          // completion from the disk callback; the window was
                          // already force-closed by the on_yield() below.
                          k->send(self, self, done);
                        });
  w->wait_token = token;
  vfs_.window().on_yield();
  // analyze-suppress(blocking-in-handler): the canonical SIV-E blocking point
  // — the on_yield() above force-closes the window before parking, so state
  // is consistent while suspended.
  cothread::Fiber::suspend();
  w->wait_token = 0;

  // Another worker may have cached (and dirtied) this block during the wait;
  // its copy is newer than the one just read, so fill() keeps it.
  std::optional<fs::DirtyBlock> evicted;
  std::byte* cached = vfs_.cache_.fill(
      bno, std::span<const std::byte, fs::kBlockSize>(*staging), &evicted);
  if (evicted) {
    // Write back the dirty victim (posted write; no need to wait).
    vfs_.dev_.submit_write(
        evicted->first, std::span<const std::byte, fs::kBlockSize>(evicted->second), [] {});
  }
  std::memcpy(out.data(), cached, fs::kBlockSize);
}

const std::byte* Vfs::CachedStore::peek_block(std::uint32_t bno) {
  // Succeeds exactly when read_block would have hit the cache, so worker
  // parking / recovery-window behaviour is unchanged — only the staging
  // memcpy is elided. A miss is left uncounted: MiniFs falls back to
  // read_block, whose lookup counts it where the block is fetched.
  return vfs_.cache_.peek(bno);
}

void Vfs::CachedStore::write_block(std::uint32_t bno,
                                   std::span<const std::byte, fs::kBlockSize> data) {
  // A filesystem mutation leaves VFS's recoverable data section: it cannot
  // be rolled back by VFS's undo log, so it must close the recovery window
  // (equivalent to a state-modifying SEEP into the FS/driver domain).
  vfs_.window().on_outbound(seep::SeepClass::kStateModifying);
  std::optional<fs::DirtyBlock> evicted;
  vfs_.cache_.insert(bno, data, &evicted, /*dirty=*/true);
  if (evicted) {
    vfs_.dev_.submit_write(evicted->first,
                           std::span<const std::byte, fs::kBlockSize>(evicted->second), [] {});
  }
}

// --- dispatch plumbing -------------------------------------------------------

void Vfs::register_handlers() {
  on_notify(VFS_DEV_DONE, &Vfs::do_dev_done);
  // Inline operations: fd-table/pipe bookkeeping that never touches the disk.
  on(VFS_PM_FORK, &Vfs::do_pm_fork);
  on(VFS_PM_EXIT, &Vfs::do_pm_exit);
  on(VFS_PIPE, &Vfs::do_pipe);
  on(VFS_DUP, &Vfs::do_dup);
  on(VFS_CLOSE, &Vfs::do_close);
  on(VFS_LSEEK, &Vfs::do_lseek);
  // READ/WRITE/FSTAT decide per fd kind whether they stay inline (pipes) or
  // need a worker (regular files).
  on(VFS_READ, &Vfs::do_rw);
  on(VFS_WRITE, &Vfs::do_rw);
  on(VFS_FSTAT, &Vfs::do_rw);
  // Path/disk operations always run on a cooperative worker thread.
  on(VFS_OPEN, &Vfs::do_worker_op);
  on(VFS_STAT, &Vfs::do_worker_op);
  on(VFS_UNLINK, &Vfs::do_worker_op);
  on(VFS_MKDIR, &Vfs::do_worker_op);
  on(VFS_RMDIR, &Vfs::do_worker_op);
  on(VFS_RENAME, &Vfs::do_worker_op);
  on(VFS_READDIR, &Vfs::do_worker_op);
  on(VFS_TRUNC, &Vfs::do_worker_op);
  on(VFS_SYNC, &Vfs::do_worker_op);
  on(VFS_ACCESS, &Vfs::do_worker_op);
  on(VFS_PM_EXEC, &Vfs::do_worker_op);
}

void Vfs::on_message(const Message&) {
  FI_BLOCK("vfs");
  st().ops += 1;
}

std::optional<Message> Vfs::do_dev_done(const Message& m) {
  on_dev_done(MsgView(m).u(0));
  return std::nullopt;
}

std::optional<Message> Vfs::do_rw(const Message& m) {
  std::int64_t err = OK;
  const std::size_t fidx = file_of(m, &err);
  if (fidx == kNpos) return make_reply(m.type, err);
  const FileKind kind = st().files.at(fidx).kind;
  if (kind == FileKind::kPipeRead || kind == FileKind::kPipeWrite) {
    if (m.type == VFS_READ) return do_pipe_read(m, fidx);
    if (m.type == VFS_WRITE) return do_pipe_write(m, fidx);
    return make_reply(m.type, OK);  // fstat on a pipe: no inode, all zero
  }
  return start_or_queue(m);
}

std::optional<Message> Vfs::do_worker_op(const Message& m) { return start_or_queue(m); }

std::optional<Message> Vfs::start_or_queue(const Message& m) {
  FI_BLOCK("vfs");
  for (Worker& w : workers_) {
    if (!w.busy && w.wait_token == 0) {
      w.req = m;
      w.reply.reset();
      w.exc = nullptr;
      w.busy = true;
      return resume_worker(w);
    }
  }
  backlog_.push_back(m);  // all threads busy: queue for the next free worker
  return std::nullopt;
}

std::optional<Message> Vfs::resume_worker(Worker& w) {
  Worker* const prev = current_worker_;
  current_worker_ = &w;
  w.fiber->resume();
  current_worker_ = prev;
  if (auto fe = w.fiber->take_exception()) {
    // The fiber body itself never throws; anything here is a harness bug.
    std::rethrow_exception(fe);
  }
  if (w.exc) {
    // A fail-stop fault hit this worker: re-raise it on the dispatch stack
    // so the kernel contains it at VFS's boundary. current_worker_ is left
    // pointing at the crashed thread for on_restored()'s fixup.
    auto e = w.exc;
    w.exc = nullptr;
    current_worker_ = &w;
    std::rethrow_exception(e);
  }
  if (w.wait_token != 0) return std::nullopt;  // suspended on disk I/O
  std::optional<Message> reply = std::move(w.reply);
  w.reply.reset();
  return reply;
}

void Vfs::on_dev_done(std::uint64_t token) {
  FI_BLOCK("vfs");
  for (Worker& w : workers_) {
    if (w.wait_token == token) {
      const kernel::Endpoint requester = w.req.sender;
      std::optional<Message> reply = resume_worker(w);
      if (reply) seep_deferred_reply(requester, *reply);
      pump_queue();
      return;
    }
  }
  // Stale completion (e.g. the worker was reset by recovery): ignore.
}

void Vfs::pump_queue() {
  while (!backlog_.empty()) {
    Worker* idle = nullptr;
    for (Worker& w : workers_) {
      if (!w.busy && w.wait_token == 0) {
        idle = &w;
        break;
      }
    }
    if (idle == nullptr) return;
    const Message m = backlog_.front();
    backlog_.pop_front();
    idle->req = m;
    idle->reply.reset();
    idle->exc = nullptr;
    idle->busy = true;
    std::optional<Message> reply = resume_worker(*idle);
    if (reply) seep_deferred_reply(m.sender, *reply);
  }
}

// --- fd helpers --------------------------------------------------------------

std::size_t Vfs::fdtable_of_ep(std::int32_t ep) const {
  return st().procs.find([ep](const VfsFdTable& t) { return t.ep == ep; });
}

std::size_t Vfs::fdtable_of_pid(std::int32_t pid) const {
  return st().procs.find([pid](const VfsFdTable& t) { return t.pid == pid; });
}

std::int32_t Vfs::alloc_fd(std::size_t tbl, std::size_t file_idx) {
  for (std::size_t fd = 0; fd < kMaxFds; ++fd) {
    if (st().procs.at(tbl).fds[fd] == -1) {
      st().procs.mutate(tbl).fds[fd] = static_cast<std::int32_t>(file_idx);
      return static_cast<std::int32_t>(fd);
    }
  }
  return -1;
}

std::size_t Vfs::file_of(const Message& m, std::int64_t* err) const {
  const std::size_t tbl = fdtable_of_ep(m.sender.value);
  // Every user process was registered at fork time: a missing fd table
  // means VFS lost state relative to PM — fatal divergence.
  SRV_CHECK(tbl != kNpos, "vfs: request from unknown process (tables out of sync)");
  *err = kernel::OK;
  const auto fd = static_cast<std::int64_t>(m.arg[0]);
  if (fd < 0 || fd >= static_cast<std::int64_t>(kMaxFds) ||
      st().procs.at(tbl).fds[fd] == -1) {
    *err = E_BADF;
    return kNpos;
  }
  return static_cast<std::size_t>(st().procs.at(tbl).fds[fd]);
}

void Vfs::close_file(std::size_t file_idx) {
  const VfsFile f = st().files.at(file_idx);
  SRV_CHECK(f.refcnt >= 1, "vfs: open-file refcount underflow");

  // Pipe end counts mirror descriptor *references* (fork and dup increment
  // them per fd), so every close decrements them — EOF/EPIPE transitions
  // must fire as soon as the last reference of one direction disappears.
  if (f.kind == FileKind::kPipeRead || f.kind == FileKind::kPipeWrite) {
    const auto pidx = static_cast<std::size_t>(f.pipe);
    {
      auto& p = st().pipes.mutate(pidx);
      if (f.kind == FileKind::kPipeRead) {
        SRV_CHECK(p.readers >= 1, "vfs: pipe reader count underflow");
        --p.readers;
      } else {
        SRV_CHECK(p.writers >= 1, "vfs: pipe writer count underflow");
        --p.writers;
      }
    }
    const VfsPipe& p = st().pipes.at(pidx);
    if (f.kind == FileKind::kPipeRead && p.readers == 0) {
      wake_blocked_writer(pidx);  // writer gets E_PIPE
    } else if (f.kind == FileKind::kPipeWrite && p.writers == 0) {
      wake_blocked_reader(pidx);  // reader gets EOF
    }
    if (f.refcnt == 1) {
      st().files.free(file_idx);
      if (st().pipes.at(pidx).readers == 0 && st().pipes.at(pidx).writers == 0) {
        st().pipes.free(pidx);
      }
      return;
    }
    st().files.mutate(file_idx).refcnt = f.refcnt - 1;
    return;
  }

  if (f.refcnt > 1) {
    st().files.mutate(file_idx).refcnt = f.refcnt - 1;
    return;
  }
  st().files.free(file_idx);
}

// --- inline operations -----------------------------------------------------

std::optional<Message> Vfs::do_pm_fork(const Message& m) {
  FI_BLOCK("vfs");
  const auto parent_pid = static_cast<std::int32_t>(m.arg[0]);
  const auto child_pid = static_cast<std::int32_t>(m.arg[1]);
  const auto child_ep = static_cast<std::int32_t>(m.arg[2]);
  const std::size_t ptbl = fdtable_of_pid(parent_pid);
  // PM-VFS process-table agreement is a system invariant; divergence is
  // fatal (it can only follow an inconsistent recovery).
  SRV_CHECK(ptbl != kNpos, "vfs: fork for unknown parent (tables out of sync)");
  SRV_CHECK(fdtable_of_pid(child_pid) == kNpos,
            "vfs: fork child already exists (tables out of sync)");

  const std::size_t ctbl = st().procs.alloc();
  if (ctbl == kNpos) return make_reply(m.type, E_AGAIN);
  const VfsFdTable parent = st().procs.at(ptbl);
  auto& child = st().procs.mutate(ctbl);
  child.pid = child_pid;
  child.ep = child_ep;
  for (std::size_t fd = 0; fd < kMaxFds; ++fd) {
    child.fds[fd] = parent.fds[fd];
    if (parent.fds[fd] != -1) {
      FI_BLOCK("vfs");  // mid-mutation: refcounts half-bumped on crash
      const auto fidx = static_cast<std::size_t>(parent.fds[fd]);
      auto& f = st().files.mutate(fidx);
      ++f.refcnt;
      if (f.kind == FileKind::kPipeRead) {
        st().pipes.mutate(static_cast<std::size_t>(f.pipe)).readers += 1;
      } else if (f.kind == FileKind::kPipeWrite) {
        st().pipes.mutate(static_cast<std::size_t>(f.pipe)).writers += 1;
      }
    }
  }
  FI_BLOCK("vfs");
  return make_reply(m.type, OK);
}

std::optional<Message> Vfs::do_pm_exit(const Message& m) {
  FI_BLOCK("vfs");
  const auto pid = static_cast<std::int32_t>(m.arg[0]);
  const std::size_t tbl = fdtable_of_pid(pid);
  SRV_CHECK(tbl != kNpos, "vfs: exit for unknown process (tables out of sync)");
  for (std::size_t fd = 0; fd < kMaxFds; ++fd) {
    const std::int32_t fidx = st().procs.at(tbl).fds[fd];
    if (fidx != -1) {
      FI_BLOCK("vfs");  // mid-mutation: some fds closed, some not
      st().procs.mutate(tbl).fds[fd] = -1;
      close_file(static_cast<std::size_t>(fidx));
    }
  }
  // Blocked pipe reads and writes die with the process, or the next write
  // (read) would hand its bytes (space) to a dead endpoint.
  const std::int32_t ep = st().procs.at(tbl).ep;
  for (std::size_t i = 0; i < kMaxPipes; ++i) {
    if (!st().pipes.in_use(i)) continue;
    const VfsPipe& p = st().pipes.at(i);
    if (p.rwait.blocked && p.rwait.requester_ep == ep) st().pipes.mutate(i).rwait = {};
    if (p.wwait.blocked && p.wwait.requester_ep == ep) st().pipes.mutate(i).wwait = {};
  }
  st().procs.free(tbl);
  return make_reply(m.type, OK);
}

std::optional<Message> Vfs::do_pipe(const Message& m) {
  FI_BLOCK("vfs");
  const std::size_t tbl = fdtable_of_ep(m.sender.value);
  if (tbl == kNpos) return make_reply(m.type, E_SRCH);
  const std::size_t pidx = st().pipes.alloc();
  if (pidx == kNpos) return make_reply(m.type, E_NFILE);

  const std::size_t rf = st().files.alloc();
  const std::size_t wf = st().files.alloc();
  if (rf == kNpos || wf == kNpos) {
    if (rf != kNpos) st().files.free(rf);
    if (wf != kNpos) st().files.free(wf);
    st().pipes.free(pidx);
    return make_reply(m.type, E_NFILE);
  }
  auto& p = st().pipes.mutate(pidx);
  p.readers = 1;
  p.writers = 1;
  auto& fr = st().files.mutate(rf);
  fr.kind = FileKind::kPipeRead;
  fr.refcnt = 1;
  fr.pipe = static_cast<std::int32_t>(pidx);
  auto& fw = st().files.mutate(wf);
  fw.kind = FileKind::kPipeWrite;
  fw.refcnt = 1;
  fw.pipe = static_cast<std::int32_t>(pidx);

  const std::int32_t rfd = alloc_fd(tbl, rf);
  const std::int32_t wfd = alloc_fd(tbl, wf);
  if (rfd < 0 || wfd < 0) {
    if (rfd >= 0) st().procs.mutate(tbl).fds[rfd] = -1;
    st().files.free(rf);
    st().files.free(wf);
    st().pipes.free(pidx);
    return make_reply(m.type, E_MFILE);
  }
  FI_BLOCK("vfs");
  Message r = make_reply(m.type, OK);
  r.arg[0] = static_cast<std::uint64_t>(rfd);
  r.arg[1] = static_cast<std::uint64_t>(wfd);
  return r;
}

std::optional<Message> Vfs::do_dup(const Message& m) {
  FI_BLOCK("vfs");
  std::int64_t err = OK;
  const std::size_t fidx = file_of(m, &err);
  if (fidx == kNpos) return make_reply(m.type, err);
  const std::size_t tbl = fdtable_of_ep(m.sender.value);
  const std::int32_t nfd = alloc_fd(tbl, fidx);
  if (nfd < 0) return make_reply(m.type, E_MFILE);
  auto& f = st().files.mutate(fidx);
  ++f.refcnt;
  if (f.kind == FileKind::kPipeRead) {
    st().pipes.mutate(static_cast<std::size_t>(f.pipe)).readers += 1;
  } else if (f.kind == FileKind::kPipeWrite) {
    st().pipes.mutate(static_cast<std::size_t>(f.pipe)).writers += 1;
  }
  return make_reply(m.type, nfd);
}

std::optional<Message> Vfs::do_close(const Message& m) {
  FI_BLOCK("vfs");
  std::int64_t err = OK;
  const std::size_t fidx = file_of(m, &err);
  if (fidx == kNpos) return make_reply(m.type, err);
  const std::size_t tbl = fdtable_of_ep(m.sender.value);
  st().procs.mutate(tbl).fds[m.arg[0]] = -1;
  close_file(fidx);
  return make_reply(m.type, OK);
}

std::optional<Message> Vfs::do_lseek(const Message& m) {
  FI_BLOCK("vfs");
  std::int64_t err = OK;
  const std::size_t fidx = file_of(m, &err);
  if (fidx == kNpos) return make_reply(m.type, err);
  const VfsFile& f = st().files.at(fidx);
  if (f.kind != FileKind::kRegular) return make_reply(m.type, E_PIPE);
  const auto offset = static_cast<std::int64_t>(m.arg[1]);
  const auto whence = static_cast<std::int64_t>(m.arg[2]);  // 0=SET, 1=CUR
  std::int64_t pos = whence == 1 ? static_cast<std::int64_t>(f.pos) + offset : offset;
  if (pos < 0) return make_reply(m.type, E_INVAL);
  st().files.mutate(fidx).pos = static_cast<std::uint32_t>(pos);
  return make_reply(m.type, pos);
}

// --- pipes ----------------------------------------------------------------
//
// A transfer moves at most kPipeBuf bytes, so the handlers below stage it in
// a stack buffer of that size and allocate nothing. The buffer is left
// uninitialized: a handler reads back only the n bytes it has just written.

std::uint32_t Vfs::pipe_copy_in(std::size_t pipe_idx, const std::byte* src, std::uint32_t n) {
  auto& p = st().pipes.mutate(pipe_idx);
  const auto base = static_cast<std::uint32_t>(pipe_idx * kPipeBuf);
  std::uint32_t done = 0;
  while (done < n) {
    const std::uint32_t wpos = (p.rpos + p.used) % kPipeBuf;
    const std::uint32_t chunk =
        std::min<std::uint32_t>(n - done, static_cast<std::uint32_t>(kPipeBuf) - wpos);
    st().pipe_data.store_range(base + wpos, reinterpret_cast<const std::uint8_t*>(src) + done,
                               chunk);
    p.used += chunk;
    done += chunk;
  }
  return done;
}

std::uint32_t Vfs::pipe_copy_out(std::size_t pipe_idx, std::byte* dst, std::uint32_t n) {
  auto& p = st().pipes.mutate(pipe_idx);
  const auto base = static_cast<std::uint32_t>(pipe_idx * kPipeBuf);
  std::uint32_t done = 0;
  while (done < n) {
    const std::uint32_t chunk =
        std::min<std::uint32_t>(n - done, static_cast<std::uint32_t>(kPipeBuf) - p.rpos);
    std::memcpy(dst + done, st().pipe_data.raw() + base + p.rpos, chunk);
    p.rpos = (p.rpos + chunk) % kPipeBuf;
    p.used -= chunk;
    done += chunk;
  }
  return done;
}

std::optional<Message> Vfs::do_pipe_read(const Message& m, std::size_t file_idx) {
  FI_BLOCK("vfs");
  const VfsFile& f = st().files.at(file_idx);
  if (f.kind != FileKind::kPipeRead) return make_reply(m.type, E_BADF);
  const auto pidx = static_cast<std::size_t>(f.pipe);
  const VfsPipe& p = st().pipes.at(pidx);
  const auto want = static_cast<std::uint32_t>(std::min<std::uint64_t>(m.arg[2], kPipeBuf));

  if (p.used == 0) {
    if (p.writers == 0) return make_reply(m.type, 0);  // EOF
    if (p.rwait.blocked) return make_reply(m.type, E_AGAIN);  // one waiter max
    auto& mp = st().pipes.mutate(pidx);
    mp.rwait.blocked = true;
    mp.rwait.requester_ep = m.sender.value;
    mp.rwait.grant = m.arg[1];
    mp.rwait.len = want;
    mp.rwait.msgtype = m.type;
    return std::nullopt;  // deferred until a writer produces data
  }

  const std::uint32_t n = std::min(want, p.used);
  std::array<std::byte, kPipeBuf> tmp;
  pipe_copy_out(pidx, tmp.data(), n);
  const std::int64_t copied = kern().safecopy_to(endpoint(), m.arg[1], 0, tmp.data(), n);
  if (copied < 0) return make_reply(m.type, copied);
  st().bytes_read += n;
  wake_blocked_writer(pidx);
  FI_BLOCK("vfs");
  return make_reply(m.type, n);
}

std::optional<Message> Vfs::do_pipe_write(const Message& m, std::size_t file_idx) {
  FI_BLOCK("vfs");
  const VfsFile& f = st().files.at(file_idx);
  if (f.kind != FileKind::kPipeWrite) return make_reply(m.type, E_BADF);
  const auto pidx = static_cast<std::size_t>(f.pipe);
  const VfsPipe& p = st().pipes.at(pidx);
  if (p.readers == 0) return make_reply(m.type, E_PIPE);
  const auto want = static_cast<std::uint32_t>(std::min<std::uint64_t>(m.arg[2], kPipeBuf));
  const std::uint32_t space = static_cast<std::uint32_t>(kPipeBuf) - p.used;

  if (space == 0) {
    if (p.wwait.blocked) return make_reply(m.type, E_AGAIN);
    auto& mp = st().pipes.mutate(pidx);
    mp.wwait.blocked = true;
    mp.wwait.requester_ep = m.sender.value;
    mp.wwait.grant = m.arg[1];
    mp.wwait.len = want;
    mp.wwait.msgtype = m.type;
    return std::nullopt;  // deferred until a reader drains the pipe
  }

  const std::uint32_t n = std::min(want, space);
  std::array<std::byte, kPipeBuf> tmp;
  const std::int64_t copied = kern().safecopy_from(endpoint(), m.arg[1], 0, tmp.data(), n);
  if (copied < 0) return make_reply(m.type, copied);
  pipe_copy_in(pidx, tmp.data(), n);
  st().bytes_written += n;
  wake_blocked_reader(pidx);
  FI_BLOCK("vfs");
  return make_reply(m.type, n);
}

void Vfs::wake_blocked_reader(std::size_t pipe_idx) {
  const VfsPipe& p = st().pipes.at(pipe_idx);
  if (!p.rwait.blocked) return;
  const VfsPipeWaiter waiter = p.rwait;
  st().pipes.mutate(pipe_idx).rwait = VfsPipeWaiter{};

  if (p.used == 0 && p.writers == 0) {
    seep_deferred_reply(kernel::Endpoint{waiter.requester_ep}, make_reply(waiter.msgtype, 0));
    return;
  }
  if (p.used == 0) {
    // Spurious wake: re-block.
    st().pipes.mutate(pipe_idx).rwait = waiter;
    return;
  }
  const std::uint32_t n = std::min(waiter.len, p.used);
  std::array<std::byte, kPipeBuf> tmp;
  pipe_copy_out(pipe_idx, tmp.data(), n);
  const std::int64_t copied = kern().safecopy_to(endpoint(), waiter.grant, 0, tmp.data(), n);
  st().bytes_read += n;
  seep_deferred_reply(kernel::Endpoint{waiter.requester_ep},
                      make_reply(waiter.msgtype, copied < 0 ? copied : n));
}

void Vfs::wake_blocked_writer(std::size_t pipe_idx) {
  const VfsPipe& p = st().pipes.at(pipe_idx);
  if (!p.wwait.blocked) return;
  const VfsPipeWaiter waiter = p.wwait;
  st().pipes.mutate(pipe_idx).wwait = VfsPipeWaiter{};

  if (p.readers == 0) {
    seep_deferred_reply(kernel::Endpoint{waiter.requester_ep},
                        make_reply(waiter.msgtype, E_PIPE));
    return;
  }
  const std::uint32_t space = static_cast<std::uint32_t>(kPipeBuf) - p.used;
  if (space == 0) {
    // analyze-suppress(mutate-after-send): re-parks an already-parked writer
    // (the waiter record it stores is the one just read from this pipe);
    // replay after a post-close crash rewrites the identical record.
    st().pipes.mutate(pipe_idx).wwait = waiter;
    return;
  }
  const std::uint32_t n = std::min(waiter.len, space);
  std::array<std::byte, kPipeBuf> tmp;
  const std::int64_t copied = kern().safecopy_from(endpoint(), waiter.grant, 0, tmp.data(), n);
  if (copied >= 0) {
    pipe_copy_in(pipe_idx, tmp.data(), n);
    st().bytes_written += n;
    wake_blocked_reader(pipe_idx);
  }
  seep_deferred_reply(kernel::Endpoint{waiter.requester_ep},
                      make_reply(waiter.msgtype, copied < 0 ? copied : n));
}

// --- worker-side filesystem operations ------------------------------------

kernel::Message Vfs::run_fs_op(const Message& m) {
  FI_BLOCK("vfs");
  switch (m.type) {
    case VFS_OPEN:
      return fs_open(m);
    case VFS_READ: {
      std::int64_t err = OK;
      const std::size_t fidx = file_of(m, &err);
      if (fidx == kNpos) return make_reply(m.type, err);
      return fs_read(m, fidx);
    }
    case VFS_WRITE: {
      std::int64_t err = OK;
      const std::size_t fidx = file_of(m, &err);
      if (fidx == kNpos) return make_reply(m.type, err);
      return fs_write(m, fidx);
    }
    case VFS_FSTAT: {
      std::int64_t err = OK;
      const std::size_t fidx = file_of(m, &err);
      if (fidx == kNpos) return make_reply(m.type, err);
      return stat_reply(m, st().files.at(fidx).ino);
    }
    case VFS_STAT:
    case VFS_ACCESS:
      return fs_stat(m);
    case VFS_UNLINK: {
      fs::Ino dir = fs::kNoIno;
      std::string_view leaf;
      std::int64_t r = minifs_.resolve_parent(m.text.view(), &dir, &leaf);
      if (r == OK) r = minifs_.unlink(dir, leaf);
      FI_BLOCK("vfs");
      if (r == OK) {
        // Post-unlink audit (window already closed by the FS mutation).
        FI_BLOCK("vfs");
        SRV_CHECK(minifs_.lookup(dir, leaf) == E_NOENT, "vfs: unlinked name still resolves");
        FI_BLOCK("vfs");
      }
      return make_reply(m.type, r);
    }
    case VFS_MKDIR: {
      fs::Ino dir = fs::kNoIno;
      std::string_view leaf;
      std::int64_t r = minifs_.resolve_parent(m.text.view(), &dir, &leaf);
      if (r == OK) r = minifs_.create(dir, leaf, fs::FileType::kDirectory);
      FI_BLOCK("vfs");
      if (r > 0) {
        FI_BLOCK("vfs");
        fs::Attr attr{};
        SRV_CHECK(minifs_.getattr(static_cast<fs::Ino>(r), &attr) == OK &&
                      attr.type == fs::FileType::kDirectory,
                  "vfs: mkdir produced a non-directory");
        FI_BLOCK("vfs");
      }
      return make_reply(m.type, r < 0 ? r : OK);
    }
    case VFS_RMDIR: {
      fs::Ino dir = fs::kNoIno;
      std::string_view leaf;
      std::int64_t r = minifs_.resolve_parent(m.text.view(), &dir, &leaf);
      if (r == OK) r = minifs_.rmdir(dir, leaf);
      return make_reply(m.type, r);
    }
    case VFS_RENAME: {
      // text = "path-old:new-leaf" (rename within one directory).
      const std::string_view spec = m.text.view();
      const std::size_t colon = spec.find(':');
      if (colon == std::string_view::npos) return make_reply(m.type, E_INVAL);
      fs::Ino dir = fs::kNoIno;
      std::string_view leaf;
      std::int64_t r = minifs_.resolve_parent(spec.substr(0, colon), &dir, &leaf);
      if (r == OK) r = minifs_.rename(dir, leaf, spec.substr(colon + 1));
      return make_reply(m.type, r);
    }
    case VFS_READDIR: {
      const std::int64_t ino = minifs_.resolve(m.text.view());
      if (ino < 0) return make_reply(m.type, ino);
      const auto entry = minifs_.readdir(static_cast<fs::Ino>(ino), m.arg[0]);
      if (!entry) return make_reply(m.type, E_NOENT);
      Message r = make_reply(m.type, OK);
      r.text.assign(entry->name);
      r.arg[1] = entry->ino;
      return r;
    }
    case VFS_TRUNC: {
      const std::int64_t ino = minifs_.resolve(m.text.view());
      if (ino < 0) return make_reply(m.type, ino);
      return make_reply(m.type, minifs_.truncate(static_cast<fs::Ino>(ino),
                                                 static_cast<std::uint32_t>(m.arg[0])));
    }
    case VFS_SYNC:
      return fs_sync(m);
    case VFS_PM_EXEC: {
      FI_BLOCK("vfs");
      // Binary check for PM: read-only (classification: non-state-modifying).
      const std::int64_t ino = minifs_.resolve(m.text.view());
      Message r = make_reply(m.type, ino < 0 ? ino : OK);
      r.arg[1] = m.arg[1];  // correlation pid travels back to PM
      return r;
    }
    default:
      return make_reply(m.type, kernel::E_NOSYS);
  }
}

kernel::Message Vfs::fs_open(const Message& m) {
  FI_BLOCK("vfs");
  const std::uint64_t flags = m.arg[0];
  std::int64_t ino = minifs_.resolve(m.text.view());
  if (ino == E_NOENT && (flags & O_CREAT) != 0) {
    fs::Ino dir = fs::kNoIno;
    std::string_view leaf;
    std::int64_t r = minifs_.resolve_parent(m.text.view(), &dir, &leaf);
    if (r != OK) return make_reply(m.type, r);
    ino = minifs_.create(dir, leaf, fs::FileType::kRegular);
  }
  if (ino < 0) return make_reply(m.type, ino);

  fs::Attr attr{};
  std::int64_t r = minifs_.getattr(static_cast<fs::Ino>(ino), &attr);
  if (r != OK) return make_reply(m.type, r);
  if (attr.type == fs::FileType::kDirectory && (flags & (O_WRONLY | O_RDWR)) != 0) {
    return make_reply(m.type, E_ISDIR);
  }
  if ((flags & O_TRUNC) != 0 && attr.type == fs::FileType::kRegular) {
    r = minifs_.truncate(static_cast<fs::Ino>(ino), 0);
    if (r != OK) return make_reply(m.type, r);
    attr.size = 0;
  }

  const std::size_t tbl = fdtable_of_ep(m.sender.value);
  if (tbl == kNpos) return make_reply(m.type, E_SRCH);
  // analyze-suppress(mutate-after-send): fd bookkeeping is deliberately
  // ordered after the on-disk transaction (block writes are idempotent, so a
  // post-close replay re-runs the disk path and re-allocates; at worst one
  // fd slot leaks until the table is swept — never inconsistent disk state).
  const std::size_t fidx = st().files.alloc();
  if (fidx == kNpos) return make_reply(m.type, E_NFILE);
  auto& f = st().files.mutate(fidx);
  f.kind = FileKind::kRegular;
  f.ino = static_cast<fs::Ino>(ino);
  f.flags = static_cast<std::uint32_t>(flags);
  f.pos = (flags & O_APPEND) != 0 ? attr.size : 0;
  f.refcnt = 1;
  const std::int32_t fd = alloc_fd(tbl, fidx);
  if (fd < 0) {
    st().files.free(fidx);
    return make_reply(m.type, E_MFILE);
  }
  FI_BLOCK("vfs");
  if ((flags & (O_CREAT | O_TRUNC)) != 0) {
    // Creation/truncation mutated the FS: audit runs past the window.
    FI_BLOCK("vfs");
    SRV_CHECK(st().files.at(fidx).refcnt == 1, "vfs: fresh open-file refcount wrong");
    FI_BLOCK("vfs");
    const std::size_t tbl2 = fdtable_of_ep(m.sender.value);
    FI_BLOCK("vfs");
    SRV_CHECK(tbl2 != kNpos && st().procs.at(tbl2).fds[fd] == static_cast<std::int32_t>(fidx),
              "vfs: fd table entry lost after open");
    FI_BLOCK("vfs");
  }
  return make_reply(m.type, fd);
}

kernel::Message Vfs::fs_read(const Message& m, std::size_t file_idx) {
  FI_BLOCK("vfs");
  const VfsFile& f = st().files.at(file_idx);
  const auto len = static_cast<std::size_t>(m.arg[2]);
  // Bulk zero-copy (DESIGN.md §14): the file system reads straight from the
  // cache into the kernel-checked grant span — one copy, no staging buffer.
  // The logical grant copy is noted where a safecopy_to would run.
  std::int64_t err = OK;
  std::byte* dst = kern().grant_span(endpoint(), m.arg[1], 0, len, kernel::Access::kWrite, &err);
  std::int64_t n = 0;
  if (dst != nullptr) {
    n = minifs_.read(f.ino, f.pos, std::span<std::byte>(dst, len));
    if (n < 0) return make_reply(m.type, n);
    kern().note_grant_bypass(endpoint(), static_cast<std::size_t>(n), /*dir: to grant*/ 1);
  } else {
    // A grant shorter than `len` still serves a read that the file's tail
    // cuts short, so a refused span falls back to staging and copies only
    // the bytes read; safecopy_to then reports any other refusal. No file
    // holds more than kMaxFileSize, so neither does the staging buffer,
    // whatever length the request names.
    std::vector<std::byte> tmp(std::min(len, fs::kMaxFileSize));
    n = minifs_.read(f.ino, f.pos, std::span<std::byte>(tmp.data(), tmp.size()));
    if (n < 0) return make_reply(m.type, n);
    const std::int64_t copied =
        kern().safecopy_to(endpoint(), m.arg[1], 0, tmp.data(), static_cast<std::size_t>(n));
    if (copied < 0) return make_reply(m.type, copied);
  }
  st().files.mutate(file_idx).pos = f.pos + static_cast<std::uint32_t>(n);
  st().bytes_read += static_cast<std::uint64_t>(n);
  FI_BLOCK("vfs");
  return make_reply(m.type, n);
}

kernel::Message Vfs::fs_write(const Message& m, std::size_t file_idx) {
  FI_BLOCK("vfs");
  const VfsFile& f = st().files.at(file_idx);
  if ((f.flags & (O_WRONLY | O_RDWR)) == 0) return make_reply(m.type, E_BADF);
  const auto len = static_cast<std::size_t>(m.arg[2]);
  // Bulk zero-copy mirror of fs_read: the file system consumes the payload
  // directly from the grant span. A refused span fails exactly as
  // safecopy_from would; the logical copy is noted where safecopy_from would
  // run (before the append probe and the write).
  std::int64_t err = OK;
  const std::byte* src =
      kern().grant_span(endpoint(), m.arg[1], 0, len, kernel::Access::kRead, &err);
  if (src == nullptr) return make_reply(m.type, err);
  kern().note_grant_bypass(endpoint(), len, /*dir: from grant*/ 0);

  std::uint32_t pos = f.pos;
  if ((f.flags & O_APPEND) != 0) {
    fs::Attr attr{};
    if (minifs_.getattr(f.ino, &attr) == OK) pos = attr.size;
  }
  const std::int64_t n = minifs_.write(f.ino, pos, std::span<const std::byte>(src, len));
  if (n < 0) return make_reply(m.type, n);
  st().files.mutate(file_idx).pos = pos + static_cast<std::uint32_t>(n);
  st().bytes_written += static_cast<std::uint64_t>(n);
  FI_BLOCK("vfs");
  // Post-write audit: the file must have grown to cover the write (all of
  // this runs after the FS mutation closed the recovery window).
  fs::Attr attr{};
  FI_BLOCK("vfs");
  SRV_CHECK(minifs_.getattr(f.ino, &attr) == OK, "vfs: written file vanished");
  FI_BLOCK("vfs");
  SRV_CHECK(attr.size >= pos + static_cast<std::uint32_t>(n), "vfs: write did not extend file");
  FI_BLOCK("vfs");
  SRV_CHECK(st().files.at(file_idx).pos <= fs::kMaxFileSize, "vfs: file offset out of range");
  FI_BLOCK("vfs");
  st().ops += 1;
  FI_BLOCK("vfs");
  return make_reply(m.type, n);
}

kernel::Message Vfs::fs_stat(const Message& m) {
  FI_BLOCK("vfs");
  const std::int64_t ino = minifs_.resolve(m.text.view());
  if (ino < 0) return make_reply(m.type, ino);
  if (m.type == VFS_ACCESS) return make_reply(m.type, OK);
  return stat_reply(m, static_cast<fs::Ino>(ino));
}

kernel::Message Vfs::stat_reply(const Message& m, fs::Ino ino) {
  fs::Attr attr{};
  const std::int64_t r = minifs_.getattr(ino, &attr);
  if (r != OK) return make_reply(m.type, r);
  Message out = make_reply(m.type, OK);
  out.arg[0] = attr.size;
  out.arg[1] = static_cast<std::uint64_t>(attr.type);
  out.arg[2] = attr.nlinks;
  return out;
}

kernel::Message Vfs::fs_sync(const Message& m) {
  FI_BLOCK("vfs");
  // Flushing dirty blocks mutates the FS domain: window closes.
  window().on_outbound(seep::SeepClass::kStateModifying);
  for (auto& [bno, data] : cache_.take_dirty()) {
    dev_.submit_write(bno, std::span<const std::byte, fs::kBlockSize>(data), [] {});
  }
  return make_reply(m.type, OK);
}

}  // namespace osiris::servers
