#include "os/mono.hpp"

#include <algorithm>
#include <cstring>

#include "servers/protocol.hpp"
#include "support/common.hpp"

namespace osiris::os {

using kernel::E_AGAIN;
using kernel::E_BADF;
using kernel::E_CHILD;
using kernel::E_INVAL;
using kernel::E_ISDIR;
using kernel::E_MFILE;
using kernel::E_NFILE;
using kernel::E_NOENT;
using kernel::E_PIPE;
using kernel::E_SRCH;
using kernel::OK;

namespace {
constexpr std::size_t kMonoMaxFds = 16;
constexpr std::size_t kMonoPipeCap = 4096;
}  // namespace

/// Per-process ISys over the shared monolithic kernel state.
class MonoSys final : public ISys {
 public:
  MonoSys(MonoOs& os, MonoOs::Proc& proc) : os_(os), p_(proc) {}

  std::int64_t fork(ProcBody body) override {
    check_killed();
    MonoOs::Proc* child = os_.spawn(p_.pid, p_.name + "+", std::move(body));
    if (child == nullptr) return E_AGAIN;
    // Inherit fds.
    child->fds = p_.fds;
    for (std::int32_t fidx : child->fds) {
      if (fidx >= 0) {
        auto& f = os_.files_[fidx];
        ++f.refcnt;
        if (f.is_pipe_read) ++os_.pipes_[f.pipe].readers;
        if (f.is_pipe_write) ++os_.pipes_[f.pipe].writers;
      }
    }
    child->brk = p_.brk;
    os_.mark_ready(child);
    return child->pid;
  }

  std::int64_t exec(std::string_view path) override {
    check_killed();
    const ProgramRegistry::Body* body = os_.programs_.find(path);
    // Binary check against the same on-disk /bin as the multiserver system.
    std::int64_t ino = resolve(path);
    if (ino < 0) return ino;
    if (body == nullptr) return E_NOENT;
    p_.name = std::string(path);
    p_.brk = 0x10000;
    const std::int64_t rc = (*body)(*this);
    exit(rc);
  }

  void exit(std::int64_t status) override {
    check_killed();
    os_.terminate(&p_, status);
    throw ProcExit{status};
  }

  std::int64_t wait_pid(std::int64_t pid, std::int64_t* status) override {
    check_killed();
    for (;;) {
      bool have_children = false;
      for (auto& c : os_.procs_) {
        if (c->parent != p_.pid) continue;
        if (pid != 0 && c->pid != pid) continue;
        have_children = true;
        if (c->zombie) {
          if (status != nullptr) *status = c->exit_status;
          const std::int64_t got = c->pid;
          c->done = true;
          c->parent = -1;  // reaped
          return got;
        }
      }
      if (!have_children) return E_CHILD;
      p_.waiting = true;
      p_.wait_target = static_cast<std::int32_t>(pid);
      block();
      p_.waiting = false;
    }
  }

  std::int64_t getpid() override { return tick(), p_.pid; }
  std::int64_t getppid() override { return tick(), p_.parent; }

  std::int64_t kill(std::int64_t pid, std::uint64_t sig) override {
    tick();
    if (sig == 0 || sig >= 64) return E_INVAL;
    MonoOs::Proc* t = os_.proc_of_pid(static_cast<std::int32_t>(pid));
    if (t == nullptr || t->zombie) return E_SRCH;
    t->pending_sigs |= (1ULL << sig);
    if (sig == servers::kSigKill) {
      t->killed = true;
      os_.terminate(t, -static_cast<std::int64_t>(sig));
      os_.mark_ready(t);  // let it unwind
    }
    return OK;
  }

  std::int64_t sigaction(std::uint64_t sig, bool handle) override {
    tick();
    if (sig == 0 || sig >= 64 || sig == servers::kSigKill) return E_INVAL;
    if (handle) p_.handled_sigs |= (1ULL << sig);
    else p_.handled_sigs &= ~(1ULL << sig);
    return OK;
  }

  std::int64_t sigpending(std::uint64_t* mask) override {
    tick();
    if (mask != nullptr) *mask = p_.pending_sigs;
    p_.pending_sigs = 0;
    return OK;
  }

  std::int64_t procstat(std::int64_t pid) override {
    tick();
    MonoOs::Proc* t = os_.proc_of_pid(static_cast<std::int32_t>(pid));
    if (t == nullptr) return E_SRCH;
    return t->zombie ? 2 : 1;
  }

  std::int64_t getuid() override { return tick(), 0; }
  std::int64_t setuid(std::uint64_t) override { return tick(), OK; }

  std::int64_t brk(std::uint64_t addr) override {
    tick();
    if (addr < 0x10000) return E_INVAL;
    p_.brk = addr;
    return static_cast<std::int64_t>(addr);
  }
  std::int64_t mmap(std::uint64_t length) override {
    tick();
    return length == 0 ? E_INVAL : 1;
  }
  std::int64_t munmap(std::int64_t) override { return tick(), OK; }
  std::int64_t getmeminfo(std::uint64_t* free_pages, std::uint64_t* total) override {
    tick();
    if (free_pages != nullptr) *free_pages = os_.free_pages_;
    if (total != nullptr) *total = 16384;
    return OK;
  }

  // --- files ----------------------------------------------------------

  std::int64_t open(std::string_view path, std::uint64_t flags) override {
    tick();
    std::int64_t ino = resolve(path);
    if (ino == E_NOENT && (flags & servers::O_CREAT) != 0) {
      fs::Ino dir = fs::kNoIno;
      std::string_view leaf;
      std::int64_t r = resolve_parent(path, &dir, &leaf);
      if (r != OK) return r;
      ino = os_.fs_->create(dir, leaf, fs::FileType::kRegular);
    }
    if (ino < 0) return ino;
    fs::Attr attr{};
    std::int64_t r = os_.fs_->getattr(static_cast<fs::Ino>(ino), &attr);
    if (r != OK) return r;
    if (attr.type == fs::FileType::kDirectory &&
        (flags & (servers::O_WRONLY | servers::O_RDWR)) != 0) {
      return E_ISDIR;
    }
    if ((flags & servers::O_TRUNC) != 0 && attr.type == fs::FileType::kRegular) {
      os_.fs_->truncate(static_cast<fs::Ino>(ino), 0);
      attr.size = 0;
    }
    const std::int64_t fidx = alloc_file();
    if (fidx < 0) return E_NFILE;
    auto& f = os_.files_[fidx];
    f.used = true;
    f.ino = static_cast<fs::Ino>(ino);
    f.flags = static_cast<std::uint32_t>(flags);
    f.pos = (flags & servers::O_APPEND) != 0 ? attr.size : 0;
    f.refcnt = 1;
    const std::int64_t fd = alloc_fd(static_cast<std::int32_t>(fidx));
    if (fd < 0) {
      f.used = false;
      return E_MFILE;
    }
    return fd;
  }

  std::int64_t close(std::int64_t fd) override {
    tick();
    const std::int64_t fidx = file_of(fd);
    if (fidx < 0) return fidx;
    p_.fds[fd] = -1;
    os_.close_filei(static_cast<std::size_t>(fidx));
    return OK;
  }

  std::int64_t read(std::int64_t fd, std::span<std::byte> buf) override {
    tick();
    const std::int64_t fidx = file_of(fd);
    if (fidx < 0) return fidx;
    auto& f = os_.files_[fidx];
    if (f.is_pipe_read) return pipe_read(f, buf);
    if (f.is_pipe_write) return E_BADF;
    const std::int64_t n = os_.fs_->read(f.ino, f.pos, buf);
    if (n > 0) f.pos += static_cast<std::uint32_t>(n);
    return n;
  }

  std::int64_t write(std::int64_t fd, std::span<const std::byte> buf) override {
    tick();
    const std::int64_t fidx = file_of(fd);
    if (fidx < 0) return fidx;
    auto& f = os_.files_[fidx];
    if (f.is_pipe_write) return pipe_write(f, buf);
    if (f.is_pipe_read) return E_BADF;
    if ((f.flags & (servers::O_WRONLY | servers::O_RDWR)) == 0) return E_BADF;
    std::uint32_t pos = f.pos;
    if ((f.flags & servers::O_APPEND) != 0) {
      fs::Attr attr{};
      if (os_.fs_->getattr(f.ino, &attr) == OK) pos = attr.size;
    }
    const std::int64_t n = os_.fs_->write(f.ino, pos, buf);
    if (n > 0) f.pos = pos + static_cast<std::uint32_t>(n);
    return n;
  }

  std::int64_t lseek(std::int64_t fd, std::int64_t offset, int whence) override {
    tick();
    const std::int64_t fidx = file_of(fd);
    if (fidx < 0) return fidx;
    auto& f = os_.files_[fidx];
    if (f.is_pipe_read || f.is_pipe_write) return E_PIPE;
    const std::int64_t pos = whence == 1 ? static_cast<std::int64_t>(f.pos) + offset : offset;
    if (pos < 0) return E_INVAL;
    f.pos = static_cast<std::uint32_t>(pos);
    return pos;
  }

  std::int64_t stat(std::string_view path, StatResult* out) override {
    tick();
    const std::int64_t ino = resolve(path);
    if (ino < 0) return ino;
    fs::Attr attr{};
    const std::int64_t r = os_.fs_->getattr(static_cast<fs::Ino>(ino), &attr);
    if (r != OK) return r;
    if (out != nullptr) {
      out->size = attr.size;
      out->type = static_cast<std::uint64_t>(attr.type);
      out->nlinks = attr.nlinks;
    }
    return OK;
  }

  std::int64_t fstat(std::int64_t fd, StatResult* out) override {
    tick();
    const std::int64_t fidx = file_of(fd);
    if (fidx < 0) return fidx;
    auto& f = os_.files_[fidx];
    if (f.is_pipe_read || f.is_pipe_write) {
      if (out != nullptr) *out = StatResult{};
      return OK;
    }
    fs::Attr attr{};
    const std::int64_t r = os_.fs_->getattr(f.ino, &attr);
    if (r != OK) return r;
    if (out != nullptr) {
      out->size = attr.size;
      out->type = static_cast<std::uint64_t>(attr.type);
      out->nlinks = attr.nlinks;
    }
    return OK;
  }

  std::int64_t unlink(std::string_view path) override { return parent_op(path, 0); }
  std::int64_t mkdir(std::string_view path) override { return parent_op(path, 1); }
  std::int64_t rmdir(std::string_view path) override { return parent_op(path, 2); }

  std::int64_t rename(std::string_view path, std::string_view new_leaf) override {
    tick();
    fs::Ino dir = fs::kNoIno;
    std::string_view leaf;
    std::int64_t r = resolve_parent(path, &dir, &leaf);
    if (r != OK) return r;
    return os_.fs_->rename(dir, leaf, new_leaf);
  }

  std::int64_t readdir(std::string_view path, std::uint64_t index, std::string* name) override {
    tick();
    const std::int64_t ino = resolve(path);
    if (ino < 0) return ino;
    const auto e = os_.fs_->readdir(static_cast<fs::Ino>(ino), index);
    if (!e) return E_NOENT;
    if (name != nullptr) *name = e->name;
    return e->ino;
  }

  std::int64_t pipe(std::int64_t fds[2]) override {
    tick();
    std::size_t pidx = 0;
    for (; pidx < os_.pipes_.size(); ++pidx) {
      if (!os_.pipes_[pidx].used) break;
    }
    if (pidx == os_.pipes_.size()) os_.pipes_.emplace_back();
    auto& pp = os_.pipes_[pidx];
    pp.used = true;
    pp.data.clear();
    pp.readers = 1;
    pp.writers = 1;

    const std::int64_t rf = alloc_file();
    const std::int64_t wf = alloc_file();
    if (rf < 0 || wf < 0) {
      pp.used = false;
      return E_NFILE;
    }
    os_.files_[rf] = MonoOs::OpenFile{true, true, false, fs::kNoIno, 0, 0, 1,
                                      static_cast<std::int32_t>(pidx)};
    os_.files_[wf] = MonoOs::OpenFile{true, false, true, fs::kNoIno, 0, 0, 1,
                                      static_cast<std::int32_t>(pidx)};
    const std::int64_t rfd = alloc_fd(static_cast<std::int32_t>(rf));
    const std::int64_t wfd = alloc_fd(static_cast<std::int32_t>(wf));
    if (rfd < 0 || wfd < 0) return E_MFILE;
    fds[0] = rfd;
    fds[1] = wfd;
    return OK;
  }

  std::int64_t dup(std::int64_t fd) override {
    tick();
    const std::int64_t fidx = file_of(fd);
    if (fidx < 0) return fidx;
    const std::int64_t nfd = alloc_fd(static_cast<std::int32_t>(fidx));
    if (nfd < 0) return E_MFILE;
    auto& f = os_.files_[fidx];
    ++f.refcnt;
    if (f.is_pipe_read) ++os_.pipes_[f.pipe].readers;
    if (f.is_pipe_write) ++os_.pipes_[f.pipe].writers;
    return nfd;
  }

  std::int64_t truncate(std::string_view path, std::uint64_t size) override {
    tick();
    const std::int64_t ino = resolve(path);
    if (ino < 0) return ino;
    return os_.fs_->truncate(static_cast<fs::Ino>(ino), static_cast<std::uint32_t>(size));
  }

  std::int64_t fsync() override { return tick(), OK; }

  std::int64_t access(std::string_view path) override {
    tick();
    const std::int64_t ino = resolve(path);
    return ino < 0 ? ino : OK;
  }

  // --- data store ----------------------------------------------------------

  std::int64_t ds_publish(std::string_view key, std::uint64_t value) override {
    tick();
    os_.ds_[std::string(key)] = value;
    return OK;
  }
  std::int64_t ds_retrieve(std::string_view key, std::uint64_t* value) override {
    tick();
    auto it = os_.ds_.find(key);
    if (it == os_.ds_.end()) return E_NOENT;
    if (value != nullptr) *value = it->second;
    return OK;
  }
  std::int64_t ds_delete(std::string_view key) override {
    tick();
    auto it = os_.ds_.find(key);
    if (it == os_.ds_.end()) return E_NOENT;
    os_.ds_.erase(it);
    return OK;
  }
  std::int64_t ds_subscribe(std::string_view) override { return tick(), OK; }
  std::int64_t ds_check(std::uint64_t* events) override {
    tick();
    if (events != nullptr) *events = 0;
    return OK;
  }

  std::int64_t times(std::uint64_t* ticks) override {
    tick();
    if (ticks != nullptr) *ticks = os_.clock_.now();
    return OK;
  }
  std::int64_t uname(std::string* name) override {
    tick();
    if (name != nullptr) *name = "mono";
    return OK;
  }
  std::int64_t rs_status(std::int32_t) override { return tick(), 0; }

 private:
  void tick() {
    check_killed();
    os_.clock_.spin(1);
    // Model the user/kernel mode-switch cost a monolithic kernel still pays
    // per syscall (trap, register save/restore, return). Without this the
    // monolithic baseline would be a pure function call — an upper bound no
    // real kernel reaches — and syscall-bound slowdown ratios would be
    // inflated far beyond the paper's shape.
    volatile std::uint32_t spin = 0;
    for (int i = 0; i < 24; ++i) spin += static_cast<std::uint32_t>(i) * 2654435761u;
  }

  void check_killed() {
    if (p_.killed) throw ProcKilled{};
  }

  void block() {
    cothread::Fiber::suspend();
    check_killed();
  }

  std::int64_t alloc_file() {
    for (std::size_t i = 0; i < os_.files_.size(); ++i) {
      if (!os_.files_[i].used) {
        os_.files_[i] = MonoOs::OpenFile{};
        os_.files_[i].used = true;  // reserve immediately (pipe() allocates two)
        return static_cast<std::int64_t>(i);
      }
    }
    os_.files_.emplace_back();
    os_.files_.back().used = true;
    return static_cast<std::int64_t>(os_.files_.size() - 1);
  }

  std::int64_t alloc_fd(std::int32_t fidx) {
    for (std::size_t fd = 0; fd < p_.fds.size(); ++fd) {
      if (p_.fds[fd] == -1) {
        p_.fds[fd] = fidx;
        return static_cast<std::int64_t>(fd);
      }
    }
    return -1;
  }

  std::int64_t file_of(std::int64_t fd) {
    if (fd < 0 || fd >= static_cast<std::int64_t>(p_.fds.size()) || p_.fds[fd] == -1) {
      return E_BADF;
    }
    return p_.fds[fd];
  }

  std::int64_t resolve_parent(std::string_view path, fs::Ino* dir, std::string_view* leaf) {
    if (path.empty() || path[0] != '/') return E_INVAL;
    fs::Ino cur = fs::kRootIno;
    std::string_view rest = path.substr(1);
    while (true) {
      const std::size_t slash = rest.find('/');
      if (slash == std::string_view::npos) {
        if (rest.empty()) return E_INVAL;
        *dir = cur;
        *leaf = rest;
        return OK;
      }
      const std::string_view comp = rest.substr(0, slash);
      rest = rest.substr(slash + 1);
      if (comp.empty()) continue;
      const std::int64_t r = os_.fs_->lookup(cur, comp);
      if (r < 0) return r;
      cur = static_cast<fs::Ino>(r);
    }
  }

  std::int64_t resolve(std::string_view path) {
    if (path == "/") return fs::kRootIno;
    fs::Ino dir = fs::kNoIno;
    std::string_view leaf;
    const std::int64_t r = resolve_parent(path, &dir, &leaf);
    if (r != OK) return r;
    return os_.fs_->lookup(dir, leaf);
  }

  std::int64_t parent_op(std::string_view path, int op) {
    tick();
    fs::Ino dir = fs::kNoIno;
    std::string_view leaf;
    std::int64_t r = resolve_parent(path, &dir, &leaf);
    if (r != OK) return r;
    switch (op) {
      case 0: return os_.fs_->unlink(dir, leaf);
      case 1: {
        const std::int64_t ino = os_.fs_->create(dir, leaf, fs::FileType::kDirectory);
        return ino < 0 ? ino : OK;
      }
      default: return os_.fs_->rmdir(dir, leaf);
    }
  }

  std::int64_t pipe_read(MonoOs::OpenFile& f, std::span<std::byte> buf) {
    auto& pp = os_.pipes_[f.pipe];
    for (;;) {
      if (!pp.data.empty()) {
        const std::size_t n = std::min(buf.size(), pp.data.size());
        std::copy_n(pp.data.begin(), n, buf.begin());
        pp.data.erase(pp.data.begin(), pp.data.begin() + static_cast<std::ptrdiff_t>(n));
        os_.wake_all();
        return static_cast<std::int64_t>(n);
      }
      if (pp.writers == 0) return 0;  // EOF
      block();
    }
  }

  std::int64_t pipe_write(MonoOs::OpenFile& f, std::span<const std::byte> buf) {
    auto& pp = os_.pipes_[f.pipe];
    for (;;) {
      if (pp.readers == 0) return E_PIPE;
      if (pp.data.size() < kMonoPipeCap) {
        const std::size_t n = std::min(buf.size(), kMonoPipeCap - pp.data.size());
        pp.data.insert(pp.data.end(), buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(n));
        os_.wake_all();
        return static_cast<std::int64_t>(n);
      }
      block();
    }
  }

  MonoOs& os_;
  MonoOs::Proc& p_;
};

// --- MonoOs ------------------------------------------------------------------

MonoOs::MonoOs() = default;
MonoOs::~MonoOs() = default;

void MonoOs::boot() {
  OSIRIS_ASSERT(!booted_);
  booted_ = true;
  disk_ = std::make_unique<fs::BlockDevice>(clock_, 4096, 0, 0);
  fs::MiniFs::mkfs(*disk_);
  store_ = std::make_unique<fs::DirectStore>(*disk_);
  fs_ = std::make_unique<fs::MiniFs>(*store_);
  OSIRIS_ASSERT(fs_->mount() == OK);
  const std::int64_t bin = fs_->create(fs::kRootIno, "bin", fs::FileType::kDirectory);
  OSIRIS_ASSERT(bin > 0);
  OSIRIS_ASSERT(fs_->create(fs::kRootIno, "tmp", fs::FileType::kDirectory) > 0);
  OSIRIS_ASSERT(fs_->create(fs::kRootIno, "etc", fs::FileType::kDirectory) > 0);
  for (const auto& [name, body] : programs_.all()) {
    const std::int64_t ino =
        fs_->create(static_cast<fs::Ino>(bin), name, fs::FileType::kRegular);
    OSIRIS_ASSERT(ino > 0);
    const std::string image = "#!mono " + name;
    fs_->write(static_cast<fs::Ino>(ino), 0,
               std::as_bytes(std::span<const char>(image.data(), image.size())));
  }
  ds_["sys.release"] = 316;
}

MonoOs::Proc* MonoOs::proc_of_pid(std::int32_t pid) {
  for (auto& p : procs_) {
    if (p->pid == pid && !p->done) return p.get();
  }
  return nullptr;
}

MonoOs::Proc* MonoOs::spawn(std::int32_t parent, std::string name, ISys::ProcBody body) {
  auto proc = std::make_unique<Proc>();
  Proc* p = proc.get();
  p->pid = parent == 0 ? 1 : next_pid_++;
  p->parent = parent;
  p->name = std::move(name);
  p->fds.assign(kMonoMaxFds, -1);
  p->sys = std::make_unique<MonoSys>(*this, *p);
  auto shared_body = std::make_shared<ISys::ProcBody>(std::move(body));
  p->fiber = std::make_unique<cothread::Fiber>([this, p, shared_body] {
    std::int64_t rc = 0;
    bool terminated = false;
    try {
      (*shared_body)(*p->sys);
    } catch (const ProcExit&) {
      terminated = true;
    } catch (const ProcKilled&) {
      terminated = true;  // terminate() already ran in kill()
    }
    if (!terminated) terminate(p, rc);
  });
  procs_.push_back(std::move(proc));
  return p;
}

void MonoOs::mark_ready(Proc* p) {
  if (!p->ready && !p->done) {
    p->ready = true;
    ready_.push_back(p);
  }
}

void MonoOs::close_filei(std::size_t fidx) {
  OpenFile& f = files_[fidx];
  OSIRIS_ASSERT(f.used && f.refcnt >= 1);
  if (--f.refcnt > 0) return;
  f.used = false;
  if (f.is_pipe_read || f.is_pipe_write) {
    Pipe& pp = pipes_[f.pipe];
    if (f.is_pipe_read) --pp.readers;
    if (f.is_pipe_write) --pp.writers;
    if (pp.readers == 0 && pp.writers == 0) pp.used = false;
  }
}

void MonoOs::wake_all() {
  for (auto& p : procs_) {
    if (!p->done && !p->zombie) mark_ready(p.get());
  }
}

void MonoOs::terminate(Proc* p, std::int64_t status) {
  if (p->zombie) return;
  p->zombie = true;
  p->exit_status = status;
  for (auto& fidx : p->fds) {
    if (fidx >= 0) {
      close_filei(static_cast<std::size_t>(fidx));
      fidx = -1;
    }
  }
  // Reparent children to init.
  for (auto& c : procs_) {
    if (c->parent == p->pid && c.get() != p) c->parent = 1;
  }
  wake_all();
}

std::int64_t MonoOs::run(ISys::ProcBody init_body) {
  OSIRIS_ASSERT(booted_);
  Proc* init = spawn(0, "init", std::move(init_body));
  mark_ready(init);
  while (!ready_.empty()) {
    Proc* p = ready_.front();
    ready_.pop_front();
    p->ready = false;
    if (p->done || (p->zombie && !p->killed)) continue;
    p->fiber->resume();
    if (auto e = p->fiber->take_exception()) std::rethrow_exception(e);
    if (p->fiber->finished()) {
      // The process stays in the table for wait(); its stack goes now.
      p->done = true;
      p->fiber.reset();
    }
    if (init->zombie || init->done) break;
  }
  return init->exit_status;
}

}  // namespace osiris::os
