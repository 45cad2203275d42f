// VFS: the Virtual Filesystem Server (multithreaded, paper SV).
//
// VFS owns per-process fd tables, the open-file table, and pipes; path and
// file I/O is delegated to MiniFS over a block cache + asynchronous disk.
// Requests that may touch the disk run on cooperative worker threads
// (cothread fibers): a cache miss suspends the worker, VFS returns without a
// reply, and the disk-completion notification (VFS_DEV_DONE, the simulated
// interrupt) resumes the worker, which finishes and sends a deferred reply.
//
// Recovery-window behaviour (SIV-E):
//  - a worker yielding on disk I/O forcibly closes the window;
//  - filesystem *mutations* (cache write_block) are state changes outside
//    VFS's recoverable data section — the equivalent of a state-modifying
//    SEEP to the FS/driver domain — and close the window under both
//    policies. Reads are window-preserving.
// Both closers are policy-independent, which is why VFS's recovery coverage
// is identical in the pessimistic and enhanced columns of Table I.
//
// After a crash, on_restored() performs the cooperative-thread-library
// fixup the paper describes: the "current thread" variable is repaired and
// the worker that hosted the crashed request is returned to a clean state.
#pragma once

#include <array>
#include <deque>
#include <memory>
#include <vector>

#include "ckpt/cell.hpp"
#include "cothread/fiber.hpp"
#include "fs/blockdev.hpp"
#include "fs/cache.hpp"
#include "fs/minifs.hpp"
#include "servers/server_base.hpp"

namespace osiris::servers {

inline constexpr std::size_t kMaxFds = 16;
inline constexpr std::size_t kMaxFiles = 128;
inline constexpr std::size_t kMaxPipes = 16;
inline constexpr std::size_t kPipeBuf = 4096;
inline constexpr std::size_t kVfsWorkers = 4;

enum class FileKind : std::uint8_t { kRegular = 1, kPipeRead = 2, kPipeWrite = 3 };

struct VfsFile {
  FileKind kind = FileKind::kRegular;
  fs::Ino ino = fs::kNoIno;
  std::uint32_t pos = 0;
  std::uint32_t flags = 0;
  std::int32_t refcnt = 0;
  std::int32_t pipe = -1;  // index into pipes when kind is a pipe end
};

struct VfsFdTable {
  std::int32_t pid = 0;
  std::int32_t ep = -1;          // client endpoint of the owning process
  std::int32_t fds[kMaxFds];     // open-file table index, -1 = free
};

/// A blocked pipe reader or writer waiting for data/space.
struct VfsPipeWaiter {
  bool blocked = false;
  std::int32_t requester_ep = -1;
  std::uint64_t grant = 0;
  std::uint32_t len = 0;
  std::uint32_t msgtype = 0;
};

struct VfsPipe {
  std::uint32_t rpos = 0;  // read cursor into the pipe data region
  std::uint32_t used = 0;
  std::uint8_t readers = 0;
  std::uint8_t writers = 0;
  VfsPipeWaiter rwait;
  VfsPipeWaiter wwait;
};

struct VfsState {
  ckpt::Table<VfsFdTable, kMaxProcs> procs;
  ckpt::Table<VfsFile, kMaxFiles> files;
  ckpt::Table<VfsPipe, kMaxPipes> pipes;
  /// Pipe payload, kPipeBuf bytes per pipe slot, logged at byte granularity.
  ckpt::Array<std::uint8_t, kMaxPipes * kPipeBuf> pipe_data;
  ckpt::Cell<std::uint64_t> ops;
  ckpt::Cell<std::uint64_t> bytes_read;
  ckpt::Cell<std::uint64_t> bytes_written;
};

class Vfs final : public ServerBase<VfsState> {
 public:
  Vfs(kernel::Kernel& kernel, seep::Policy policy, ckpt::Mode mode, fs::BlockDevice& dev,
      std::size_t cache_blocks = 64);
  ~Vfs() override;

  /// Boot: mount the (already formatted) device.
  void mount();

  /// Boot: create the init process's fd table.
  void register_boot_proc(std::int32_t pid, kernel::Endpoint ep);

  void on_restored(bool /*rolled_back*/) override;

  [[nodiscard]] const fs::CacheStats& cache_stats() const { return cache_.stats(); }

 protected:
  void on_message(const kernel::Message& m) override;
  void init_state() override {}

 private:
  void register_handlers();

  struct Worker {
    std::unique_ptr<cothread::Fiber> fiber;
    bool busy = false;
    kernel::Message req;
    std::optional<kernel::Message> reply;
    std::exception_ptr exc;
    std::uint64_t wait_token = 0;
  };

  /// BlockStore over the cache + async device; read misses suspend the
  /// calling worker (closing the recovery window), writes are write-back.
  class CachedStore final : public fs::BlockStore {
   public:
    explicit CachedStore(Vfs& vfs) : vfs_(vfs) {}
    void read_block(std::uint32_t bno, std::span<std::byte, fs::kBlockSize> out) override;
    void write_block(std::uint32_t bno,
                     std::span<const std::byte, fs::kBlockSize> data) override;
    /// Cache hit -> borrowed pointer into the cache (refreshes LRU); miss ->
    /// nullptr, never blocks. Lets MiniFs skip the per-block staging copy.
    const std::byte* peek_block(std::uint32_t bno) override;

   private:
    Vfs& vfs_;
  };

  // --- dispatch plumbing -------------------------------------------------
  /// Disk-completion notification (the simulated interrupt).
  std::optional<kernel::Message> do_dev_done(const kernel::Message& m);
  /// READ/WRITE/FSTAT route per fd kind: pipe ends inline, files to a worker.
  std::optional<kernel::Message> do_rw(const kernel::Message& m);
  /// Path/disk operations always run on a worker thread.
  std::optional<kernel::Message> do_worker_op(const kernel::Message& m);
  std::optional<kernel::Message> start_or_queue(const kernel::Message& m);
  /// Resume `w`; returns its reply if the request completed.
  std::optional<kernel::Message> resume_worker(Worker& w);
  void pump_queue();
  void on_dev_done(std::uint64_t token);

  // --- fd helpers --------------------------------------------------------
  std::size_t fdtable_of_ep(std::int32_t ep) const;
  std::size_t fdtable_of_pid(std::int32_t pid) const;
  std::int32_t alloc_fd(std::size_t tbl, std::size_t file_idx);
  /// Open-file index for (sender ep, fd), or npos.
  std::size_t file_of(const kernel::Message& m, std::int64_t* err) const;
  void close_file(std::size_t file_idx);

  // --- inline operations (never touch the disk) ------------------------
  std::optional<kernel::Message> do_pm_fork(const kernel::Message& m);
  std::optional<kernel::Message> do_pm_exit(const kernel::Message& m);
  std::optional<kernel::Message> do_pipe(const kernel::Message& m);
  std::optional<kernel::Message> do_dup(const kernel::Message& m);
  std::optional<kernel::Message> do_close(const kernel::Message& m);
  std::optional<kernel::Message> do_lseek(const kernel::Message& m);
  std::optional<kernel::Message> do_pipe_read(const kernel::Message& m, std::size_t file_idx);
  std::optional<kernel::Message> do_pipe_write(const kernel::Message& m, std::size_t file_idx);

  // --- pipe internals -----------------------------------------------------
  std::uint32_t pipe_copy_in(std::size_t pipe_idx, const std::byte* src, std::uint32_t n);
  std::uint32_t pipe_copy_out(std::size_t pipe_idx, std::byte* dst, std::uint32_t n);
  void wake_blocked_reader(std::size_t pipe_idx);
  void wake_blocked_writer(std::size_t pipe_idx);

  // --- worker-side (may suspend) -----------------------------------------
  kernel::Message run_fs_op(const kernel::Message& m);

  kernel::Message fs_open(const kernel::Message& m);
  kernel::Message fs_read(const kernel::Message& m, std::size_t file_idx);
  kernel::Message fs_write(const kernel::Message& m, std::size_t file_idx);
  kernel::Message fs_stat(const kernel::Message& m);
  /// The VFS_STAT / VFS_FSTAT reply for an inode: size, type and link count.
  kernel::Message stat_reply(const kernel::Message& m, fs::Ino ino);
  kernel::Message fs_sync(const kernel::Message& m);

  fs::BlockDevice& dev_;
  fs::BlockCache cache_;
  CachedStore store_;
  fs::MiniFs minifs_;
  std::vector<Worker> workers_;
  Worker* current_worker_ = nullptr;  // the "current thread variable" (SIV-E)
  std::deque<kernel::Message> backlog_;
  std::uint64_t next_token_ = 1;
};

}  // namespace osiris::servers
