// ISys: the system-call interface seen by simulated user programs.
//
// Every workload (the 89-program prototype test suite, the unixbench
// workloads) is written against this interface, so the same program runs
// unmodified on two system organisations:
//
//   - os::OsInstance — the OSIRIS multiserver system: syscalls are messages
//     through the microkernel, with SEEPs, checkpointing and recovery; and
//   - os::MonoOs    — a monolithic direct-call kernel (the "Linux" stand-in
//     of Table IV): same semantics, no isolation, no messages, no
//     instrumentation.
//
// Error returns are negative kernel::Errno values, E_CRASH included: a
// well-written program treats E_CRASH like any other failed call (paper
// SIII-C: "most well-written programs routinely deal with such error
// codes").
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>

#include "kernel/message.hpp"

namespace osiris::os {

/// Thrown by ISys::exit (and by falling off the end of a program body).
struct ProcExit {
  std::int64_t status;
};

/// Thrown inside a process that received kSigKill.
struct ProcKilled {};

struct StatResult {
  std::uint64_t size = 0;
  std::uint64_t type = 0;  // fs::FileType
  std::uint64_t nlinks = 0;
};

class ISys {
 public:
  virtual ~ISys() = default;

  using ProcBody = std::function<void(ISys&)>;

  // --- processes --------------------------------------------------------
  /// fork + the child's program: the child runs `body` in a new process
  /// (closure capture stands in for address-space duplication). Returns the
  /// child pid, or a negative error.
  virtual std::int64_t fork(ProcBody body) = 0;
  /// Replace this process's program with /bin/<leaf> of `path`. On success
  /// the new program runs and this call never returns; on failure an error
  /// is returned.
  virtual std::int64_t exec(std::string_view path) = 0;
  [[noreturn]] virtual void exit(std::int64_t status) = 0;
  /// Wait for a child (pid, or 0 = any). Fills status; returns reaped pid.
  virtual std::int64_t wait_pid(std::int64_t pid, std::int64_t* status) = 0;
  virtual std::int64_t getpid() = 0;
  virtual std::int64_t getppid() = 0;
  virtual std::int64_t kill(std::int64_t pid, std::uint64_t sig) = 0;
  /// Install (handle=true) or reset a signal disposition.
  virtual std::int64_t sigaction(std::uint64_t sig, bool handle) = 0;
  /// Fetch-and-clear the pending signal mask.
  virtual std::int64_t sigpending(std::uint64_t* mask) = 0;
  virtual std::int64_t procstat(std::int64_t pid) = 0;
  virtual std::int64_t getuid() = 0;
  virtual std::int64_t setuid(std::uint64_t uid) = 0;

  // --- memory ------------------------------------------------------------
  virtual std::int64_t brk(std::uint64_t addr) = 0;
  virtual std::int64_t mmap(std::uint64_t length) = 0;  // returns region id
  virtual std::int64_t munmap(std::int64_t region) = 0;
  virtual std::int64_t getmeminfo(std::uint64_t* free_pages, std::uint64_t* total_pages) = 0;

  // --- files ---------------------------------------------------------------
  virtual std::int64_t open(std::string_view path, std::uint64_t flags) = 0;
  virtual std::int64_t close(std::int64_t fd) = 0;
  virtual std::int64_t read(std::int64_t fd, std::span<std::byte> buf) = 0;
  virtual std::int64_t write(std::int64_t fd, std::span<const std::byte> buf) = 0;
  virtual std::int64_t lseek(std::int64_t fd, std::int64_t offset, int whence) = 0;
  virtual std::int64_t stat(std::string_view path, StatResult* out) = 0;
  virtual std::int64_t fstat(std::int64_t fd, StatResult* out) = 0;
  virtual std::int64_t unlink(std::string_view path) = 0;
  virtual std::int64_t mkdir(std::string_view path) = 0;
  virtual std::int64_t rmdir(std::string_view path) = 0;
  virtual std::int64_t rename(std::string_view path, std::string_view new_leaf) = 0;
  virtual std::int64_t readdir(std::string_view path, std::uint64_t index, std::string* name) = 0;
  virtual std::int64_t pipe(std::int64_t fds[2]) = 0;
  virtual std::int64_t dup(std::int64_t fd) = 0;
  virtual std::int64_t truncate(std::string_view path, std::uint64_t size) = 0;
  virtual std::int64_t fsync() = 0;
  virtual std::int64_t access(std::string_view path) = 0;

  // --- data store ----------------------------------------------------------
  virtual std::int64_t ds_publish(std::string_view key, std::uint64_t value) = 0;
  virtual std::int64_t ds_retrieve(std::string_view key, std::uint64_t* value) = 0;
  virtual std::int64_t ds_delete(std::string_view key) = 0;
  virtual std::int64_t ds_subscribe(std::string_view prefix) = 0;
  virtual std::int64_t ds_check(std::uint64_t* events) = 0;

  // --- misc -----------------------------------------------------------------
  virtual std::int64_t times(std::uint64_t* ticks) = 0;
  virtual std::int64_t uname(std::string* name) = 0;
  /// Query the Recovery Server for a component's restart count.
  virtual std::int64_t rs_status(std::int32_t endpoint) = 0;

  /// Convenience: write a string.
  std::int64_t write_str(std::int64_t fd, std::string_view s) {
    return write(fd, std::as_bytes(std::span<const char>(s.data(), s.size())));
  }
};

}  // namespace osiris::os
