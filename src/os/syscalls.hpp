// Sys: the ISys implementation for the OSIRIS multiserver system.
//
// Every call marshals a message, grants access to user buffers where bulk
// data is involved, performs a sendrec (suspending the calling fiber until
// the reply arrives), and demarshals the result. Pending signals the process
// catches (sigaction) are consumed at syscall boundaries, and kSigKill
// interrupts any blocked call by unwinding the fiber with ProcKilled.
#pragma once

#include "kernel/kernel.hpp"
#include "os/isys.hpp"

namespace osiris::os {

class OsInstance;
class UserProc;

class Sys final : public ISys {
 public:
  Sys(OsInstance& os, UserProc& proc) : os_(os), proc_(proc) {}

  // processes
  std::int64_t fork(ProcBody body) override;
  std::int64_t exec(std::string_view path) override;
  [[noreturn]] void exit(std::int64_t status) override;
  std::int64_t wait_pid(std::int64_t pid, std::int64_t* status) override;
  std::int64_t getpid() override;
  std::int64_t getppid() override;
  std::int64_t kill(std::int64_t pid, std::uint64_t sig) override;
  std::int64_t sigaction(std::uint64_t sig, bool handle) override;
  std::int64_t sigpending(std::uint64_t* mask) override;
  std::int64_t procstat(std::int64_t pid) override;
  std::int64_t getuid() override;
  std::int64_t setuid(std::uint64_t uid) override;

  // memory
  std::int64_t brk(std::uint64_t addr) override;
  std::int64_t mmap(std::uint64_t length) override;
  std::int64_t munmap(std::int64_t region) override;
  std::int64_t getmeminfo(std::uint64_t* free_pages, std::uint64_t* total_pages) override;

  // files
  std::int64_t open(std::string_view path, std::uint64_t flags) override;
  std::int64_t close(std::int64_t fd) override;
  std::int64_t read(std::int64_t fd, std::span<std::byte> buf) override;
  std::int64_t write(std::int64_t fd, std::span<const std::byte> buf) override;
  std::int64_t lseek(std::int64_t fd, std::int64_t offset, int whence) override;
  std::int64_t stat(std::string_view path, StatResult* out) override;
  std::int64_t fstat(std::int64_t fd, StatResult* out) override;
  std::int64_t unlink(std::string_view path) override;
  std::int64_t mkdir(std::string_view path) override;
  std::int64_t rmdir(std::string_view path) override;
  std::int64_t rename(std::string_view path, std::string_view new_leaf) override;
  std::int64_t readdir(std::string_view path, std::uint64_t index, std::string* name) override;
  std::int64_t pipe(std::int64_t fds[2]) override;
  std::int64_t dup(std::int64_t fd) override;
  std::int64_t truncate(std::string_view path, std::uint64_t size) override;
  std::int64_t fsync() override;
  std::int64_t access(std::string_view path) override;

  // data store
  std::int64_t ds_publish(std::string_view key, std::uint64_t value) override;
  std::int64_t ds_retrieve(std::string_view key, std::uint64_t* value) override;
  std::int64_t ds_delete(std::string_view key) override;
  std::int64_t ds_subscribe(std::string_view prefix) override;
  std::int64_t ds_check(std::uint64_t* events) override;

  // misc
  std::int64_t times(std::uint64_t* ticks) override;
  std::int64_t uname(std::string* name) override;
  std::int64_t rs_status(std::int32_t endpoint) override;

 private:
  /// Send a request and suspend the fiber until the reply arrives. A
  /// read-only (NSM) request answered E_CRASH is reissued once.
  kernel::Message sendrec(kernel::Endpoint dst, kernel::Message m);
  void check_killed();

  OsInstance& os_;
  UserProc& proc_;
};

}  // namespace osiris::os
