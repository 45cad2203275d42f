// Cooperative fibers with a register-only context switch.
//
// OSIRIS uses fibers in two places, matching the paper's prototype:
//  - every simulated user process runs as a fiber, so the 89 test-suite
//    programs and the unixbench workloads are written as straight-line code
//    whose syscalls suspend until the server's reply arrives;
//  - the VFS server is multithreaded (paper SV): worker threads block on
//    disk I/O, and the recovery window is forcibly closed on yield (SIV-E).
//
// A switch saves only what the x86-64 SysV ABI makes callee-saved: rbp, rbx,
// r12-r15, the MXCSR and the x87 control word, pushed on the outgoing stack
// before the stack pointers swap (fiber.cpp). glibc's swapcontext also saves
// the signal mask, an rt_sigprocmask syscall on every switch, which no fiber
// here needs; DESIGN.md §2 gives the cost of each. The floating-point control
// state stays per fiber, as the ABI requires.
// x86-64 only. The switch does not switch CET shadow stacks, so constructing
// the first fiber panics if one is active (run with
// GLIBC_TUNABLES=glibc.cpu.x86_shstk=off).
//
// Exceptions never propagate across a context switch: anything escaping the
// fiber body is captured as std::exception_ptr and handed to the resumer,
// which decides whether to rethrow on its own stack (this is how a fail-stop
// fault inside a VFS worker reaches the kernel's dispatch boundary).
#pragma once

#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>

namespace osiris::cothread {

class Fiber {
 public:
  enum class State : std::uint8_t { kReady, kRunning, kSuspended, kFinished };

  explicit Fiber(std::function<void()> fn, std::size_t stack_size = 128 * 1024);
  ~Fiber();

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  /// Switch into the fiber (start or continue it). Returns when the fiber
  /// suspends or finishes. Must not be called from inside a fiber that is
  /// already on the resume chain.
  void resume();

  /// Called from inside the fiber: switch back to the resumer.
  static void suspend();

  /// The fiber currently executing on this thread, or nullptr on the main
  /// context.
  static Fiber* current() noexcept;

  [[nodiscard]] State state() const noexcept { return state_; }
  [[nodiscard]] bool finished() const noexcept { return state_ == State::kFinished; }

  /// Exception that escaped the fiber body during the last resume(), if any.
  /// Fetching it clears it.
  [[nodiscard]] std::exception_ptr take_exception() noexcept {
    auto e = pending_exception_;
    pending_exception_ = nullptr;
    return e;
  }

 private:
  [[noreturn]] static void trampoline();

  std::function<void()> fn_;
  std::size_t stack_size_;
  std::unique_ptr<std::byte[]> stack_;  // intentionally uninitialized
  void* sp_ = nullptr;         // this fiber's saved stack pointer while it is switched out
  void* resumer_sp_ = nullptr;  // the resumer's saved stack pointer while this fiber runs
  State state_ = State::kReady;
  std::exception_ptr pending_exception_;

  // ASan fiber-switch bookkeeping (see fiber.cpp): this fiber's saved fake
  // stack, and the bounds of the stack resume() was called from. Unused —
  // but kept, for one ABI regardless of flags — in non-ASan builds.
  void* fake_stack_ = nullptr;
  const void* return_bottom_ = nullptr;
  std::size_t return_size_ = 0;
  void* tsan_fiber_ = nullptr;    // this fiber's TSan context (see fiber.cpp)
  void* tsan_resumer_ = nullptr;  // the TSan context of whoever resumed it
};

}  // namespace osiris::cothread
