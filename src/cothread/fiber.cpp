#include "cothread/fiber.hpp"

#include <cstring>
#include <utility>

#include "support/common.hpp"

#if !defined(__x86_64__)
#error "cothread::Fiber's context switch is written for the x86-64 SysV ABI"
#endif

// ASan tracks one stack per OS thread; switching onto a heap-allocated fiber
// stack without telling it makes any no-return path (exception unwind,
// longjmp) "unpoison" memory using the *thread's* stack bounds — a
// stack-buffer-overflow report inside the sanitizer runtime itself. The
// fiber-switch annotations below hand ASan the correct bounds around every
// switch. They compile to nothing in non-ASan builds.
#if defined(__SANITIZE_ADDRESS__)
#define OSIRIS_ASAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define OSIRIS_ASAN_FIBERS 1
#endif
#endif

#if defined(OSIRIS_ASAN_FIBERS)
#include <sanitizer/common_interface_defs.h>
#endif

// TSan likewise keeps one shadow call stack per thread: unannotated, the
// full campaign plans needed more than 10 GB under TSan. Each fiber gets a
// TSan context, which TSan counts as a thread (about 8,000 at once), so a
// fiber holds one only from its first switch until it finishes; a failed
// fork's fiber is never resumed. Nothing of this is compiled without TSan.
#if defined(__SANITIZE_THREAD__)
#define OSIRIS_TSAN_FIBERS 1
#include <sanitizer/tsan_interface.h>
#endif

#if defined(OSIRIS_ASAN_FIBERS)
#include <mutex>
#include <vector>
#endif

// osiris_fiber_switch(save_sp, load_sp): push the callee-saved registers,
// the MXCSR and the x87 control word on the current stack, store the stack
// pointer to *save_sp, load load_sp, and pop the set saved there. The final
// ret returns into whoever switched away from load_sp — or, on a fiber's
// first switch, into Fiber::trampoline from the frame resume() builds.
// Layout at a saved stack pointer, lowest address first:
//   [mxcsr:4][x87 cw:2][pad:2] r15 r14 r13 r12 rbx rbp <return address>
extern "C" void osiris_fiber_switch(void** save_sp, void* load_sp);

asm(R"(
    .pushsection .text
    .p2align 4
    .globl osiris_fiber_switch
    .hidden osiris_fiber_switch
    .type osiris_fiber_switch, @function
osiris_fiber_switch:
    pushq %rbp
    pushq %rbx
    pushq %r12
    pushq %r13
    pushq %r14
    pushq %r15
    subq $8, %rsp
    stmxcsr (%rsp)
    fnstcw 4(%rsp)
    movq %rsp, (%rdi)
    movq %rsi, %rsp
    ldmxcsr (%rsp)
    fldcw 4(%rsp)
    addq $8, %rsp
    popq %r15
    popq %r14
    popq %r13
    popq %r12
    popq %rbx
    popq %rbp
    ret
    .size osiris_fiber_switch, .-osiris_fiber_switch
    .popsection
)");

namespace osiris::cothread {
namespace {

thread_local Fiber* g_current = nullptr;

/// The switch's `ret` into a fiber does not match a call, so it would fault
/// under a CET shadow stack; rdsspq reads the shadow-stack pointer, and is a
/// no-op (leaving 0) when none is active. Checked once per process.
void require_no_shadow_stack() {
  static const bool checked = [] {
    std::uint64_t ssp = 0;
    asm volatile("rdsspq %0" : "+r"(ssp));
    if (ssp != 0) {
      OSIRIS_PANIC(
          "cothread: a CET shadow stack is active, and fiber switches do not switch "
          "shadow stacks; run with GLIBC_TUNABLES=glibc.cpu.x86_shstk=off");
    }
    return true;
  }();
  (void)checked;
}

#if defined(OSIRIS_ASAN_FIBERS)
// Destroying a suspended fiber abandons its stack without unwinding (see
// ~Fiber): heap objects owned by locals stranded on that stack stay
// allocated until process exit, by design. The switch annotations make LSan
// precise enough to flag those strands as leaks, so under ASan the abandoned
// stacks move to an immortal graveyard instead of being freed — the strands
// stay reachable through it, which is exactly the ownership story the
// design already tells. Plain builds free the stack immediately.
void bury_abandoned_stack(std::unique_ptr<std::byte[]> stack) {
  static auto* graveyard = new std::vector<std::unique_ptr<std::byte[]>>();
  static std::mutex mu;  // fibers are destroyed from campaign worker threads
  const std::lock_guard<std::mutex> lock(mu);
  graveyard->push_back(std::move(stack));
}
#endif

}  // namespace

Fiber::Fiber(std::function<void()> fn, std::size_t stack_size)
    : fn_(std::move(fn)), stack_size_(stack_size) {
  OSIRIS_ASSERT(fn_ != nullptr);
  OSIRIS_ASSERT(stack_size >= 16 * 1024);
  require_no_shadow_stack();
}

Fiber::~Fiber() {
  // Destroying a suspended fiber abandons its stack without unwinding; the
  // simulator only does this at teardown of a whole OS instance.
#if defined(OSIRIS_ASAN_FIBERS)
  if (state_ == State::kSuspended) bury_abandoned_stack(std::move(stack_));
#endif
#if defined(OSIRIS_TSAN_FIBERS)
  if (tsan_fiber_ != nullptr) __tsan_destroy_fiber(tsan_fiber_);
#endif
}

Fiber* Fiber::current() noexcept { return g_current; }

void Fiber::trampoline() {
  Fiber* self = g_current;
#if defined(OSIRIS_ASAN_FIBERS)
  // First time on this stack: complete the resumer's start_switch and learn
  // the resumer's stack bounds for the switches back.
  __sanitizer_finish_switch_fiber(nullptr, &self->return_bottom_, &self->return_size_);
#endif
  try {
    self->fn_();
  } catch (...) {
    self->pending_exception_ = std::current_exception();
  }
  self->state_ = State::kFinished;
#if defined(OSIRIS_ASAN_FIBERS)
  // nullptr fake-stack save: this fiber's stack is dead, let ASan free its
  // fake frames instead of keeping them for a resume that never comes.
  __sanitizer_start_switch_fiber(nullptr, self->return_bottom_, self->return_size_);
#endif
#if defined(OSIRIS_TSAN_FIBERS)
  __tsan_switch_to_fiber(self->tsan_resumer_, 0);
#endif
  // Return to the resumer for the last time.
  osiris_fiber_switch(&self->sp_, self->resumer_sp_);
  OSIRIS_PANIC("resumed a finished fiber");
}

void Fiber::resume() {
  OSIRIS_ASSERT(state_ == State::kReady || state_ == State::kSuspended);
  if (state_ == State::kReady) {
    // The stack is allocated here, not at construction, so a fiber that
    // never runs (a refused fork's child) holds none.
    stack_.reset(new std::byte[stack_size_]);  // default-init: no zeroing cost
    // The first switch pops this frame and returns into trampoline(), which
    // sees a call frame at the 16-byte-aligned top whose return address is
    // null, so unwinders and backtraces stop there. The fiber starts with
    // the resumer's floating-point control state.
    std::uint32_t mxcsr = 0;
    std::uint16_t x87_cw = 0;
    asm volatile("stmxcsr %0\n\tfnstcw %1" : "=m"(mxcsr), "=m"(x87_cw));
    const auto top = reinterpret_cast<std::uintptr_t>(stack_.get() + stack_size_) &
                     ~std::uintptr_t{15};
    std::uint64_t frame[9] = {};  // fp control, r15 r14 r13 r12 rbx rbp, ret, null
    std::memcpy(&frame[0], &mxcsr, sizeof mxcsr);
    std::memcpy(reinterpret_cast<std::byte*>(&frame[0]) + 4, &x87_cw, sizeof x87_cw);
    frame[7] = reinterpret_cast<std::uintptr_t>(&Fiber::trampoline);
    sp_ = reinterpret_cast<void*>(top - sizeof frame);
    std::memcpy(sp_, frame, sizeof frame);
  }
  Fiber* prev = g_current;
  g_current = this;
  state_ = State::kRunning;
#if defined(OSIRIS_ASAN_FIBERS)
  void* resumer_fake_stack = nullptr;
  __sanitizer_start_switch_fiber(&resumer_fake_stack, stack_.get(), stack_size_);
#endif
#if defined(OSIRIS_TSAN_FIBERS)
  if (tsan_fiber_ == nullptr) tsan_fiber_ = __tsan_create_fiber(0);
  tsan_resumer_ = __tsan_get_current_fiber();  // the resumer may be a fiber too
  __tsan_switch_to_fiber(tsan_fiber_, 0);
#endif
  osiris_fiber_switch(&resumer_sp_, sp_);
#if defined(OSIRIS_ASAN_FIBERS)
  // Back on the resumer's stack (the fiber suspended or finished).
  __sanitizer_finish_switch_fiber(resumer_fake_stack, nullptr, nullptr);
#endif
#if defined(OSIRIS_TSAN_FIBERS)
  if (state_ == State::kFinished) __tsan_destroy_fiber(std::exchange(tsan_fiber_, nullptr));
#endif
  g_current = prev;
  if (state_ == State::kRunning) state_ = State::kSuspended;
}

void Fiber::suspend() {
  Fiber* self = g_current;
  OSIRIS_ASSERT(self != nullptr);
  self->state_ = State::kSuspended;
#if defined(OSIRIS_ASAN_FIBERS)
  __sanitizer_start_switch_fiber(&self->fake_stack_, self->return_bottom_, self->return_size_);
#endif
#if defined(OSIRIS_TSAN_FIBERS)
  __tsan_switch_to_fiber(self->tsan_resumer_, 0);
#endif
  osiris_fiber_switch(&self->sp_, self->resumer_sp_);
#if defined(OSIRIS_ASAN_FIBERS)
  // Resumed again — possibly from a different thread's stack: refresh the
  // return bounds.
  __sanitizer_finish_switch_fiber(self->fake_stack_, &self->return_bottom_, &self->return_size_);
#endif
  self->state_ = State::kRunning;
}

}  // namespace osiris::cothread
