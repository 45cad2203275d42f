// Fixture server for Pass 4: each effects detector and each determinism
// detector has exactly one seeded violation here, plus shapes exercising the
// call-graph builder (direct, transitive, recursive, unresolvable callees,
// and an unreached function whose escapes must NOT be reported). This file
// is test data for osiris-analyze — it is never compiled.
#include "msg_spec.hpp"

namespace fixture {

struct Obj {
  int key = 0;
};

struct DsState {
  ckpt::Array<int, 8> counters;  // fine: wrapper type
};

class Ds {
 public:
  DsState& st() { return state_; }

  void register_handlers() {
    on(FX_BLOCK, &Ds::do_block);  // blocks transitively via wait_for_disk()
    on(FX_WIDEN, &Ds::do_widen);  // mutates after its window-closing send
    on(FX_TRACE, &Ds::do_trace);  // reaches the nondeterministic trace emitter
  }

  // Direct handler -> transitive blocking: do_block -> wait_for_disk ->
  // read_now (one blocking-in-handler finding, at the read_now line).
  Message do_block(const Message& m) {
    wait_for_disk();
    return make_reply(m.type, 0);
  }

  void wait_for_disk() {
    dev_.read_now(0, scratch_);  // blocking-in-handler
  }

  // The window for FX_WIDEN closes at the SM send under the enhanced
  // policy; the counter store after it is the seeded widening violation.
  Message do_widen(const Message& m) {
    bump_counter(2);  // recursive callee: summary carries a recursion cut
    seep_send(kernel::Endpoint{client_ep_}, make_msg(FX_POKE, 0));
    st().counters.set(0, 1);  // mutate-after-send
    return make_reply(m.type, 0);
  }

  void bump_counter(int n) {
    if (n > 0) bump_counter(n - 1);
    st().counters.set(1, n);
  }

  Message do_trace(const Message& m) {
    spin();
    mystery_helper(7);  // unsummarized-callee: no definition anywhere
    return make_reply(m.type, 0);
  }

  void spin() {
    for (;;) {  // unbounded loop: summary flag, not a finding
      emit_trace();
      break;
    }
  }

  // The PR 4 bug class, one seed per determinism detector.
  void emit_trace() {
    std::map<const Obj*, int> order;  // nondet-pointer-key
    order[nullptr] = 0;
    const std::size_t digest = std::hash<const Obj*>{}(nullptr);   // nondet-addr-hash
    const auto stamp = std::chrono::steady_clock::now();           // nondet-wallclock
    const int jitter = rand();                                     // nondet-rand
    (void)digest;
    (void)stamp;
    (void)jitter;
  }

  // Never called from any handler: its unresolvable callee must NOT be
  // reported (reachability-rooted detection).
  void unreached_helper() {
    other_mystery(3);
  }

 private:
  DsState state_;
  BlockDevice dev_;
  std::span<std::byte, 512> scratch_;
  std::uint64_t client_ep_ = 0;
};

}  // namespace fixture
