// Fixture server: every discipline detector has a seeded violation here,
// plus one suppressed occurrence proving suppression comments work. This
// file is test data for osiris-analyze — it is never compiled.
#include "msg_spec.hpp"

namespace fixture {

struct PmState {
  ckpt::Cell<int> good_cell;          // fine: wrapper type
  ckpt::Array<int, 8> good_array;     // fine: wrapper type
  int bad_counter = 0;                // state-raw-field
  osiris::ckpt::Cell<int> also_good;  // fine: qualified wrapper
};

class Pm {
 public:
  PmState& st() { return state_; }

  void reset_everything() {
    std::memset(&st(), 0, sizeof(PmState));  // state-memfn
  }

  void launder() const {
    const_cast<PmState&>(state_).bad_counter = 7;  // state-const-cast
  }

  int& leak_reference(int i) {
    return st().good_array.mutate(i);  // mutate-escape: returned
  }

  void stash_pointer(int i) {
    auto* p = &st().good_array.mutate(i);  // mutate-escape: address taken
    *p = 42;
  }

  void blessed_use(int i) {
    auto& v = st().good_array.mutate(i);  // fine: statement-local reference
    v = 1;
  }

  void bypass_wrappers(kernel::Endpoint dst) {
    Message m = make_msg(PM_FROB, 1);
    kernel_.send(ep_, dst, m);  // raw-kernel-send

    // analyze-suppress(raw-kernel-send): deliberate fixture suppression —
    // this occurrence must NOT be reported.
    kernel_.notify(ep_, dst, PM_PING);
  }

  void send_unknown(kernel::Endpoint dst) {
    seep_call(dst, make_msg(PM_MYSTERY, 0));  // unclassified-send
  }

  void register_handlers() {
    on(FX_PING, &Pm::do_ping);    // fine: owner and kind match the spec row
    on(FX_NOTE, &Pm::do_note);    // spec-owner-drift + handler-kind-drift
    on(PM_ROGUE, &Pm::do_rogue);  // handler-without-spec
  }

 private:
  PmState state_;
  kernel::Endpoint ep_;
};

}  // namespace fixture
