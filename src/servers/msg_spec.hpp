// Declarative protocol spec: the single message table driving dispatch,
// SEEP classification, marshalling, trace naming and the static analyzer.
//
// Each message type is declared exactly once in OSIRIS_MSG_SPEC with its
// symbolic name, numeric value, owning server, SEEP class, delivery kind and
// arg/text schema. Everything else reads this table:
//
//   - the SEEP wrappers in ServerCommon take an outbound message's class
//     from its row, and the recovery engine asks the row whether an
//     in-flight message can be answered with E_CRASH — the class and the
//     replyable bit are declared here and nowhere else;
//   - ServerCommon::dispatch() validates incoming messages against the schema
//     and fail-stops on unregistered types (paper SII-E);
//   - encode()/MsgView are the typed marshalling layer used by servers and
//     os/syscalls.cpp instead of hand-packed arg[] accesses;
//   - trace exporters resolve message types to symbolic names via msg_name();
//   - tools/analyze parses this very table and cross-checks it against the
//     handler registrations in each server's .cpp.
//
// Row format: X(NAME, value, owner, class, kind, nargs, text, "doc")
//   owner  the server whose dispatch handles the message ("client" = delivered
//          to user processes / subscribers, "any" = handled by ServerCommon)
//   class  NSM = non-state-modifying, SM = state-modifying
//   kind   REQ = replyable request, NOTE = notification (delivered with
//          kNotifyBit)
//   nargs  number of meaningful request args (args beyond this must be 0)
//   text   TXT if the request carries m.text, NOTEXT otherwise
#pragma once

#include <array>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

#include "kernel/faults.hpp"
#include "kernel/message.hpp"
#include "seep/seep.hpp"
#include "support/common.hpp"

// clang-format off
#define OSIRIS_MSG_SPEC(X)                                                                         \
  /* --- PM: Process Manager ----------------------------------------------------------------- */ \
  X(PM_FORK,        0x101, pm,     SM,  REQ,  1, NOTEXT, "arg0=child client endpoint -> reply arg0=child pid") \
  X(PM_EXIT,        0x102, pm,     SM,  REQ,  1, NOTEXT, "arg0=exit status")                       \
  X(PM_WAIT,        0x103, pm,     SM,  REQ,  1, NOTEXT, "arg0=pid or 0=any -> reply arg0=pid, arg1=status") \
  X(PM_GETPID,      0x104, pm,     NSM, REQ,  0, NOTEXT, "-> reply arg0=pid")                      \
  X(PM_GETPPID,     0x105, pm,     NSM, REQ,  0, NOTEXT, "-> reply arg0=ppid")                     \
  X(PM_KILL,        0x106, pm,     SM,  REQ,  2, NOTEXT, "arg0=pid, arg1=signal")                  \
  X(PM_EXEC,        0x107, pm,     SM,  REQ,  0, TXT,    "text=path")                              \
  X(PM_BRK,         0x108, pm,     SM,  REQ,  1, NOTEXT, "arg0=new break -> reply arg0=break")     \
  X(PM_SIGACTION,   0x109, pm,     SM,  REQ,  2, NOTEXT, "arg0=signal, arg1=handler id (0 = default)") \
  /* Reading the pending set consumes it (servers/pm.cpp): not read-only.     */                   \
  X(PM_SIGPENDING,  0x10a, pm,     SM,  REQ,  0, NOTEXT, "-> reply arg0=pending mask")             \
  X(PM_TIMES,       0x10b, pm,     NSM, REQ,  0, NOTEXT, "-> reply arg0=user ticks, arg1=sys ticks") \
  X(PM_GETMEMINFO,  0x10c, pm,     NSM, REQ,  0, NOTEXT, "-> reply arg0=free pages, arg1=total pages") \
  X(PM_UNAME,       0x10d, pm,     NSM, REQ,  0, NOTEXT, "-> reply text=system name")              \
  X(PM_GETUID,      0x10e, pm,     NSM, REQ,  0, NOTEXT, "-> reply arg0=uid")                      \
  X(PM_SETUID,      0x10f, pm,     SM,  REQ,  1, NOTEXT, "arg0=uid")                               \
  X(PM_PROCSTAT,    0x110, pm,     NSM, REQ,  1, NOTEXT, "arg0=pid -> reply arg0=state, arg1=parent pid") \
  /* PM -> user signal delivery: mutates the *user's* pending mask, and a     */                   \
  /* notification has no requester to reconcile with an error reply.          */                   \
  X(PM_SIG_NOTIFY,  0x150, client, SM,  NOTE, 1, NOTEXT, "notify PM -> user: arg0=signal mask")    \
  /* --- VFS: Virtual Filesystem Server ------------------------------------------------------ */ \
  X(VFS_OPEN,       0x201, vfs,    SM,  REQ,  1, TXT,    "text=path, arg0=flags (O_*) -> reply arg0=fd") \
  X(VFS_CLOSE,      0x202, vfs,    SM,  REQ,  1, NOTEXT, "arg0=fd")                                \
  X(VFS_READ,       0x203, vfs,    SM,  REQ,  3, NOTEXT, "arg0=fd, arg1=grant, arg2=len -> reply arg0=n") \
  X(VFS_WRITE,      0x204, vfs,    SM,  REQ,  3, NOTEXT, "arg0=fd, arg1=grant, arg2=len -> reply arg0=n") \
  X(VFS_LSEEK,      0x205, vfs,    SM,  REQ,  3, NOTEXT, "arg0=fd, arg1=offset, arg2=whence -> reply arg0=pos") \
  X(VFS_STAT,       0x206, vfs,    NSM, REQ,  0, TXT,    "text=path -> reply arg0=size, arg1=type, arg2=nlinks") \
  X(VFS_FSTAT,      0x207, vfs,    NSM, REQ,  1, NOTEXT, "arg0=fd -> reply arg0=size, arg1=type, arg2=nlinks") \
  X(VFS_UNLINK,     0x208, vfs,    SM,  REQ,  0, TXT,    "text=path")                              \
  X(VFS_MKDIR,      0x209, vfs,    SM,  REQ,  0, TXT,    "text=path")                              \
  X(VFS_RMDIR,      0x20a, vfs,    SM,  REQ,  0, TXT,    "text=path")                              \
  X(VFS_RENAME,     0x20b, vfs,    SM,  REQ,  0, TXT,    "text=path (\"old:new\" in one directory)") \
  /* READDIR is positionless (index in arg0), so repeating it after rollback  */                   \
  /* is invisible to VFS — read-only despite the cursor-like interface.       */                   \
  X(VFS_READDIR,    0x20c, vfs,    NSM, REQ,  1, TXT,    "text=path, arg0=index -> reply text=name, arg1=ino") \
  X(VFS_PIPE,       0x20d, vfs,    SM,  REQ,  0, NOTEXT, "-> reply arg0=read fd, arg1=write fd")   \
  X(VFS_DUP,        0x20e, vfs,    SM,  REQ,  1, NOTEXT, "arg0=fd -> reply arg0=new fd")           \
  X(VFS_TRUNC,      0x20f, vfs,    SM,  REQ,  1, TXT,    "text=path, arg0=new size")               \
  X(VFS_SYNC,       0x210, vfs,    SM,  REQ,  0, NOTEXT, "flush the block cache")                  \
  X(VFS_ACCESS,     0x211, vfs,    NSM, REQ,  0, TXT,    "text=path -> reply OK / E_NOENT")        \
  X(VFS_PM_FORK,    0x220, vfs,    SM,  REQ,  3, NOTEXT, "PM->VFS: arg0=parent pid, arg1=child pid, arg2=child ep") \
  X(VFS_PM_EXIT,    0x221, vfs,    SM,  REQ,  1, NOTEXT, "PM->VFS: arg0=pid")                      \
  /* PM_EXEC only *checks* that the binary exists (read-only lookup): keeping */                   \
  /* it NSM is a measurable chunk of PM's Table I coverage gain.              */                   \
  X(VFS_PM_EXEC,    0x222, vfs,    NSM, REQ,  2, TXT,    "PM->VFS: text=path, arg1=correlation pid (read-only binary check)") \
  X(VFS_DEV_DONE,   0x230, vfs,    NSM, NOTE, 1, NOTEXT, "notify: disk completion, arg0=op token") \
  /* --- VM: Virtual Memory Manager ----------------------------------------------------------- */\
  X(VM_MMAP,        0x301, vm,     SM,  REQ,  2, NOTEXT, "arg0=pid, arg1=length -> reply arg0=region id") \
  X(VM_MUNMAP,      0x302, vm,     SM,  REQ,  2, NOTEXT, "arg0=pid, arg1=region id")               \
  X(VM_BRK_AS,      0x303, vm,     SM,  REQ,  2, NOTEXT, "arg0=pid, arg1=new break -> reply arg0=break") \
  X(VM_FORK_AS,     0x304, vm,     SM,  REQ,  2, NOTEXT, "arg0=parent pid, arg1=child pid")        \
  X(VM_EXIT_AS,     0x305, vm,     SM,  REQ,  1, NOTEXT, "arg0=pid")                               \
  X(VM_EXEC_AS,     0x306, vm,     SM,  REQ,  2, NOTEXT, "arg0=pid, arg1=image pages")             \
  X(VM_INFO,        0x307, vm,     NSM, REQ,  0, NOTEXT, "-> reply arg0=free pages, arg1=total pages") \
  /* --- DS: Data Store ----------------------------------------------------------------------- */\
  X(DS_PUBLISH,     0x401, ds,     SM,  REQ,  1, TXT,    "text=key, arg0=value")                   \
  X(DS_RETRIEVE,    0x402, ds,     NSM, REQ,  0, TXT,    "text=key -> reply arg0=value")           \
  X(DS_DELETE,      0x403, ds,     SM,  REQ,  0, TXT,    "text=key")                               \
  X(DS_SUBSCRIBE,   0x404, ds,     SM,  REQ,  0, TXT,    "text=key prefix")                        \
  X(DS_CHECK,       0x405, ds,     NSM, REQ,  0, NOTEXT, "-> reply arg0=#pending events, text=last key") \
  /* Subscriber pokes carry no payload and mutate nothing on the receiver —   */                   \
  /* NSM + non-replyable is why DS stays recoverable under the enhanced       */                   \
  /* policy where the pessimistic one would close every publish window.       */                   \
  X(DS_NOTIFY_SUB,  0x410, client, NSM, NOTE, 0, NOTEXT, "notify DS -> subscriber: a matching key changed") \
  /* --- RS: Recovery Server ------------------------------------------------------------------ */\
  X(RS_STATUS,      0x501, rs,     NSM, REQ,  1, NOTEXT, "arg0=endpoint -> reply arg1=recoveries, arg2=hangs, arg3=last pong, arg4=quarantined") \
  /* Heartbeats mutate RS's liveness table and have no requester: SM +        */                   \
  /* non-replyable. This is why RS gains almost nothing from the enhanced     */                   \
  /* policy (49.4% -> 50.5% in our Table I reproduction).                     */                   \
  X(RS_PING,        0x510, any,    SM,  NOTE, 0, NOTEXT, "notify RS -> server (heartbeat); answered by ServerCommon") \
  X(RS_PONG,        0x511, rs,     SM,  NOTE, 0, NOTEXT, "notify server -> RS")                    \
  X(RS_SWEEP,       0x520, rs,     SM,  NOTE, 0, NOTEXT, "notify (clock -> RS): run the heartbeat sweep") \
  /* Storm-injection notes (liveness campaigns). Both are well-formed        */                   \
  /* no-ops consumed by ServerCommon before handler lookup — the point of a  */                   \
  /* storm is the *volume* of dispatches, not what any one message does.     */                   \
  X(FI_SPIN,        0x530, any,    SM,  NOTE, 0, NOTEXT, "notify self -> self: one spin-storm iteration (burns a dispatch)") \
  X(FI_FLOOD,       0x531, any,    SM,  NOTE, 0, NOTEXT, "notify storm -> victim: one flood-storm request") \
  /* --- SYS: kernel task (privileged operations, part of the RCB) ---------------------------- */\
  X(SYS_FORK,       0x601, sys,    SM,  REQ,  2, NOTEXT, "arg0=parent pid, arg1=child pid")        \
  X(SYS_EXIT,       0x602, sys,    SM,  REQ,  1, NOTEXT, "arg0=pid")                               \
  X(SYS_MAP,        0x603, sys,    SM,  REQ,  3, NOTEXT, "arg0=pid, arg1=page, arg2=frame")        \
  X(SYS_UNMAP,      0x604, sys,    SM,  REQ,  3, NOTEXT, "arg0=pid, arg1=page")                    \
  X(SYS_TIMES,      0x606, sys,    NSM, REQ,  0, NOTEXT, "-> reply arg0=uptime ticks")
// clang-format on

namespace osiris::servers {

/// All protocol message types, generated from the spec table. Values are
/// globally unique across servers (0x1xx PM, 0x2xx VFS, ... 0x6xx SYS).
enum MsgType : std::uint32_t {
#define X(NAME, VALUE, OWNER, CLS, KIND, NARGS, TEXT, DOC) NAME = VALUE,
  OSIRIS_MSG_SPEC(X)
#undef X
};

/// Delivery kind of a message type.
enum class MsgKind : std::uint8_t {
  kRequest,  // replyable request: sender waits, reconciliation may E_CRASH it
  kNotify,   // notification: delivered with kernel::kNotifyBit set
};

/// One row of the protocol spec.
struct MsgSpec {
  std::uint32_t type;
  seep::SeepClass seep;
  MsgKind kind;
  std::uint8_t args;  // number of meaningful request args
  bool text;          // whether the request carries m.text
  const char* name;
  const char* server;  // owning server ("client"/"any" = no single dispatcher)
  const char* doc;

  [[nodiscard]] constexpr bool replyable() const noexcept { return kind == MsgKind::kRequest; }
  [[nodiscard]] constexpr bool notify() const noexcept { return kind == MsgKind::kNotify; }
};
// The byte-wide fields share the word after `type`, so a row is 32 bytes: a
// row pointer turns back into its index with a shift wherever the compiler
// cannot fold the subtraction away, not with a multiply by the inverse of 40.
static_assert(sizeof(MsgSpec) == 32);

namespace spec_detail {
inline constexpr seep::SeepClass NSM = seep::SeepClass::kNonStateModifying;
inline constexpr seep::SeepClass SM = seep::SeepClass::kStateModifying;
inline constexpr MsgKind REQ = MsgKind::kRequest;
inline constexpr MsgKind NOTE = MsgKind::kNotify;
inline constexpr bool TXT = true;
inline constexpr bool NOTEXT = false;
}  // namespace spec_detail

/// The registry itself: one entry per protocol message, in table order.
inline constexpr MsgSpec kMsgSpecTable[] = {
#define X(NAME, VALUE, OWNER, CLS, KIND, NARGS, TEXT, DOC)                              \
  MsgSpec{VALUE, spec_detail::CLS, spec_detail::KIND, NARGS, spec_detail::TEXT, #NAME,  \
          #OWNER, DOC},
    OSIRIS_MSG_SPEC(X)
#undef X
};

inline constexpr std::size_t kMsgSpecCount = std::size(kMsgSpecTable);

// Flat-array type -> row, built at compile time: the dispatch hot path does
// one subtract, one bounds check and one array load — no hashing.
inline constexpr std::uint32_t kMsgBase = 0x100;
inline constexpr std::uint32_t kMsgSlots = 0x600;  // covers 0x100..0x6ff

namespace spec_detail {
// A plain array rather than std::array, so sanitizer builds do not
// null-check an operator[] call on the dispatch path.
struct MsgIndex {
  const MsgSpec* row[kMsgSlots];  // nullptr: a type the table does not declare
};
consteval MsgIndex build_index() {
  MsgIndex idx{};
  for (const MsgSpec& s : kMsgSpecTable) {
    const std::uint32_t off = s.type - kMsgBase;
    if (off >= kMsgSlots || idx.row[off] != nullptr) {
      throw "msg spec type out of range or duplicated";
    }
    idx.row[off] = &s;
  }
  return idx;
}
inline constexpr MsgIndex kIndex = build_index();
}  // namespace spec_detail

/// Look up the spec row for a message type; kNotifyBit/kReplyBit are ignored.
/// Returns nullptr for types outside the registry.
[[nodiscard]] inline constexpr const MsgSpec* find_msg_spec(std::uint32_t type) noexcept {
  const std::uint32_t base = (type & ~(kernel::kNotifyBit | kernel::kReplyBit)) - kMsgBase;
  return base < kMsgSlots ? spec_detail::kIndex.row[base] : nullptr;
}

/// Whether the sender of a message of this type may be waiting for a reply,
/// so reconciliation can answer it with E_CRASH. A type the table does not
/// declare gets the conservative answer: its sender may be waiting.
[[nodiscard]] inline constexpr bool msg_replyable(std::uint32_t type) noexcept {
  const MsgSpec* s = find_msg_spec(type);
  return s == nullptr || s->replyable();
}

/// Heartbeat-protocol traffic, exempt from the kernel's health monitor
/// (Kernel::set_health_exempt): it is never charged and never throttled.
/// Pings, pongs and RS's sweep note open no window by design, so charging
/// them would fever RS on its own sweeps; and dropping a throttled
/// component's pongs would convert every throttle into a phantom hang, when
/// the storm rung's whole point is that the component is *live*, just
/// feverish. `type` is the base type (notify/reply bits stripped by the
/// kernel).
[[nodiscard]] inline constexpr bool is_health_exempt(std::uint32_t type) noexcept {
  return type == RS_SWEEP || type == RS_PING || type == RS_PONG;
}

/// Symbolic name of a message type, or nullptr if unregistered.
[[nodiscard]] inline constexpr const char* msg_name(std::uint32_t type) noexcept {
  const MsgSpec* s = find_msg_spec(type);
  return s ? s->name : nullptr;
}

/// Human-readable label: symbolic name plus "+notify"/"+reply" qualifiers,
/// falling back to hex for unregistered types. Used by the trace exporters.
[[nodiscard]] inline std::string msg_label(std::uint32_t type) {
  std::string out;
  if (const char* name = msg_name(type)) {
    out = name;
  } else {
    char buf[16];
    std::snprintf(buf, sizeof buf, "0x%x", type & ~(kernel::kNotifyBit | kernel::kReplyBit));
    out = buf;
  }
  if (type & kernel::kNotifyBit) out += "+notify";
  if (type & kernel::kReplyBit) out += "+reply";
  return out;
}

// --- Typed marshalling -------------------------------------------------------

/// Sender-side: build a schema-checked request message. A violation here is a
/// bug in the *sender's* harness code, so it asserts rather than fail-stops.
/// `type` may carry kNotifyBit (self-notifies and boot pokes).
template <typename... Args>
[[nodiscard]] kernel::Message encode(std::uint32_t type, Args... args) {
  const MsgSpec* s = find_msg_spec(type);
  OSIRIS_ASSERT(s != nullptr);                  // sending an unregistered type
  OSIRIS_ASSERT(sizeof...(Args) <= s->args);    // more args than the schema allows
  kernel::Message m;
  m.type = type;
  if constexpr (sizeof...(Args) > 0) {
    const std::uint64_t packed[] = {static_cast<std::uint64_t>(args)...};
    for (std::size_t i = 0; i < sizeof...(Args); ++i) m.arg[i] = packed[i];
  }
  return m;
}

/// Sender-side variant for messages whose schema carries a text payload.
template <typename... Args>
[[nodiscard]] kernel::Message encode_text(std::uint32_t type, std::string_view text,
                                          Args... args) {
  const MsgSpec* s = find_msg_spec(type);
  OSIRIS_ASSERT(s != nullptr && s->text);       // text on a textless message
  kernel::Message m = encode(type, args...);
  m.text.assign(text);
  return m;
}

/// Receiver-side: schema-validated view over an incoming request. Reading
/// outside the schema is a malformed request — a fail-stop fault of the
/// current component (paper SII-E), contained at the dispatch boundary.
class MsgView {
 public:
  explicit MsgView(const kernel::Message& m)
      : m_(m), spec_(find_msg_spec(m.type)) {
    if (spec_ == nullptr) {
      throw kernel::FailStopFault("MsgView: unregistered message type");
    }
  }

  [[nodiscard]] std::uint64_t u(int i) const {
    if (i < 0 || i >= spec_->args) {
      throw kernel::FailStopFault("MsgView: arg index outside message schema");
    }
    return m_.arg[i];
  }
  [[nodiscard]] std::int64_t s(int i) const { return static_cast<std::int64_t>(u(i)); }
  [[nodiscard]] std::int32_t i32(int i) const { return static_cast<std::int32_t>(u(i)); }

  [[nodiscard]] std::string_view text() const {
    if (!spec_->text) {
      throw kernel::FailStopFault("MsgView: text read on a textless message");
    }
    return m_.text.view();
  }

  [[nodiscard]] const MsgSpec& spec() const noexcept { return *spec_; }
  [[nodiscard]] const kernel::Message& raw() const noexcept { return m_; }

 private:
  const kernel::Message& m_;
  const MsgSpec* spec_;
};

}  // namespace osiris::servers
