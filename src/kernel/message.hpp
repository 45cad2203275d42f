// Fixed-size IPC message, mirroring MINIX 3's fixed-size message structure.
//
// A message carries a type, the sender endpoint (filled in by the kernel),
// six scalar arguments and a small inline text payload used for paths, keys
// and process names. Bulk data (read/write buffers) never travels inline; it
// is transferred through memory grants (see grant.hpp), as in MINIX.
#pragma once

#include <cstdint>

#include "kernel/endpoint.hpp"
#include "support/fixed_string.hpp"

namespace osiris::kernel {

inline constexpr std::size_t kMsgTextCap = 64;

struct Message {
  std::uint32_t type = 0;
  Endpoint sender = kNoEndpoint;
  std::uint64_t arg[6] = {0, 0, 0, 0, 0, 0};
  FixedString<kMsgTextCap> text;

  [[nodiscard]] std::int64_t sarg(int i) const noexcept {
    return static_cast<std::int64_t>(arg[i]);
  }
  void set_sarg(int i, std::int64_t v) noexcept { arg[i] = static_cast<std::uint64_t>(v); }
};

/// Builds a message of the given type with up to three scalar args.
inline Message make_msg(std::uint32_t type, std::uint64_t a0 = 0, std::uint64_t a1 = 0,
                        std::uint64_t a2 = 0) {
  Message m;
  m.type = type;
  m.arg[0] = a0;
  m.arg[1] = a1;
  m.arg[2] = a2;
  return m;
}

/// Notification messages (no reply expected) have this bit set in the type.
inline constexpr std::uint32_t kNotifyBit = 0x40000000u;
inline constexpr bool is_notify(std::uint32_t type) { return (type & kNotifyBit) != 0; }

/// Reply convention: replies reuse the request type with the high bit set;
/// arg[0] carries the status (>= 0 result, < 0 negated errno).
inline constexpr std::uint32_t kReplyBit = 0x80000000u;

inline constexpr std::uint32_t reply_type(std::uint32_t request_type) {
  return request_type | kReplyBit;
}
inline constexpr bool is_reply(std::uint32_t type) { return (type & kReplyBit) != 0; }

inline Message make_reply(std::uint32_t request_type, std::int64_t status) {
  Message m;
  m.type = reply_type(request_type);
  m.set_sarg(0, status);
  return m;
}

/// OSIRIS error codes (negated errno-style values carried in reply arg[0]).
enum Errno : std::int64_t {
  OK = 0,
  E_CRASH = -1,   // error-virtualized reply after component recovery (paper SIII-C)
  E_NOENT = -2,
  E_NOMEM = -3,
  E_INVAL = -4,
  E_BADF = -5,
  E_MFILE = -6,
  E_EXIST = -7,
  E_NOTDIR = -8,
  E_ISDIR = -9,
  E_NOSPC = -10,
  E_AGAIN = -11,
  E_CHILD = -12,
  E_SRCH = -13,
  E_PERM = -14,
  E_NOSYS = -15,
  E_NOTEMPTY = -16,
  E_PIPE = -17,
  E_NAMETOOLONG = -18,
  E_NFILE = -19,
  E_SHUTDOWN = -20,  // system performed a controlled shutdown
  E_FBIG = -21,
  E_DEADLK = -22,
};

/// The error-virtualized reply to `request` (paper SIII-C). arg1 travels
/// back unchanged: an asynchronous requester matches replies to its pending
/// work by it (VFS_PM_EXEC's correlation pid), and every other reply consumer
/// reads arg1 only after an OK status.
inline Message make_crash_reply(const Message& request) {
  Message m = make_reply(request.type, E_CRASH);
  m.arg[1] = request.arg[1];
  return m;
}

/// Human-readable name for an Errno (for logs and test diagnostics).
const char* errno_name(std::int64_t e);

}  // namespace osiris::kernel
