// System-wide IPC protocol. The message types themselves — together with
// their owning server, SEEP class and arg/text schema — live in the
// declarative spec table in servers/msg_spec.hpp; this header adds the
// protocol-adjacent constants that are not per-message rows.
//
// Conventions
// -----------
//   request arg/text layout is documented per spec row in msg_spec.hpp;
//   replies carry status in arg[0] (>= 0 result, < 0 kernel::Errno).
#pragma once

#include <cstdint>

#include "kernel/endpoint.hpp"
#include "servers/msg_spec.hpp"

namespace osiris::servers {

/// System-wide process-table capacity (shared by PM, VM, VFS and SYS).
inline constexpr std::size_t kMaxProcs = 64;

// File open flags (arg0 of VFS_OPEN).
enum OpenFlags : std::uint64_t {
  O_RDONLY = 0x0,
  O_WRONLY = 0x1,
  O_RDWR = 0x2,
  O_CREAT = 0x40,
  O_TRUNC = 0x200,
  O_APPEND = 0x400,
};

/// Endpoint of the SYS kernel task (registered as a server in the simulator).
inline constexpr kernel::Endpoint kSysEp{6};

/// Signals.
enum Signal : std::uint64_t {
  kSigKill = 9,
  kSigTerm = 15,
  kSigUsr1 = 10,
  kSigUsr2 = 12,
  kSigChld = 17,
};

}  // namespace osiris::servers
