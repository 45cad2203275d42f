// Memory grants, mirroring MINIX 3's safecopy grant mechanism.
//
// The simulator runs in a single host address space, but bulk data transfer
// between a user process and a server still goes through kernel-mediated
// grants: the user creates a grant over a buffer, passes the grant id in a
// message, and the server asks the kernel to safecopy through it. This keeps
// the isolation discipline of the real system: servers never touch foreign
// memory directly, and a revoked or out-of-bounds access is a containable
// fail-stop fault rather than silent corruption.
#pragma once

#include <cstddef>
#include <cstdint>

#include "kernel/endpoint.hpp"

namespace osiris::kernel {

using GrantId = std::uint64_t;
inline constexpr GrantId kNoGrant = 0;

enum class Access : std::uint8_t {
  kRead = 1,       // grantee may read from the buffer
  kWrite = 2,      // grantee may write into the buffer
  kReadWrite = 3,
};

struct Grant {
  Endpoint owner = kNoEndpoint;    // process whose memory is granted
  Endpoint grantee = kNoEndpoint;  // server allowed to use the grant
  std::byte* base = nullptr;
  std::size_t len = 0;
  Access access = Access::kRead;
};

}  // namespace osiris::kernel
