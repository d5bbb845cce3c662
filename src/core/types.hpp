// Fundamental vocabulary types shared by the RMW algebra, the network
// simulator, and the verification layer.
#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <string>

namespace krs::core {

/// A machine word as stored in a shared-memory cell. The paper assumes
/// fixed-size words of w bits; we use 64.
using Word = std::uint64_t;

/// Address of a shared-memory cell (global, module-interleaved addressing is
/// applied by the memory system).
using Addr = std::uint64_t;

/// Simulation time in network/memory cycles.
using Tick = std::uint64_t;

/// Globally unique identifier of an outstanding memory request:
/// (issuing processor, per-processor sequence number). The paper notes the
/// address may be folded into the identifier; keeping an explicit sequence
/// number lets a processor have many outstanding requests to one location.
struct ReqId {
  std::uint32_t proc = 0;
  std::uint32_t seq = 0;

  friend auto operator<=>(const ReqId&, const ReqId&) = default;
};

struct ReqIdHash {
  std::size_t operator()(const ReqId& id) const noexcept {
    return std::hash<std::uint64_t>{}(
        (static_cast<std::uint64_t>(id.proc) << 32) | id.seq);
  }
};

inline std::string to_string(const ReqId& id) {
  std::string s = "P";
  s += std::to_string(id.proc);
  s += '#';
  s += std::to_string(id.seq);
  return s;
}

}  // namespace krs::core
