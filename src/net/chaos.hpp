// Deterministic socket-level fault injection for the TCP serving fleet.
//
// The serve-layer FaultInjector (serve/fault_injector.hpp) chaos-tests the
// *compute* path; this injector runs the same seeded schedule over the
// *network* path's failure points: short sends, torn reads, synthetic EINTR
// storms, withheld reads, and RST aborts.  A null injector costs one pointer
// check per I/O call.
//
// Determinism contract, mirroring PR 3's chaos-replay pin: each connection
// carries its own poll counters (NetFaultCounters), so the k-th I/O poll of
// a point on a given connection fires as a pure function of
// (seed, point, k) — independent of sibling connections, shard scheduling,
// and wall-clock time.  The chunking faults (partial_write / torn_read /
// eintr_storm / stalled_read) only reshape *when* bytes move, never *which*
// bytes, so every response stream is byte-identical to a fault-free run;
// rst_close kills transport, which client retries absorb.
#pragma once

#include <cstddef>
#include <cstdint>

#include "serve/fault_injector.hpp"

namespace xnfv::net {

/// Named socket failure points.
enum class NetFaultPoint : std::uint8_t {
    partial_write = 0,  ///< flush moves at most one byte, then backpressures
    torn_read,          ///< recv capped to a few bytes: frames arrive torn
    eintr_storm,        ///< synthetic EINTR before the syscall; retry loops
    stalled_read,       ///< readable bytes withheld one round (slow peer)
    rst_close,          ///< connection aborted with SO_LINGER(0): peer sees RST
};

inline constexpr std::size_t kNumNetFaultPoints = 5;

[[nodiscard]] constexpr const char* to_string(NetFaultPoint point) noexcept {
    switch (point) {
        case NetFaultPoint::partial_write: return "partial_write";
        case NetFaultPoint::torn_read: return "torn_read";
        case NetFaultPoint::eintr_storm: return "eintr_storm";
        case NetFaultPoint::stalled_read: return "stalled_read";
        case NetFaultPoint::rst_close: return "rst_close";
    }
    return "unknown";
}

/// Seeded, counter-driven socket fault schedule (serve::FaultSchedule); a
/// default (zero-rate) injector never fires.  max_fires caps are
/// fleet-wide: rst_close with max_fires = 3 models "abort three
/// connections".
using NetFaultInjector = serve::FaultSchedule<NetFaultPoint, kNumNetFaultPoints>;

/// Per-stream poll counters.  Every Connection owns one, giving it a fault
/// schedule that depends only on its own syscall sequence.  Touched only by
/// the connection's shard thread — no atomics needed.
using NetFaultCounters = NetFaultInjector::Polls;

/// Null-safe poll of a point against a connection's own counters.
[[nodiscard]] inline bool net_fault_fires(NetFaultInjector* injector, NetFaultPoint point,
                                          NetFaultCounters& local) noexcept {
    return injector != nullptr && injector->should_fire(point, &local);
}

}  // namespace xnfv::net
