// Lock-free single-producer / single-consumer ring, and the coalesced-wake
// flag that rides next to it.
//
// This is the per-shard completion path of the sharded explanation server:
// the shard's service dispatcher thread pushes rendered response lines, the
// shard's event-loop thread pops them.  The previous design was a
// mutex-protected vector; under a cached-hit flood the lock and the
// per-completion eventfd write dominated the handoff, so the ring removes
// the lock from the data path and CoalescedWake collapses N completions
// into (at most) one eventfd write per loop wakeup.
//
// Memory ordering is the classic Lamport queue: the producer publishes a
// slot with a release store of head_, the consumer acquires it; symmetric
// for tail_.  head_ and tail_ live on separate cache lines so producer and
// consumer do not false-share.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <new>
#include <utility>
#include <vector>

namespace xnfv::net {

/// Destructive-interference stride for head/tail separation.  A fixed 64
/// (right for x86-64 and most aarch64) keeps the layout ABI-stable instead
/// of tracking the compiler's -Winterference-size-guarded constant.
inline constexpr std::size_t kCacheLine = 64;

/// Fixed-capacity lock-free SPSC FIFO.  Exactly one thread may call
/// try_push (at a time, with a happens-before edge between successive
/// producers) and exactly one may call try_pop; size()/empty() are safe
/// from either side as monitoring hints.
template <typename T>
class SpscRing {
public:
    /// Capacity is rounded up to a power of two (minimum 2) so the index
    /// wrap is a mask, not a modulo.
    explicit SpscRing(std::size_t capacity) {
        std::size_t cap = 2;
        while (cap < capacity) cap <<= 1;
        slots_.resize(cap);
        mask_ = cap - 1;
    }

    SpscRing(const SpscRing&) = delete;
    SpscRing& operator=(const SpscRing&) = delete;

    [[nodiscard]] std::size_t capacity() const noexcept { return mask_ + 1; }

    /// Producer side.  Returns false when the ring is full (the caller
    /// decides whether to spin, drop, or spill).
    [[nodiscard]] bool try_push(T&& value) {
        const auto head = head_.load(std::memory_order_relaxed);
        const auto tail = tail_.load(std::memory_order_acquire);
        if (head - tail > mask_) return false;  // full
        slots_[head & mask_] = std::move(value);
        head_.store(head + 1, std::memory_order_release);
        return true;
    }

    /// Consumer side.  Returns false when the ring is empty.
    [[nodiscard]] bool try_pop(T& out) {
        const auto tail = tail_.load(std::memory_order_relaxed);
        const auto head = head_.load(std::memory_order_acquire);
        if (tail == head) return false;  // empty
        out = std::move(slots_[tail & mask_]);
        tail_.store(tail + 1, std::memory_order_release);
        return true;
    }

    /// Approximate occupancy (exact when called from either endpoint's own
    /// thread between its operations).
    [[nodiscard]] std::size_t size() const noexcept {
        const auto head = head_.load(std::memory_order_acquire);
        const auto tail = tail_.load(std::memory_order_acquire);
        return static_cast<std::size_t>(head - tail);
    }
    [[nodiscard]] bool empty() const noexcept { return size() == 0; }

private:
    std::vector<T> slots_;
    std::size_t mask_ = 0;
    alignas(kCacheLine) std::atomic<std::uint64_t> head_{0};  ///< next write
    alignas(kCacheLine) std::atomic<std::uint64_t> tail_{0};  ///< next read
};

/// Collapses a burst of producer-side wake requests into one consumer
/// notification.  Producer calls raise() after every push and notifies
/// (eventfd write) only when it returns true; the consumer calls rearm()
/// BEFORE draining, so a push that lands mid-drain raises a fresh wake
/// instead of being lost.
///
/// Both sides are read-modify-writes of one flag, so they are totally
/// ordered: a raise() ordered before the rearm() finds the flag set and
/// skips the wake, but the rearm() then acquires it, and the drain that
/// follows sees that push; a raise() ordered after finds the flag clear and
/// delivers a fresh wake.  A plain store in rearm() would lose the first
/// case: the consumer's read of the ring could miss a push whose raise()
/// saw the old flag.
class CoalescedWake {
public:
    /// True when the caller owns delivering the (single) pending wake.
    [[nodiscard]] bool raise() noexcept {
        return !pending_.exchange(true, std::memory_order_acq_rel);
    }
    /// Consumer: accept the wake and allow the next one.
    void rearm() noexcept { pending_.exchange(false, std::memory_order_acq_rel); }
    [[nodiscard]] bool pending() const noexcept {
        return pending_.load(std::memory_order_acquire);
    }

private:
    std::atomic<bool> pending_{false};
};

}  // namespace xnfv::net
