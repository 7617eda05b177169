// Unit tests for the lock-free SPSC completion ring and the coalesced
// eventfd wake flag (net/spsc_ring.hpp) — the dispatcher-to-loop data path
// of the TCP front-end.
//
// Covers the boundary conditions a Lamport queue gets wrong first
// (full/empty detection, wrap-around after many laps, capacity rounding),
// the raise/rearm coalescing contract, producer/consumer threads racing
// through shutdown, and a litmus test of the wake handoff itself.  The
// threaded cases are the reason this suite is in the CI TSan job: the
// release/acquire pair on head/tail is load-bearing.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/spsc_ring.hpp"

namespace net = xnfv::net;

TEST(SpscRing, EmptyPopFails) {
    net::SpscRing<int> ring(4);
    int out = 0;
    EXPECT_TRUE(ring.empty());
    EXPECT_EQ(ring.size(), 0u);
    EXPECT_FALSE(ring.try_pop(out));
}

TEST(SpscRing, FillToCapacityThenOverflowFails) {
    net::SpscRing<int> ring(8);
    EXPECT_EQ(ring.capacity(), 8u);
    for (int i = 0; i < 8; ++i) EXPECT_TRUE(ring.try_push(int{i}));
    EXPECT_FALSE(ring.try_push(99));  // full: push must fail, not overwrite
    EXPECT_EQ(ring.size(), 8u);
    int out = -1;
    for (int i = 0; i < 8; ++i) {
        ASSERT_TRUE(ring.try_pop(out));
        EXPECT_EQ(out, i);  // FIFO
    }
    EXPECT_FALSE(ring.try_pop(out));
}

TEST(SpscRing, CapacityRoundsUpToPowerOfTwo) {
    net::SpscRing<int> ring(5);
    EXPECT_EQ(ring.capacity(), 8u);
    net::SpscRing<int> tiny(0);
    EXPECT_GE(tiny.capacity(), 2u);
    net::SpscRing<int> exact(16);
    EXPECT_EQ(exact.capacity(), 16u);
}

TEST(SpscRing, WrapAroundManyLaps) {
    // Indices keep growing monotonically and are masked on access; dozens of
    // laps over a tiny ring exercises every wrap offset.
    net::SpscRing<std::size_t> ring(4);
    std::size_t next_push = 0, next_pop = 0;
    for (int lap = 0; lap < 100; ++lap) {
        while (ring.try_push(std::size_t{next_push})) ++next_push;
        std::size_t out = 0;
        while (ring.try_pop(out)) {
            ASSERT_EQ(out, next_pop);
            ++next_pop;
        }
    }
    EXPECT_EQ(next_push, next_pop);
    EXPECT_GE(next_push, 100u);
}

TEST(SpscRing, MoveOnlyPayload) {
    net::SpscRing<std::unique_ptr<std::string>> ring(2);
    EXPECT_TRUE(ring.try_push(std::make_unique<std::string>("a")));
    std::unique_ptr<std::string> out;
    ASSERT_TRUE(ring.try_pop(out));
    ASSERT_TRUE(out);
    EXPECT_EQ(*out, "a");
}

TEST(SpscRing, ProducerConsumerThreadsDeliverEverythingInOrder) {
    // The TSan-checked core: one producer, one consumer, a ring small enough
    // to hit full and empty constantly.
    constexpr std::size_t kItems = 200000;
    net::SpscRing<std::size_t> ring(16);
    std::thread producer([&ring] {
        for (std::size_t i = 0; i < kItems; ++i)
            while (!ring.try_push(std::size_t{i})) std::this_thread::yield();
    });
    std::size_t expect = 0;
    while (expect < kItems) {
        std::size_t out = 0;
        if (!ring.try_pop(out)) {
            std::this_thread::yield();
            continue;
        }
        ASSERT_EQ(out, expect);
        ++expect;
    }
    producer.join();
    EXPECT_TRUE(ring.empty());
}

TEST(SpscRing, ConsumerShutdownRace) {
    // Producer keeps pushing while the consumer walks away mid-stream; the
    // ring must stay structurally sound (every slot either delivered or
    // still queued, nothing torn).  Mirrors a server drain racing the
    // dispatcher's last completions.
    net::SpscRing<std::string> ring(8);
    std::atomic<bool> stop{false};
    std::atomic<std::size_t> pushed{0};
    std::thread producer([&] {
        std::size_t i = 0;
        while (!stop.load(std::memory_order_acquire)) {
            if (ring.try_push("payload-" + std::to_string(i))) {
                ++i;
                pushed.store(i, std::memory_order_release);
            }
        }
    });
    std::string out;
    std::size_t popped = 0;
    while (popped < 1000)
        if (ring.try_pop(out)) {
            ASSERT_EQ(out, "payload-" + std::to_string(popped));
            ++popped;
        }
    stop.store(true, std::memory_order_release);  // consumer walks away here
    producer.join();
    // Post-shutdown sweep drains the stragglers, still in order.
    while (ring.try_pop(out)) {
        ASSERT_EQ(out, "payload-" + std::to_string(popped));
        ++popped;
    }
    EXPECT_EQ(popped, pushed.load());
}

TEST(CoalescedWake, FirstRaiseWinsUntilRearm) {
    net::CoalescedWake wake;
    EXPECT_FALSE(wake.pending());
    EXPECT_TRUE(wake.raise());    // first raise: caller must notify
    EXPECT_FALSE(wake.raise());   // coalesced: already pending
    EXPECT_FALSE(wake.raise());
    EXPECT_TRUE(wake.pending());
    wake.rearm();
    EXPECT_FALSE(wake.pending());
    EXPECT_TRUE(wake.raise());    // next burst notifies again
}

TEST(CoalescedWake, RaisesAreNeverLostAcrossThreads) {
    // The rearm-before-drain pattern from the server: if a raise happens
    // after rearm, pending() is observable, so a wake is never swallowed.
    net::CoalescedWake wake;
    std::atomic<std::size_t> notifies{0};
    std::atomic<bool> stop{false};
    std::thread producer([&] {
        while (!stop.load(std::memory_order_acquire)) {
            if (wake.raise()) notifies.fetch_add(1, std::memory_order_relaxed);
            std::this_thread::yield();
        }
    });
    std::size_t drains = 0;
    while (drains < 1000) {
        if (!wake.pending()) {
            std::this_thread::yield();  // single-core boxes starve otherwise
            continue;
        }
        wake.rearm();
        ++drains;
    }
    stop.store(true, std::memory_order_release);
    producer.join();
    if (wake.pending()) wake.rearm();
    // Every drain consumed exactly one pending flag, and every successful
    // raise() produced one; the counts can differ by at most the final
    // in-flight raise.
    EXPECT_GE(notifies.load() + 1, drains);
}

TEST(CoalescedWake, PushAndRaiseRacingRearmAndPopLoseNoWake) {
    // The completion handoff, raced once per iteration: the producer pushes
    // and raises while the consumer, holding a pending wake, rearms and
    // pops.  A wake is lost when the raise found the flag still set (so it
    // sent none) and the pop still missed the push; the item would then sit
    // in the ring until some later completion.  With rearm() as a plain
    // release store this loses thousands of wakes per million iterations on
    // x86; the consumer's staggered delay spreads the two sides across the
    // race window.
    constexpr std::uint64_t kIterations = 1'000'000;
    net::SpscRing<std::uint64_t> ring(4);
    net::CoalescedWake wake;
    std::atomic<std::uint64_t> producer_at{0}, consumer_at{0}, pushed{0};
    std::atomic<bool> raised{false};
    // Spins until `flag` reaches `value`, yielding so a 1-core host finishes.
    const auto await = [](const std::atomic<std::uint64_t>& flag, std::uint64_t value) {
        for (unsigned spins = 1; flag.load(std::memory_order_acquire) < value; ++spins)
            if (spins % 64 == 0) std::this_thread::yield();
    };
    std::thread producer([&] {
        for (std::uint64_t i = 1; i <= kIterations; ++i) {
            producer_at.store(i, std::memory_order_release);
            await(consumer_at, i);
            (void)ring.try_push(std::uint64_t{i});  // empty: the consumer took i - 1
            raised.store(wake.raise(), std::memory_order_relaxed);
            pushed.store(i, std::memory_order_release);
        }
    });
    std::uint64_t lost = 0;
    bool in_order = true;
    for (std::uint64_t i = 1; i <= kIterations && in_order; ++i) {
        (void)wake.raise();  // the wake the consumer is handling
        consumer_at.store(i, std::memory_order_release);
        await(producer_at, i);
        for (std::uint64_t k = i % 128; k > 0; --k)
            std::atomic_signal_fence(std::memory_order_seq_cst);
        wake.rearm();
        std::uint64_t out = 0;
        const bool popped = ring.try_pop(out);
        await(pushed, i);
        if (!popped && !raised.load(std::memory_order_relaxed)) ++lost;
        in_order = (popped || ring.try_pop(out)) && out == i;
    }
    consumer_at.store(kIterations, std::memory_order_release);  // frees an early exit
    producer.join();
    EXPECT_TRUE(in_order);
    EXPECT_EQ(lost, 0u);
}
