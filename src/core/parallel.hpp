// Thread pool and deterministic data-parallel loops.
//
// Every hot loop in the explanation stack (coalition evaluation, permutation
// sweeps, LIME neighborhoods, PDP grids, row-level explain_batch) is
// embarrassingly parallel, but the project's reproducibility contract demands
// that results are *bitwise identical* for 1 thread and N threads.  The
// utilities here make that easy to uphold:
//
//  * work is partitioned by *item index*, never by thread id — a task only
//    writes slots keyed by its indices, so the partition cannot leak into
//    the result;
//  * randomized loops derive one independent RNG stream per item via
//    Rng::stream(seed, item_index) instead of sharing a sequential
//    generator, so the draws an item sees do not depend on which thread
//    (or in what order) it runs;
//  * parallel_reduce buffers per-item results and folds them in ascending
//    index order, fixing the floating-point summation tree regardless of
//    thread count.
//
// A nested parallel_for issued from inside a pool worker runs inline on the
// calling thread (same results, no deadlock), so batch-over-rows loops can
// wrap explainers that are themselves parallel.
#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace xnfv {

/// Fixed-size pool of worker threads consuming a FIFO task queue.
/// submit() returns a future that completes when the task ran (and carries
/// any exception the task threw).  The destructor drains already-submitted
/// tasks before joining.
class ThreadPool {
public:
    /// Spawns `num_threads` workers (clamped to at least 1).
    explicit ThreadPool(std::size_t num_threads);
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

    /// Enqueues a task; the returned future rethrows the task's exception.
    std::future<void> submit(std::function<void()> task);

    /// True when the calling thread is a worker of *any* ThreadPool — used
    /// by parallel_for to run nested loops inline instead of deadlocking on
    /// its own pool.
    [[nodiscard]] static bool inside_worker() noexcept;

private:
    void worker_loop();

    std::vector<std::thread> workers_;
    std::deque<std::packaged_task<void()>> tasks_;
    std::mutex mutex_;
    std::condition_variable cv_;
    bool stopping_ = false;
};

/// Process-wide default thread count: hardware_concurrency unless overridden.
[[nodiscard]] std::size_t default_threads() noexcept;

/// Overrides default_threads(); 0 restores hardware_concurrency.  The CLI
/// --threads flag lands here.  Call before the first parallel loop if the
/// shared pool should be sized to the override.
void set_default_threads(std::size_t n) noexcept;

/// Maps the conventional "0 means default" request to a concrete count.
[[nodiscard]] std::size_t resolve_threads(std::size_t requested) noexcept;

namespace detail {
/// Lazily-created pool shared by all parallel_for callers, sized to
/// default_threads() at first use.
[[nodiscard]] ThreadPool& shared_pool();
}  // namespace detail

/// Runs fn(begin, end) over a contiguous partition of [0, n) into at most
/// `threads` chunks (0 = default_threads()).  Blocks until all chunks
/// finish; rethrows the lowest-chunk-index worker exception.  Runs inline
/// when the resolved count is 1, n < 2, or the caller is itself a pool
/// worker.  Chunk boundaries may vary with `threads`, so fn must only write
/// state keyed by item index.
template <typename Fn>
void parallel_for_chunks(std::size_t n, std::size_t threads, Fn&& fn) {
    if (n == 0) return;
    const std::size_t t = std::min(resolve_threads(threads), n);
    if (t <= 1 || ThreadPool::inside_worker()) {
        fn(std::size_t{0}, n);
        return;
    }
    ThreadPool& pool = detail::shared_pool();
    const std::size_t chunk = (n + t - 1) / t;
    std::vector<std::future<void>> pending;
    pending.reserve(t);
    for (std::size_t begin = 0; begin < n; begin += chunk) {
        const std::size_t end = std::min(begin + chunk, n);
        pending.push_back(pool.submit([&fn, begin, end] { fn(begin, end); }));
    }
    std::exception_ptr first;
    for (auto& f : pending) {
        try {
            f.get();
        } catch (...) {
            if (!first) first = std::current_exception();
        }
    }
    if (first) std::rethrow_exception(first);
}

/// Element-wise parallel loop: fn(i) for every i in [0, n), partitioned into
/// at most `threads` contiguous chunks.
template <typename Fn>
void parallel_for(std::size_t n, std::size_t threads, Fn&& fn) {
    parallel_for_chunks(n, threads, [&fn](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) fn(i);
    });
}

/// Deterministic ordered reduction: computes fn(i) for every item in
/// parallel, then folds the buffered results in ascending index order —
/// acc = merge(acc, result_i) — so the merge tree (and thus floating-point
/// rounding) is independent of the thread count.  T must be default- and
/// move-constructible.
template <typename T, typename Fn, typename Merge>
[[nodiscard]] T parallel_reduce(std::size_t n, std::size_t threads, T init, Fn&& fn,
                                Merge&& merge) {
    std::vector<T> results(n);
    parallel_for(n, threads, [&](std::size_t i) { results[i] = fn(i); });
    T acc = std::move(init);
    for (T& r : results) acc = merge(std::move(acc), std::move(r));
    return acc;
}

}  // namespace xnfv
