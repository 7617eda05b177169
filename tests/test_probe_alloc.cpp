// Heap-churn guards for the batched inference path.
//
// The blocked probe rewrites exist to stop allocating per coalition/probe:
// flattened tree kernels write into caller buffers, and explainers reuse one
// ProbeScratch per task.  These tests count global operator new calls to pin
// that down: a warm predict_batch allocates nothing, and an explainer's
// allocation count does not grow with the number of background rows (the old
// per-probe loop allocated per evaluation).
//
// The counting operator new replacement is incompatible with sanitizer
// interceptors — keep this binary out of the ASan/TSan CI jobs.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "core/kernel_shap.hpp"
#include "core/occlusion.hpp"
#include "core/parallel.hpp"
#include "golden_scenario.hpp"
#include "mlcore/forest.hpp"
#include "mlcore/gbt.hpp"
#include "mlcore/rng.hpp"

namespace {
std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
    if (g_counting.load(std::memory_order_relaxed))
        g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
    throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace ml = xnfv::ml;
namespace xai = xnfv::xai;

namespace {

template <typename Fn>
std::uint64_t count_allocs(Fn&& fn) {
    g_allocs.store(0, std::memory_order_relaxed);
    g_counting.store(true, std::memory_order_relaxed);
    fn();
    g_counting.store(false, std::memory_order_relaxed);
    return g_allocs.load(std::memory_order_relaxed);
}

ml::Matrix random_matrix(std::size_t rows, std::size_t cols, ml::Rng& rng) {
    ml::Matrix m(rows, cols);
    for (std::size_t r = 0; r < rows; ++r)
        for (std::size_t c = 0; c < cols; ++c) m(r, c) = rng.uniform(-2.0, 2.0);
    return m;
}

}  // namespace

TEST(ProbeAlloc, WarmPredictBatchAllocatesNothing) {
    // A multi-thread default on any host: a predict_batch that fanned out
    // onto the pool would allocate its tasks, while the serial flattened
    // kernels write straight into the caller's buffer.
    xnfv::set_default_threads(4);
    const auto data = xnfv::golden::make_dataset();
    const auto forest = xnfv::golden::make_forest(data);
    const auto gbt = xnfv::golden::make_gbt(data);
    ml::Rng rng(123);
    const auto x = random_matrix(300, data.num_features(), rng);
    std::vector<double> out(x.rows());
    forest.predict_batch(x, out);  // warm-up
    gbt.predict_batch(x, out);
    EXPECT_EQ(count_allocs([&] { forest.predict_batch(x, out); }), 0u);
    EXPECT_EQ(count_allocs([&] { gbt.predict_batch(x, out); }), 0u);
    xnfv::set_default_threads(0);  // restore hardware default
}

TEST(ProbeAlloc, OcclusionAllocationCountIndependentOfBackgroundSize) {
    // The legacy loop allocated one probe vector per (feature, background
    // row) evaluation; the blocked path allocates a constant number of
    // scratch buffers per explain() regardless of background size.  Four
    // default threads make the pin independent of the host's core count.
    xnfv::set_default_threads(4);
    const auto data = xnfv::golden::make_dataset();
    const auto forest = xnfv::golden::make_forest(data);
    const auto x = data.x.row(3);
    const auto allocs_with_bg = [&](std::size_t bg_rows) {
        xai::Occlusion occ(xai::BackgroundData(data.x, bg_rows),
                           xai::Occlusion::Config{.threads = 1});
        (void)occ.explain(forest, x);  // warm: base-value cache, pool state
        return count_allocs([&] { (void)occ.explain(forest, x); });
    };
    const auto small = allocs_with_bg(16);
    const auto large = allocs_with_bg(64);
    EXPECT_EQ(small, large) << "allocation count must not scale with background rows";
    xnfv::set_default_threads(0);  // restore hardware default
}

TEST(ProbeAlloc, KernelShapAllocationCountIndependentOfBackgroundSize) {
    // Same invariant for the coalition path: scratch blocks are reused, so
    // only the per-call containers (masks, weights, WLS design) allocate —
    // all sized by the coalition budget, not by background rows.
    xnfv::set_default_threads(4);
    const auto data = xnfv::golden::make_dataset();
    const auto forest = xnfv::golden::make_forest(data);
    const auto x = data.x.row(3);
    const auto allocs_with_bg = [&](std::size_t bg_rows) {
        xai::KernelShap ks(xai::BackgroundData(data.x, bg_rows), ml::Rng(7),
                           xai::KernelShap::Config{.max_coalitions = 64, .threads = 1});
        (void)ks.explain(forest, x);
        return count_allocs([&] { (void)ks.explain(forest, x); });
    };
    const auto small = allocs_with_bg(16);
    const auto large = allocs_with_bg(64);
    EXPECT_EQ(small, large) << "allocation count must not scale with background rows";
    xnfv::set_default_threads(0);  // restore hardware default
}
