/**
 * Scalar GACT-X wavefront kernel and the shared per-thread scratch.
 *
 * The scalar variant instantiates the shared anti-diagonal scaffold
 * with a plain lane loop — same traversal, same buffers, and the exact
 * per-cell arithmetic the SIMD policies reuse for their tails — so
 * `DARWIN_KERNEL=scalar` exercises the wavefront dataflow itself, while
 * the seed column-serial engine survives unregistered as
 * `gactx_reference_align` (gactx_reference.cpp).
 */
#include "align/kernels/gactx_kernels.h"
#include "align/kernels/gactx_wavefront.h"

namespace darwin::align::kernels {

void
GactXScratch::prepare(std::size_t n, std::size_t npe)
{
    const auto grow = [](std::vector<Score>& v, std::size_t size) {
        if (v.size() < size)
            v.resize(size);
    };
    grow(bram_v, n + 1);
    grow(bram_g, n + 1);
    grow(next_v, n + 1);
    grow(next_g, n + 1);
    grow(v0, npe + 2);
    grow(v1, npe + 2);
    grow(v2, npe + 2);
    grow(g0, npe + 2);
    grow(g1, npe + 2);
    grow(h0, npe + 2);
    grow(h1, npe + 2);
    grow(init_left, npe);
    grow(colmax, n + 1);
    if (colbest.size() < n + 1)
        colbest.resize(n + 1);
}

GactXScratch&
gactx_scratch()
{
    thread_local GactXScratch scratch;
    return scratch;
}

namespace {

template <bool kScoreOnly>
struct ScalarPolicy {
    explicit ScalarPolicy(const GactXDiagCtx&) {}

    void
    diagonal(const GactXDiagCtx& ctx, std::size_t dd, std::size_t rlo,
             std::size_t rhi) const
    {
        for (std::size_t r = rlo; r <= rhi; ++r)
            gactx_cell<kScoreOnly>(ctx, dd, r);
    }
};

}  // namespace

TileResult
gactx_wavefront_scalar(std::span<const std::uint8_t> target,
                       std::span<const std::uint8_t> query,
                       const GactXParams& params)
{
    return gactx_align_wavefront<ScalarPolicy<false>>(target, query, params);
}

TileResult
gactx_wavefront_scalar_score_only(std::span<const std::uint8_t> target,
                                  std::span<const std::uint8_t> query,
                                  const GactXParams& params)
{
    return gactx_align_wavefront<ScalarPolicy<true>, /*kScoreOnly=*/true>(
        target, query, params);
}

}  // namespace darwin::align::kernels
