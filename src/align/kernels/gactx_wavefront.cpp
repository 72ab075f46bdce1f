/**
 * Scalar GACT-X wavefront kernel and the shared per-thread scratch.
 *
 * The scalar variant runs the shared scaffold's lane-buffer walk — the
 * same traversal and per-cell arithmetic the vector tiers fall back to
 * past kGactXPad rows — so `DARWIN_KERNEL=scalar` exercises the
 * wavefront dataflow itself, while the seed column-serial engine
 * survives unregistered as `gactx_reference_align`
 * (gactx_reference.cpp).
 */
#include "align/kernels/gactx_kernels.h"
#include "align/kernels/gactx_wavefront.h"

namespace darwin::align::kernels {

void
GactXScratch::prepare(std::span<const std::uint8_t> target,
                      std::span<const std::uint8_t> query, std::size_t npe,
                      bool padded)
{
    const std::size_t n = target.size();
    const auto grow = [](auto& v, std::size_t size) {
        if (v.size() < size)
            v.resize(size);
    };
    for (auto* frontier : {&bram_v, &bram_g, &next_v, &next_g})
        grow(*frontier, n + 1);
    for (auto* lane : {&v0, &v1, &v2, &g0, &g1, &h0, &h1, &c0, &c1})
        grow(*lane, npe + 2);
    grow(b0, npe + 2);
    grow(b1, npe + 2);
    grow(init_left, npe + kGactXPad);
    if (!padded)
        return;

    tpad.assign(n + 2 * kGactXPad, 0);
    for (std::size_t x = 0; x < n; ++x)
        tpad[kGactXPad + x] =
            static_cast<std::uint8_t>(target[n - 1 - x] * seq::kNumCodes);
    qpad.assign(query.size() + kGactXPad, 0);
    std::copy(query.begin(), query.end(), qpad.begin());
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

    static bool pads(std::size_t) { return false; }

    void
    walk(GactXDiagCtx& ctx, const GactXStripe& st, GactXScratch& ws,
         GactXColumns& cols) const
    {
        gactx_lane_buffer_walk<kScoreOnly>(ctx, st, ws, cols);
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
