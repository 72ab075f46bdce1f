/**
 * Anti-diagonal (wavefront) banded Smith-Waterman, scalar variant (the
 * shared walk, bsw_align_wavefront, with a plain lane loop), plus the
 * per-thread scratch shared with the SIMD variants.
 *
 * Layout (see bsw_kernels.h): cells of diagonal d = i + j are stored at
 * slot i of the diagonal's buffer. The recurrences then read
 *
 *   left (i, j-1):  Vd1[i],   Hd1[i]      (diagonal d-1)
 *   up   (i-1, j):  Vd1[i-1], Gd1[i-1]    (diagonal d-1)
 *   diag (i-1,j-1): Vd2[i-1]              (diagonal d-2)
 *
 * all of which are contiguous in i — the property the SIMD kernels
 * exploit. Out-of-band neighbours are provided by -inf edge sentinels
 * written one slot beyond each diagonal's computed range (the range
 * moves by at most one slot per diagonal), and the alignment-start
 * boundaries V(0, *) = V(*, 0) = 0 live at slot 0 (row 0, permanent)
 * and slot d (column 0 of diagonal d, written when d <= m).
 */
#include "align/kernels/bsw_kernels.h"

namespace darwin::align::kernels {

WavefrontScratch& wavefront_scratch() {
    thread_local WavefrontScratch scratch;
    return scratch;
}

void WavefrontScratch::prepare(std::size_t m) {
    const std::size_t len = m + 2;
    for (std::vector<Score>* vec : {&v0, &v1, &v2, &g0, &g1, &h0, &h1})
        if (vec->size() < len)
            vec->resize(len, kScoreNegInf);
    // Initial state for the d = 2 iteration. Roles: v0 = diagonal 0,
    // v1 = diagonal 1, v2 = current; g0/h0 = diagonal 1, g1/h1 = current.
    v0[0] = 0;           // V(0, 0)
    v1[0] = 0;           // V(0, 1)
    v1[1] = 0;           // V(1, 0)
    v2[0] = 0;           // row-0 slot is permanently 0 in every V buffer
    g0[0] = g0[1] = kScoreNegInf;
    h0[0] = h0[1] = kScoreNegInf;
    g1[0] = kScoreNegInf;  // row-0 slot is permanently -inf in G/H
    h1[0] = kScoreNegInf;
}

namespace {

struct ScalarPolicy {
    explicit ScalarPolicy(const BswDiagCtx&) {}

    void
    diagonal(const BswDiagCtx& ctx, std::size_t d, std::size_t lo,
             std::size_t hi, BswBest& best) const
    {
        for (std::size_t i = lo; i <= hi; ++i)
            bsw_cell(ctx, d, i, best);
    }
};

}  // namespace

BswResult
bsw_wavefront_scalar(std::span<const std::uint8_t> target,
                     std::span<const std::uint8_t> query,
                     const ScoringParams& scoring, std::size_t band)
{
    return bsw_align_wavefront<ScalarPolicy>(target, query, scoring, band);
}

}  // namespace darwin::align::kernels
