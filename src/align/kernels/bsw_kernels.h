/**
 * @file
 * Filter-kernel implementations behind the dispatch registry.
 *
 * Two kernel families live here (see DESIGN.md "Filter kernels"):
 *
 *  - Banded Smith-Waterman (score-only, affine gaps) reformulated along
 *    anti-diagonals: every cell (i, j) on diagonal d = i + j depends only
 *    on diagonals d-1 (left and up neighbours) and d-2 (diagonal
 *    neighbour), so all cells of a diagonal are independent and can be
 *    computed with SIMD. Buffers are indexed by the row i, which makes
 *    all loads/stores contiguous. `bsw_align_wavefront<Policy>` owns the
 *    diagonal walk; a Policy only computes one diagonal's cells.
 *
 *  - Ungapped x-drop extension, vectorized by scoring substitution
 *    blocks with SIMD gathers and then replaying the exact scalar
 *    run/best/break chain over the block.
 *
 * The scalar variants are declared here; the SIMD variants are one
 * width-generic source (simd_kernels.h) instantiated per ISA.
 *
 * Bit-identity contract: every kernel must return *exactly* the same
 * BswResult / UngappedResult as the row-major reference for every input
 * — same max score, same xmax cell, same cells_computed. The xmax cell
 * of the reference is the row-major-first maximum, i.e. the
 * lexicographically smallest (i, j) among maximum-score cells; kernels
 * that enumerate cells in a different order must apply
 * `BswBest::consider` (or an equivalent vector reduction) to reproduce
 * that choice. tests/kernel_diff_test.cpp enforces the contract against
 * a naive full-matrix implementation.
 */
#ifndef DARWIN_ALIGN_KERNELS_BSW_KERNELS_H
#define DARWIN_ALIGN_KERNELS_BSW_KERNELS_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "align/banded_sw.h"
#include "align/ungapped_xdrop.h"
#include "seq/alphabet.h"

namespace darwin::align::kernels {

// ---------------------------------------------------------------------------
// Scalar kernels (always available; `scalar` registry entry).
// ---------------------------------------------------------------------------

/**
 * Row-major banded SW — the original seed kernel with the column-0
 * boundary fix (see banded_sw.h "Boundary semantics"). Kept unregistered
 * as the micro-benchmark baseline and as a second reference for the
 * differential tests.
 */
BswResult bsw_rowmajor_reference(std::span<const std::uint8_t> target,
                                 std::span<const std::uint8_t> query,
                                 const ScoringParams& scoring,
                                 std::size_t band);

/** Anti-diagonal banded SW, tuned scalar (no per-cell bounds checks). */
BswResult bsw_wavefront_scalar(std::span<const std::uint8_t> target,
                               std::span<const std::uint8_t> query,
                               const ScoringParams& scoring,
                               std::size_t band);

/** Ungapped x-drop extension — the original scalar kernel. */
UngappedResult ungapped_xdrop_scalar(std::span<const std::uint8_t> target,
                                     std::span<const std::uint8_t> query,
                                     std::size_t seed_t, std::size_t seed_q,
                                     std::size_t seed_len,
                                     const ScoringParams& scoring,
                                     Score xdrop);

// ---------------------------------------------------------------------------
// Shared wavefront machinery (used by the scalar and SIMD variants).
// ---------------------------------------------------------------------------

/**
 * Row range [lo, hi] of in-band DP cells on anti-diagonal d = i + j,
 * for a target of length n, query of length m and band half-width B:
 *
 *   1 <= i <= m,  1 <= j = d - i <= n,  |i - j| <= B.
 *
 * Returns lo > hi when the diagonal holds no in-band cell. For band >= 1
 * emptiness is monotone in d, but band == 0 alternates: odd diagonals
 * are empty between the main-diagonal cells — kernels must handle an
 * empty diagonal with `bsw_write_empty_diagonal` and continue, not
 * break.
 */
inline std::pair<std::size_t, std::size_t>
bsw_diagonal_range(std::size_t d, std::size_t n, std::size_t m,
                   std::size_t band)
{
    std::size_t lo = 1;
    if (d > n) lo = std::max(lo, d - n);
    if (d > band) lo = std::max(lo, (d - band + 1) / 2);  // ceil((d-B)/2)
    std::size_t hi = std::min(m, d - 1);
    hi = std::min(hi, (d + band) / 2);  // floor((d+B)/2)
    return {lo, hi};
}

/**
 * Maintain the wavefront buffer invariants across a diagonal with no
 * in-band cell (band == 0 parity gaps): seed -inf sentinels over the
 * window the next diagonal will read from this buffer, and keep the
 * column-0 / row-0 boundaries. `vcur/gcur/hcur` is the buffer being
 * written for diagonal d.
 */
inline void
bsw_write_empty_diagonal(std::size_t d, std::size_t n, std::size_t m,
                         std::size_t band, Score* vcur, Score* gcur,
                         Score* hcur)
{
    const auto [nlo, nhi] = bsw_diagonal_range(d + 1, n, m, band);
    if (nlo <= nhi) {
        // Next diagonal reads slots [nlo - 1, nhi] as left/up
        // neighbours; slot 0 stays the permanent row-0 boundary.
        for (std::size_t s = std::max<std::size_t>(nlo - 1, 1); s <= nhi;
             ++s) {
            vcur[s] = kScoreNegInf;
            gcur[s] = kScoreNegInf;
            hcur[s] = kScoreNegInf;
        }
    }
    if (d <= m) {
        vcur[d] = 0;  // V(d, 0)
        gcur[d] = kScoreNegInf;
        hcur[d] = kScoreNegInf;
    }
}

/**
 * Running maximum with the row-major-first tie-break: replace the best
 * cell iff the score is strictly greater, or equal (and positive) at a
 * lexicographically smaller (i, j). Applying this rule per cell in any
 * enumeration order yields exactly the row-major winner.
 */
struct BswBest {
    Score score = 0;
    std::size_t i = 0;  ///< query row of the best cell
    std::size_t j = 0;  ///< target column of the best cell

    void consider(Score v, std::size_t ci, std::size_t cj) {
        if (v > score) {
            score = v;
            i = ci;
            j = cj;
        } else if (v == score && v > 0 &&
                   (ci < i || (ci == i && cj < j))) {
            i = ci;
            j = cj;
        }
    }
};

/**
 * Reusable per-thread DP buffers for the wavefront kernels: three V
 * generations (diagonals d-2, d-1 and the one being written) plus two
 * generations of the gap matrices G (vertical) and H (horizontal), all
 * indexed by row i with capacity m + 2 (row 0 boundary at slot 0 and a
 * high sentinel at slot hi+1 <= m+1).
 *
 * The kernels maintain the invariant that every slot a later diagonal
 * reads was written this call (computed cell, NegInf edge sentinel, or
 * the j == 0 boundary slot), so buffers never need a full clear and can
 * be reused across calls of any size.
 */
struct WavefrontScratch {
    std::vector<Score> v0, v1, v2;  ///< V: diag d-2, d-1, current
    std::vector<Score> g0, g1;      ///< G: diag d-1, current
    std::vector<Score> h0, h1;      ///< H: diag d-1, current
    void prepare(std::size_t m);
};

/** Per-thread scratch instance (kernels may run on pool threads). */
WavefrontScratch& wavefront_scratch();

/** Per-diagonal state handed to Policy::diagonal (pointers rotate). */
struct BswDiagCtx {
    const std::uint8_t* t = nullptr;  ///< target: cell (i, j) reads t[j - 1]
    const std::uint8_t* q = nullptr;  ///< query: cell (i, j) reads q[i - 1]
    const Score* sub = nullptr;       ///< flattened 5x5 substitution matrix
    Score open = 0;
    Score extend = 0;
    const Score* vd1 = nullptr;
    const Score* vd2 = nullptr;
    const Score* gd1 = nullptr;
    const Score* hd1 = nullptr;
    Score* vcur = nullptr;
    Score* gcur = nullptr;
    Score* hcur = nullptr;
};

/** Cell (i, d - i): the scalar body every variant shares. */
inline void
bsw_cell(const BswDiagCtx& c, std::size_t d, std::size_t i, BswBest& best)
{
    const std::size_t j = d - i;
    const Score h = std::max(c.vd1[i] - c.open, c.hd1[i] - c.extend);
    const Score g =
        std::max(c.vd1[i - 1] - c.open, c.gd1[i - 1] - c.extend);
    Score val =
        c.vd2[i - 1] + c.sub[c.t[j - 1] * seq::kNumCodes + c.q[i - 1]];
    if (val < 0) val = 0;
    if (h > val) val = h;
    if (g > val) val = g;
    c.vcur[i] = val;
    c.gcur[i] = g;
    c.hcur[i] = h;
    best.consider(val, i, j);
}

/**
 * The anti-diagonal walk shared by every banded-SW kernel: the band
 * range per diagonal, the -inf edge sentinels and column-0 boundary,
 * and the buffer rotation. A Policy supplies
 * `diagonal(ctx, d, lo, hi, best)`: compute cells lo..hi of diagonal d
 * into ctx.vcur/gcur/hcur and fold each into `best`. Always inlined, so
 * an ISA kernel compiles the walk with its own target options and
 * inlines its policy (see simd_kernels.h).
 */
template <class Policy>
[[gnu::always_inline]] inline BswResult
bsw_align_wavefront(std::span<const std::uint8_t> target,
                    std::span<const std::uint8_t> query,
                    const ScoringParams& scoring, std::size_t band)
{
    const std::size_t n = target.size();
    const std::size_t m = query.size();
    BswResult out;
    if (n == 0 || m == 0)
        return out;

    WavefrontScratch& ws = wavefront_scratch();
    ws.prepare(m);
    Score* vd2 = ws.v0.data();
    Score* vd1 = ws.v1.data();
    Score* vcur = ws.v2.data();
    Score* gd1 = ws.g0.data();
    Score* gcur = ws.g1.data();
    Score* hd1 = ws.h0.data();
    Score* hcur = ws.h1.data();

    BswDiagCtx ctx;
    ctx.t = target.data();
    ctx.q = query.data();
    ctx.sub = scoring.matrix.front().data();  // flat [t*5 + q]
    ctx.open = scoring.gap_open;
    ctx.extend = scoring.gap_extend;
    const Policy pol(ctx);

    BswBest best;
    for (std::size_t d = 2; d <= m + n; ++d) {
        const auto [lo, hi] = bsw_diagonal_range(d, n, m, band);
        if (lo > hi) {  // band == 0 parity gap: keep invariants, move on
            bsw_write_empty_diagonal(d, n, m, band, vcur, gcur, hcur);
        } else {
            ctx.vd1 = vd1;
            ctx.vd2 = vd2;
            ctx.gd1 = gd1;
            ctx.hd1 = hd1;
            ctx.vcur = vcur;
            ctx.gcur = gcur;
            ctx.hcur = hcur;
            pol.diagonal(ctx, d, lo, hi, best);
            out.cells_computed += hi - lo + 1;

            // Edge sentinels (skip slot 0: it is the permanent row-0
            // boundary), then the column-0 boundary of this diagonal.
            if (lo > 1) {
                vcur[lo - 1] = kScoreNegInf;
                gcur[lo - 1] = kScoreNegInf;
                hcur[lo - 1] = kScoreNegInf;
            }
            vcur[hi + 1] = kScoreNegInf;
            gcur[hi + 1] = kScoreNegInf;
            hcur[hi + 1] = kScoreNegInf;
            if (d <= m) {
                vcur[d] = 0;  // V(d, 0)
                gcur[d] = kScoreNegInf;
                hcur[d] = kScoreNegInf;
            }
        }

        Score* vtmp = vd2;
        vd2 = vd1;
        vd1 = vcur;
        vcur = vtmp;
        std::swap(gd1, gcur);
        std::swap(hd1, hcur);
    }

    out.max_score = best.score;
    out.query_max = best.i;
    out.target_max = best.j;
    return out;
}

}  // namespace darwin::align::kernels

#endif  // DARWIN_ALIGN_KERNELS_BSW_KERNELS_H
