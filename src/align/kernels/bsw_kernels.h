/**
 * @file
 * Filter-kernel implementations behind the dispatch registry.
 *
 * Two kernel families live here (see DESIGN.md "Filter kernels"):
 *
 *  - Banded Smith-Waterman (score-only, affine gaps) over a batch of
 *    independent filter tiles. The vector tiers (simd_kernels.h) run one
 *    tile per SIMD lane, the way the paper's co-processor runs many BSW
 *    arrays side by side: a pass packs W tiles into lane-interleaved
 *    buffers (`BswLanes`) and walks all of them row by row in band
 *    coordinates k = j - i + B, which is the row-major reference's own
 *    cell order. The scalar tier runs `bsw_rowmajor_reference` per tile.
 *
 *  - Ungapped x-drop extension, vectorized by scoring substitution
 *    blocks with SIMD gathers and then replaying the exact scalar
 *    run/best/break chain over the block.
 *
 * Bit-identity contract: every kernel must return *exactly* the same
 * BswResult / UngappedResult as the row-major reference for every input
 * — same max score, same xmax cell, same cells_computed. The xmax cell
 * of the reference is the row-major-first maximum; a kernel that visits
 * cells in row-major order reproduces it with a strictly-greater best
 * update. tests/kernel_diff_test.cpp enforces the contract against a
 * naive full-matrix implementation.
 */
#ifndef DARWIN_ALIGN_KERNELS_BSW_KERNELS_H
#define DARWIN_ALIGN_KERNELS_BSW_KERNELS_H

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "align/banded_sw.h"
#include "align/ungapped_xdrop.h"

namespace darwin::align::kernels {

// ---------------------------------------------------------------------------
// Scalar kernels (always available; `scalar` registry entry).
// ---------------------------------------------------------------------------

/**
 * Row-major banded SW — the original seed kernel with the column-0
 * boundary fix (see banded_sw.h "Boundary semantics"). The scalar tier,
 * the micro-benchmark baseline and a second reference for the
 * differential tests.
 */
BswResult bsw_rowmajor_reference(std::span<const std::uint8_t> target,
                                 std::span<const std::uint8_t> query,
                                 const ScoringParams& scoring,
                                 std::size_t band);

/** The scalar tier's batch entry: the row-major reference per tile. */
void bsw_rowmajor_batch(std::span<const BswTile> tiles,
                        const ScoringParams& scoring, std::size_t band,
                        BswResult* out);

/** Ungapped x-drop extension — the original scalar kernel. */
UngappedResult ungapped_xdrop_scalar(std::span<const std::uint8_t> target,
                                     std::span<const std::uint8_t> query,
                                     std::size_t seed_t, std::size_t seed_q,
                                     std::size_t seed_len,
                                     const ScoringParams& scoring,
                                     Score xdrop);

// ---------------------------------------------------------------------------
// Lane buffers of the batched vector kernels.
// ---------------------------------------------------------------------------

/**
 * The in-band cell count |{(i, j): 1 <= i <= m, 1 <= j <= n,
 * |i - j| <= B}| of an n x m tile, in closed form.
 */
std::uint64_t bsw_band_cells(std::size_t n, std::size_t m, std::size_t band);

/**
 * One pass of a batched BSW kernel: up to W non-empty tiles, lane l of
 * every vector holding tile `tile[l]`. `pack` fills it in baseline code,
 * so the ISA kernels only read it through raw pointers.
 *
 * Layout (W = lanes, B = band clamped to the longest tile, which leaves
 * every cell in band and bounds the rows):
 *
 *     t[(j - 1) * W + l] = kNumCodes * target code j of lane l, 1 <= j <= n
 *     q[(i - 1) * W + l] = query code i of lane l,              1 <= i <= m
 *     v[k * W + l], g[k * W + l], 0 <= k <= 2B + 1: the band row
 *
 * n and m are the pass's longest target and query; a shorter lane reads
 * code 0 past its end. The band row starts as row 0 (V = 0 for
 * k >= B, G = -inf) with the permanent -inf sentinel at k = 2B + 1, and
 * the kernel updates it in place, one row at a time.
 */
struct BswLanes {
    static constexpr std::size_t kMaxLanes = 16;

    std::size_t used = 0;   ///< lanes holding a tile; the rest copy lane 0
    std::size_t band = 0;
    std::size_t n = 0;
    std::size_t m = 0;
    std::size_t tile[kMaxLanes] = {};  ///< batch index of lane l's tile
    Score n_lane[kMaxLanes] = {};
    Score m_lane[kMaxLanes] = {};
    const std::uint8_t* t = nullptr;
    const std::uint8_t* q = nullptr;
    Score* v = nullptr;
    Score* g = nullptr;

    /**
     * Pack the next pass from tiles[*next...]: empty tiles get the
     * all-zero result in place, every packed tile its cells_computed.
     * Tiles are at most kBswMaxTile long (banded_sw.h), so a cell's
     * row-major index i * (2B + 2) + k fits an int32 lane. Returns
     * false when no tile is left to run.
     */
    bool pack(std::span<const BswTile> tiles, std::size_t* next,
              std::size_t width, std::size_t tile_band, BswResult* out);

  private:
    std::vector<std::uint8_t> codes_;
    std::vector<Score> rows_;
};

/** Per-thread lane buffers (kernels may run on pool threads). */
BswLanes& bsw_lanes();

}  // namespace darwin::align::kernels

#endif  // DARWIN_ALIGN_KERNELS_BSW_KERNELS_H
