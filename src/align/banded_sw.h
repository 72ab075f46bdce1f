/**
 * @file
 * Banded Smith-Waterman — the gapped filtering kernel (paper §III-C).
 *
 * A tile of size Tf is cut around each seed hit with the hit at its
 * center; Smith-Waterman with affine gaps is evaluated only within a band
 * of +/-B cells around the tile's main diagonal. The kernel returns the
 * maximum cell score Vmax and its position xmax; the filter stage passes
 * the hit to extension iff Vmax >= Hf, using xmax as the anchor.
 *
 * This is the computational bottleneck of whole genome alignment (the
 * filter stage dominates runtime), so the kernel is score-only (no
 * traceback) and runs in O(B) memory per row.
 *
 * `banded_smith_waterman_batch()` runs a batch of independent tiles,
 * the way the paper's co-processor feeds many BSW arrays at once, and
 * `banded_smith_waterman()` is its one-tile form. Both are façades over
 * the kernel dispatch registry (align/kernels/kernel_registry.h): the
 * implementation — the row-major scalar kernel, or SSE4.2, AVX2 or
 * AVX-512 with one tile per SIMD lane — is chosen at runtime from the
 * CPU's capabilities and may be overridden with `DARWIN_KERNEL`. All
 * implementations are bit-identical per tile: same max score, same xmax
 * cell, same cells_computed, whatever the batch around the tile.
 *
 * Boundary semantics (every kernel must agree; enforced by
 * tests/kernel_diff_test.cpp against a naive full-matrix reference):
 *
 *  - The result equals full Smith-Waterman on the tile with every cell
 *    outside the band |i - j| <= B forced to -inf (i.e. alignments may
 *    not leave the band, but in-band cells adjacent to the band edge
 *    still exist and read -inf from outside).
 *  - Row i = 0 and column j = 0 are alignment-start boundaries:
 *    V = 0, G = H = -inf. In particular a column-1 cell reads
 *    V(i-1, 0) = 0 diagonally (the seed kernel read -inf here).
 *  - `band == 0` degenerates to an ungapped scan of the main diagonal
 *    (substitutions only — every gap cell is out of band), computing
 *    exactly min(n, m) cells.
 *  - Empty target and/or query: the all-zero BswResult (max_score 0 at
 *    (0, 0), cells_computed 0).
 *  - `cells_computed` is the exact number of in-band DP cells
 *    |{(i, j): 1 <= i <= m, 1 <= j <= n, |i - j| <= B}| regardless of
 *    implementation or enumeration order.
 *  - xmax tie-break: among maximum-score cells, the lexicographically
 *    smallest (i, j) — what a row-major scan with strictly-greater
 *    updates naturally produces.
 *  - Target and query are each at most kBswMaxTile bases; a longer
 *    tile is a caller bug and panics.
 */
#ifndef DARWIN_ALIGN_BANDED_SW_H
#define DARWIN_ALIGN_BANDED_SW_H

#include <cstddef>
#include <cstdint>
#include <span>

#include "align/scoring.h"

namespace darwin::align {

/** Outcome of one banded-SW tile. */
struct BswResult {
    Score max_score = 0;       ///< Vmax (>= 0, Smith-Waterman semantics)
    std::size_t target_max = 0;  ///< target bases consumed at xmax
    std::size_t query_max = 0;   ///< query bases consumed at xmax
    std::uint64_t cells_computed = 0;

    /// Kernels are bit-identical, so whole-result comparison is meaningful.
    bool operator==(const BswResult&) const = default;
};

/**
 * Longest target or query span of one tile. The vector kernels keep a
 * cell's row-major index in an int32 lane, which fits at any band up to
 * this length; filter tiles are Tf = 320 bases.
 */
inline constexpr std::size_t kBswMaxTile = std::size_t{1} << 14;

/** One tile of a batch: spans over the caller's bases, valid for the
 *  call. */
struct BswTile {
    std::span<const std::uint8_t> target;
    std::span<const std::uint8_t> query;
};

/**
 * Run banded Smith-Waterman over a tile (a batch of one).
 *
 * @param target Tile slice of the target.
 * @param query  Tile slice of the query (the band is centered on the
 *               i == j diagonal, i.e. the caller centers the seed hit).
 * @param scoring Substitution matrix and affine gap penalties.
 * @param band   Half-width B of the band (cells either side of the
 *               diagonal). Must be >= 0; 0 degenerates to an ungapped
 *               diagonal scan with substitutions only.
 */
BswResult banded_smith_waterman(std::span<const std::uint8_t> target,
                                std::span<const std::uint8_t> query,
                                const ScoringParams& scoring,
                                std::size_t band);

/**
 * Run banded Smith-Waterman over every tile: out[i] is tiles[i]'s
 * result, exactly as banded_smith_waterman() would return it. Each tile
 * polls the `filter.tile` probe before the batch runs and charges its
 * cells after it, so a budget or a cancellation stops the caller at
 * batch granularity.
 */
void banded_smith_waterman_batch(std::span<const BswTile> tiles,
                                 const ScoringParams& scoring,
                                 std::size_t band, BswResult* out);

}  // namespace darwin::align

#endif  // DARWIN_ALIGN_BANDED_SW_H
