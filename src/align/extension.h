/**
 * @file
 * Tiled extension driver (paper §III-D, Fig. 4c).
 *
 * From a filter anchor, the driver extends right (toward higher
 * coordinates) and left (toward lower coordinates, by aligning reversed
 * tile slices) using a TileAligner (GACT or GACT-X). Successive tiles
 * overlap by O bases: the part of a tile path inside the overlap region is
 * discarded and recomputed by the next tile, removing boundary artifacts.
 * Extension in a direction stops when a tile's Vmax is <= 0 or the tile
 * makes no forward progress.
 */
#ifndef DARWIN_ALIGN_EXTENSION_H
#define DARWIN_ALIGN_EXTENSION_H

#include <vector>

#include "align/alignment.h"
#include "align/tile.h"
#include "seq/base_view.h"

namespace darwin::align {

/** Aggregate work counters from one anchor extension. */
struct ExtensionStats {
    std::uint64_t tiles = 0;
    std::uint64_t cells = 0;
    std::uint64_t traceback_ops = 0;
    /** Count of stripes across all tiles (GACT-X only). */
    std::uint64_t stripes = 0;
    /** Sum of per-stripe column counts (GACT-X only). */
    std::uint64_t stripe_columns = 0;
    /** Directional extensions stopped by the X-drop rule (a tile whose
     *  Vmax <= 0), as opposed to reaching a sequence end or stalling. */
    std::uint64_t xdrop_terminations = 0;

    void
    absorb(const TileResult& tile)
    {
        ++tiles;
        cells += tile.cells_computed;
        traceback_ops += tile.cigar.total_ops();
        stripes += tile.stripe_columns.size();
        for (std::uint32_t c : tile.stripe_columns)
            stripe_columns += c;
    }

    void
    merge(const ExtensionStats& other)
    {
        tiles += other.tiles;
        cells += other.cells;
        traceback_ops += other.traceback_ops;
        stripes += other.stripes;
        stripe_columns += other.stripe_columns;
        xdrop_terminations += other.xdrop_terminations;
    }
};

/**
 * Extend an anchor in both directions and stitch the result.
 *
 * @param target   Full target span (anchor coordinates are into this).
 * @param query    Full query span.
 * @param anchor_t Anchor position in the target (tile origin for the
 *                 right extension; left extension ends here).
 * @param anchor_q Anchor position in the query.
 * @param aligner  Tile engine (GACT-X in the Darwin-WGA pipeline).
 * @param scoring  Used to re-score the stitched alignment.
 * @param stats    Optional work counters (accumulated, not reset).
 * @return The stitched alignment with span-relative coordinates; empty
 *         (cigar-less, score 0) when no positive extension exists.
 */
Alignment extend_anchor(std::span<const std::uint8_t> target,
                        std::span<const std::uint8_t> query,
                        std::size_t anchor_t, std::size_t anchor_q,
                        const TileAligner& aligner,
                        const ScoringParams& scoring,
                        ExtensionStats* stats = nullptr);

/** BaseView variant: bit-identical results over byte or 2-bit packed
 *  storage; packed backing decodes one tile window at a time. */
Alignment extend_anchor(seq::BaseView target, seq::BaseView query,
                        std::size_t anchor_t, std::size_t anchor_q,
                        const TileAligner& aligner,
                        const ScoringParams& scoring,
                        ExtensionStats* stats = nullptr);

}  // namespace darwin::align

#endif  // DARWIN_ALIGN_EXTENSION_H
