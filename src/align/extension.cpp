#include "align/extension.h"

#include <algorithm>
#include <vector>

#include "fault/cancel.h"
#include "util/logging.h"

namespace darwin::align {

namespace {

/**
 * Split a tile path at the overlap boundary. Returns the kept prefix and
 * the target/query bases it consumes.
 *
 * If the path's endpoint lies inside the overlap region (either axis at or
 * beyond `boundary`), the path is cut at the first step that touches the
 * boundary, and the cut point seeds the next tile. Otherwise the whole
 * path is kept.
 */
struct KeptPath {
    Cigar cigar;
    std::size_t target_consumed = 0;
    std::size_t query_consumed = 0;
};

KeptPath
clip_at_overlap(const TileResult& tile, std::size_t boundary)
{
    KeptPath kept;
    if (tile.target_max < boundary && tile.query_max < boundary) {
        kept.cigar = tile.cigar;
        kept.target_consumed = tile.target_max;
        kept.query_consumed = tile.query_max;
        return kept;
    }
    std::size_t ti = 0;
    std::size_t qi = 0;
    for (const auto& run : tile.cigar.runs()) {
        for (std::uint32_t k = 0; k < run.length; ++k) {
            if (ti >= boundary || qi >= boundary)
                return kept;
            switch (run.op) {
              case EditOp::Match:
              case EditOp::Mismatch:
                ++ti;
                ++qi;
                break;
              case EditOp::Insert:
                ++qi;
                break;
              case EditOp::Delete:
                ++ti;
                break;
            }
            kept.cigar.push(run.op);
            kept.target_consumed = ti;
            kept.query_consumed = qi;
        }
    }
    return kept;
}

/**
 * Extend from the anchor in one direction: over forward slices starting
 * at the anchor, or (`leftward`) over reversed slices ending at it.
 * Tiles follow each other until one is x-drop dead, makes no forward
 * progress, or holds a path that ends before the overlap region.
 * Returns the tiles' kept paths joined, in the orientation of the
 * fetched slices.
 */
KeptPath
extend_direction(seq::BaseView target, seq::BaseView query,
                 std::size_t anchor_t, std::size_t anchor_q, bool leftward,
                 const TileAligner& aligner, ExtensionStats& stats)
{
    const std::size_t tile_size = aligner.tile_size();
    const std::size_t boundary = tile_size - aligner.tile_overlap();
    const std::size_t remaining_t =
        leftward ? anchor_t : target.size() - anchor_t;
    const std::size_t remaining_q =
        leftward ? anchor_q : query.size() - anchor_q;
    KeptPath dir;
    // Packed-backed views decode per tile into these buffers, so
    // residency stays O(tile_size).
    std::vector<std::uint8_t> target_buf;
    std::vector<std::uint8_t> query_buf;
    while (dir.target_consumed < remaining_t &&
           dir.query_consumed < remaining_q) {
        fault::poll("extend.tile");
        const std::size_t rlen =
            std::min(tile_size, remaining_t - dir.target_consumed);
        const std::size_t qlen =
            std::min(tile_size, remaining_q - dir.query_consumed);
        if (leftward) {
            // Slice [anchor - consumed - len, anchor - consumed), reversed.
            target.fetch_reversed(anchor_t - dir.target_consumed, rlen,
                                  &target_buf);
            query.fetch_reversed(anchor_q - dir.query_consumed, qlen,
                                 &query_buf);
        } else {
            target.fetch(anchor_t + dir.target_consumed, rlen, &target_buf);
            query.fetch(anchor_q + dir.query_consumed, qlen, &query_buf);
        }
        const TileResult tile = aligner.align_tile(
            {target_buf.data(), rlen}, {query_buf.data(), qlen});
        stats.absorb(tile);
        if (tile.max_score <= 0) {
            ++stats.xdrop_terminations;
            break;
        }

        // When the tile does not fill the nominal size (sequence end),
        // the overlap clipping still applies against the nominal
        // boundary; a short tile's path simply ends before it.
        const KeptPath kept = clip_at_overlap(tile, boundary);
        if (kept.target_consumed == 0 && kept.query_consumed == 0)
            break;  // no forward progress: stop rather than loop
        dir.cigar.append(kept.cigar);
        dir.target_consumed += kept.target_consumed;
        dir.query_consumed += kept.query_consumed;

        // If the whole path was kept (it ended before the overlap
        // region), the alignment genuinely ended inside this tile.
        if (tile.target_max < boundary && tile.query_max < boundary)
            break;
    }
    return dir;
}

}  // namespace

Alignment
extend_anchor(seq::BaseView target, seq::BaseView query,
              std::size_t anchor_t, std::size_t anchor_q,
              const TileAligner& aligner, const ScoringParams& scoring,
              ExtensionStats* stats)
{
    require(anchor_t <= target.size() && anchor_q <= query.size(),
            "extend_anchor: anchor outside spans");
    require(aligner.tile_size() > aligner.tile_overlap(),
            "extend_anchor: tile <= overlap");
    ExtensionStats local;
    const KeptPath right = extend_direction(
        target, query, anchor_t, anchor_q, /*leftward=*/false, aligner,
        local);
    const KeptPath left = extend_direction(
        target, query, anchor_t, anchor_q, /*leftward=*/true, aligner,
        local);
    if (stats)
        stats->merge(local);

    Alignment out;
    out.target_start = anchor_t - left.target_consumed;
    out.target_end = anchor_t + right.target_consumed;
    out.query_start = anchor_q - left.query_consumed;
    out.query_end = anchor_q + right.query_consumed;

    // The left path was computed on reversed sequences: flip the run
    // order to express it forward, then join with the right path.
    Cigar left_forward = left.cigar;
    left_forward.reverse();
    out.cigar = std::move(left_forward);
    out.cigar.append(right.cigar);

    if (out.cigar.empty())
        return out;
    std::vector<std::uint8_t> target_scratch;
    std::vector<std::uint8_t> query_scratch;
    out.score = out.cigar.score(
        target.materialize(out.target_start,
                           out.target_end - out.target_start,
                           &target_scratch),
        query.materialize(out.query_start, out.query_end - out.query_start,
                          &query_scratch),
        scoring);
    return out;
}

Alignment
extend_anchor(std::span<const std::uint8_t> target,
              std::span<const std::uint8_t> query, std::size_t anchor_t,
              std::size_t anchor_q, const TileAligner& aligner,
              const ScoringParams& scoring, ExtensionStats* stats)
{
    return extend_anchor(seq::BaseView(target), seq::BaseView(query),
                         anchor_t, anchor_q, aligner, scoring, stats);
}

}  // namespace darwin::align
