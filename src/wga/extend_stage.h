/**
 * @file
 * The extension stage: anchors -> full local alignments.
 *
 * Anchors are processed in descending filter-score order. Before an
 * anchor is extended, it is checked against the *anchor absorption* grid
 * (paper §III-D): if a previously produced alignment already passes
 * through the anchor's neighborhood, the anchor would only re-derive a
 * duplicate alignment and is skipped. Surviving anchors are extended
 * left+right with the configured TileAligner (GACT-X by default), and the
 * stitched alignment is kept iff its score reaches He.
 */
#ifndef DARWIN_WGA_EXTEND_STAGE_H
#define DARWIN_WGA_EXTEND_STAGE_H

#include <span>
#include <unordered_set>
#include <vector>

#include "align/extension.h"
#include "util/thread_pool.h"
#include "wga/filter_stage.h"
#include "wga/params.h"

namespace darwin::wga {

/** Work counters for the extension stage. */
struct ExtendStats {
    std::uint64_t anchors_in = 0;
    std::uint64_t absorbed = 0;
    std::uint64_t extended = 0;
    /** Extensions dropped because their path re-covered an existing
     *  alignment (convergent duplicates, e.g. via tandem repeats). */
    std::uint64_t duplicates = 0;
    std::uint64_t alignments_out = 0;
    /** Total bases in matched blocks of the alignments kept. */
    std::uint64_t matched_bases = 0;
    align::ExtensionStats extension;

    void
    merge(const ExtendStats& other)
    {
        anchors_in += other.anchors_in;
        absorbed += other.absorbed;
        extended += other.extended;
        duplicates += other.duplicates;
        alignments_out += other.alignments_out;
        matched_bases += other.matched_bases;
        extension.merge(other.extension);
    }
};

/** Extension with anchor absorption over one span pair. */
class ExtendStage {
  public:
    /** Views may be byte- or packed-backed; alignments are
     *  bit-identical either way (packed backing decodes per tile). */
    ExtendStage(const WgaParams& params, seq::BaseView target,
                seq::BaseView query);

    ExtendStage(const WgaParams& params,
                std::span<const std::uint8_t> target,
                std::span<const std::uint8_t> query)
        : ExtendStage(params, seq::BaseView(target), seq::BaseView(query))
    {
    }

    /**
     * Extend candidates (already sorted by descending filter score) into
     * alignments.
     *
     * Absorption makes later anchors depend on earlier results, so the
     * stage proceeds in fixed-size *waves*: the next kWave unabsorbed
     * anchors are extended (in parallel when a pool is given), then their
     * results are merged in order with duplicate suppression. The wave
     * size is a constant — never the pool size — so results are
     * identical for any thread count.
     */
    std::vector<align::Alignment> extend_all(
        const std::vector<FilterCandidate>& candidates,
        const align::TileAligner& aligner, ExtendStats* stats = nullptr,
        ThreadPool* pool = nullptr);

    /** Extension wave width (see extend_all). */
    static constexpr std::size_t kWave = 16;

  private:
    /** True if the anchor's grid neighborhood is already covered. */
    bool absorbed(std::uint64_t anchor_t, std::uint64_t anchor_q) const;

    /** Grid cells an alignment's path passes through (sampled). The
     *  returned span aliases path_scratch_ and is valid until the next
     *  call — the merge loop consumes each path before requesting the
     *  next one. */
    std::span<const std::uint64_t> path_cells(
        const align::Alignment& alignment);

    /** Fraction of the given cells already on the absorption grid. */
    double covered_fraction(std::span<const std::uint64_t> cells) const;

    std::uint64_t
    cell_key(std::uint64_t t_cell, std::uint64_t q_cell) const
    {
        return (t_cell << 27) ^ q_cell;
    }

    const WgaParams& params_;
    seq::BaseView target_;
    seq::BaseView query_;
    std::unordered_set<std::uint64_t> covered_cells_;
    /** Scratch for path_cells, reused across the merge loop. */
    std::vector<std::uint64_t> path_scratch_;
};

}  // namespace darwin::wga

#endif  // DARWIN_WGA_EXTEND_STAGE_H
