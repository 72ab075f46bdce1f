#include "wga/extend_stage.h"

#include <algorithm>

#include "fault/cancel.h"
#include "util/logging.h"

namespace darwin::wga {

ExtendStage::ExtendStage(const WgaParams& params, seq::BaseView target,
                         seq::BaseView query)
    : params_(params), target_(target), query_(query)
{
    require(params_.absorb_cell > 0, "ExtendStage: absorb_cell must be > 0");
}

bool
ExtendStage::absorbed(std::uint64_t anchor_t, std::uint64_t anchor_q) const
{
    const std::uint64_t cell = params_.absorb_cell;
    const std::uint64_t tc = anchor_t / cell;
    const std::uint64_t qc = anchor_q / cell;
    // Check the anchor's cell and its diagonal neighbors only: an anchor
    // sitting on an existing path is within one diagonal cell of a mark,
    // while anchors of *parallel* (paralogous) alignments one cell off
    // the diagonal must stay live.
    if (covered_cells_.count(cell_key(tc, qc)))
        return true;
    if (tc > 0 && qc > 0 &&
        covered_cells_.count(cell_key(tc - 1, qc - 1)))
        return true;
    return covered_cells_.count(cell_key(tc + 1, qc + 1)) > 0;
}

std::span<const std::uint64_t>
ExtendStage::path_cells(const align::Alignment& alignment)
{
    const std::uint64_t cell = params_.absorb_cell;
    std::vector<std::uint64_t>& cells = path_scratch_;
    cells.clear();
    // One sample per started cell-width per run, plus the start cell.
    std::size_t samples = 1;
    for (const auto& run : alignment.cigar.runs())
        samples += (run.length + cell - 1) / cell;
    cells.reserve(samples);
    std::uint64_t t = alignment.target_start;
    std::uint64_t q = alignment.query_start;
    cells.push_back(cell_key(t / cell, q / cell));
    for (const auto& run : alignment.cigar.runs()) {
        // Sample every grid cell the run passes through, not just its
        // ends: long match runs cross many cells and each must absorb
        // anchors.
        for (std::uint32_t step = 0; step < run.length;
             step += static_cast<std::uint32_t>(cell)) {
            const std::uint32_t advance = std::min<std::uint32_t>(
                static_cast<std::uint32_t>(cell), run.length - step);
            switch (run.op) {
              case align::EditOp::Match:
              case align::EditOp::Mismatch:
                t += advance;
                q += advance;
                break;
              case align::EditOp::Insert:
                q += advance;
                break;
              case align::EditOp::Delete:
                t += advance;
                break;
            }
            cells.push_back(cell_key(t / cell, q / cell));
        }
    }
    return cells;
}

double
ExtendStage::covered_fraction(std::span<const std::uint64_t> cells) const
{
    if (cells.empty())
        return 0.0;
    std::size_t covered = 0;
    for (const std::uint64_t key : cells) {
        if (covered_cells_.count(key))
            ++covered;
    }
    return static_cast<double>(covered) /
           static_cast<double>(cells.size());
}

std::vector<align::Alignment>
ExtendStage::extend_all(const std::vector<FilterCandidate>& candidates,
                        const align::TileAligner& aligner,
                        ExtendStats* stats, ThreadPool* pool)
{
    std::vector<align::Alignment> out;
    ExtendStats local;
    std::size_t cursor = 0;
    while (cursor < candidates.size()) {
        fault::poll("extend.anchor");
        // Select the next wave of unabsorbed anchors.
        std::vector<FilterCandidate> wave;
        while (cursor < candidates.size() && wave.size() < kWave) {
            const FilterCandidate& candidate = candidates[cursor++];
            ++local.anchors_in;
            if (absorbed(candidate.anchor_t, candidate.anchor_q)) {
                ++local.absorbed;
                continue;
            }
            wave.push_back(candidate);
        }
        if (wave.empty())
            break;

        // Extend the wave (parallel when a pool is available).
        std::vector<align::Alignment> extended(wave.size());
        std::vector<align::ExtensionStats> wave_stats(wave.size());
        auto extend_one = [&](std::size_t w) {
            extended[w] = align::extend_anchor(
                target_, query_, wave[w].anchor_t, wave[w].anchor_q,
                aligner, params_.scoring, &wave_stats[w]);
        };
        if (pool) {
            pool->parallel_for(0, wave.size(), extend_one, 1);
        } else {
            for (std::size_t w = 0; w < wave.size(); ++w)
                extend_one(w);
        }
        local.extended += wave.size();
        for (const auto& ws : wave_stats)
            local.extension.merge(ws);

        // Merge in order with convergent-duplicate suppression: a path
        // that mostly re-covers already-marked cells re-derives an
        // existing alignment (the anchor sat on a parallel repeat
        // diagonal and the extension merged back onto the main path).
        for (auto& alignment : extended) {
            if (alignment.empty() ||
                alignment.score < params_.extension_threshold)
                continue;
            const auto cells = path_cells(alignment);
            if (covered_fraction(cells) > 0.5) {
                ++local.duplicates;
                continue;
            }
            covered_cells_.insert(cells.begin(), cells.end());
            ++local.alignments_out;
            local.matched_bases += alignment.matched_bases();
            out.push_back(std::move(alignment));
        }
    }
    if (stats)
        stats->merge(local);
    return out;
}

}  // namespace darwin::wga
