#include "wga/filter_stage.h"

#include <algorithm>
#include <atomic>

#include "align/ungapped_xdrop.h"
#include "fault/cancel.h"
#include "seed/seed_pattern.h"
#include "util/logging.h"

namespace darwin::wga {

FilterStage::FilterStage(const WgaParams& params, seq::BaseView target,
                         seq::BaseView query)
    : params_(params), target_(target), query_(query),
      seed_span_(seed::SeedPattern(params.seed_pattern).span())
{
    if (params_.filter_mode == FilterMode::Ungapped &&
        (target_.packed() || query_.packed()))
        fatal("filter: ungapped (LASTZ) mode requires byte-backed "
              "sequences; packed storage supports gapped filtering only");
}

std::optional<FilterCandidate>
FilterStage::filter(const seed::SeedHit& hit, FilterStats* stats) const
{
    fault::poll("filter.hit");
    FilterStats local;
    std::optional<FilterCandidate> out;
    ++local.tiles;

    if (params_.filter_mode == FilterMode::Gapped) {
        const TileWindow w = gapped_window(hit);
        // Byte mode materializes zero-copy subspans; packed mode
        // decodes only this tile's window (O(Tf) scratch per call).
        std::vector<std::uint8_t> target_scratch;
        std::vector<std::uint8_t> query_scratch;
        const align::BswResult bsw = align::banded_smith_waterman(
            target_.materialize(w.t0, w.tlen, &target_scratch),
            query_.materialize(w.q0, w.qlen, &query_scratch),
            params_.scoring, params_.filter_band);
        local.cells += bsw.cells_computed;
        if (bsw.max_score >= params_.filter_threshold) {
            out = FilterCandidate{w.t0 + bsw.target_max,
                                  w.q0 + bsw.query_max, bsw.max_score};
        }
    } else {
        const align::UngappedResult ext = align::ungapped_xdrop_extend(
            target_.bytes(), query_.bytes(), hit.target_pos, hit.query_pos,
            seed_span_, params_.scoring, params_.ungapped_xdrop);
        local.cells += ext.cells_computed;
        if (ext.score >= params_.filter_threshold) {
            out = FilterCandidate{ext.anchor_t, ext.anchor_q, ext.score};
        }
    }

    if (out)
        ++local.passed;
    if (stats)
        stats->merge(local);
    return out;
}

FilterStage::TileWindow
FilterStage::gapped_window(const seed::SeedHit& hit) const
{
    // Tile with the seed hit at its center.
    TileWindow w;
    const std::size_t half = params_.filter_tile / 2;
    const std::uint64_t seed_mid_t = hit.target_pos + seed_span_ / 2;
    const std::uint64_t seed_mid_q = hit.query_pos + seed_span_ / 2;
    w.t0 = seed_mid_t > half ? seed_mid_t - half : 0;
    w.q0 = seed_mid_q > half ? seed_mid_q - half : 0;
    w.tlen = static_cast<std::size_t>(std::min<std::uint64_t>(
        params_.filter_tile, target_.size() - w.t0));
    w.qlen = static_cast<std::size_t>(std::min<std::uint64_t>(
        params_.filter_tile, query_.size() - w.q0));
    return w;
}

std::vector<std::optional<FilterCandidate>>
FilterStage::filter_hits(const std::vector<seed::SeedHit>& hits,
                         FilterStats* stats, ThreadPool* pool) const
{
    std::vector<std::optional<FilterCandidate>> slots(hits.size());

    if (pool) {
        std::atomic<std::uint64_t> tiles{0}, cells{0}, passed{0};
        pool->parallel_for(0, hits.size(), [&](std::size_t i) {
            FilterStats local;
            slots[i] = filter(hits[i], &local);
            tiles.fetch_add(local.tiles, std::memory_order_relaxed);
            cells.fetch_add(local.cells, std::memory_order_relaxed);
            passed.fetch_add(local.passed, std::memory_order_relaxed);
        });
        if (stats) {
            stats->tiles += tiles.load();
            stats->cells += cells.load();
            stats->passed += passed.load();
        }
    } else {
        for (std::size_t i = 0; i < hits.size(); ++i)
            slots[i] = filter(hits[i], stats);
    }
    return slots;
}

std::vector<FilterCandidate>
FilterStage::filter_all(const std::vector<seed::SeedHit>& hits,
                        FilterStats* stats, ThreadPool* pool) const
{
    const std::vector<std::optional<FilterCandidate>> slots =
        filter_hits(hits, stats, pool);

    std::vector<FilterCandidate> out;
    for (const auto& slot : slots) {
        if (slot)
            out.push_back(*slot);
    }
    std::sort(out.begin(), out.end(), CandidateOrder{});
    return out;
}

}  // namespace darwin::wga
