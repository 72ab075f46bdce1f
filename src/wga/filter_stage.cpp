#include "wga/filter_stage.h"

#include <algorithm>

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
    std::optional<FilterCandidate> out;
    FilterStats local;
    filter_span({&hit, 1}, &out, &local);
    if (stats)
        stats->merge(local);
    return out;
}

void
FilterStage::filter_span(std::span<const seed::SeedHit> hits,
                         std::optional<FilterCandidate>* slots,
                         FilterStats* stats) const
{
    stats->tiles += hits.size();
    if (params_.filter_mode == FilterMode::Ungapped) {
        for (std::size_t i = 0; i < hits.size(); ++i) {
            fault::poll("filter.hit");
            const align::UngappedResult ext = align::ungapped_xdrop_extend(
                target_.bytes(), query_.bytes(), hits[i].target_pos,
                hits[i].query_pos, seed_span_, params_.scoring,
                params_.ungapped_xdrop);
            stats->cells += ext.cells_computed;
            if (ext.score >= params_.filter_threshold) {
                slots[i] = FilterCandidate{ext.anchor_t, ext.anchor_q,
                                           ext.score};
                ++stats->passed;
            }
        }
        return;
    }

    // Cut every hit's tile: zero-copy subspans in byte mode, a decode
    // into this call's scratch (Tf bytes per side per hit) in packed
    // mode. Then one batch call runs them all.
    const std::size_t tf = params_.filter_tile;
    const bool packed = target_.packed() || query_.packed();
    std::vector<std::uint8_t> scratch(packed ? 2 * tf * hits.size() : 0);
    std::vector<TileWindow> windows(hits.size());
    std::vector<align::BswTile> tiles(hits.size());
    for (std::size_t i = 0; i < hits.size(); ++i) {
        fault::poll("filter.hit");
        const TileWindow& w = windows[i] = gapped_window(hits[i]);
        std::uint8_t* dst = packed ? scratch.data() + 2 * tf * i : nullptr;
        tiles[i] = {target_.materialize(w.t0, w.tlen, dst),
                    query_.materialize(w.q0, w.qlen, packed ? dst + tf
                                                            : nullptr)};
    }
    std::vector<align::BswResult> results(hits.size());
    align::banded_smith_waterman_batch(tiles, params_.scoring,
                                       params_.filter_band, results.data());
    for (std::size_t i = 0; i < hits.size(); ++i) {
        const align::BswResult& bsw = results[i];
        stats->cells += bsw.cells_computed;
        if (bsw.max_score >= params_.filter_threshold) {
            slots[i] = FilterCandidate{windows[i].t0 + bsw.target_max,
                                       windows[i].q0 + bsw.query_max,
                                       bsw.max_score};
            ++stats->passed;
        }
    }
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
    const std::size_t tasks = (hits.size() + kTaskHits - 1) / kTaskHits;
    std::vector<FilterStats> task_stats(tasks);
    const auto run_task = [&](std::size_t task) {
        const std::size_t first = task * kTaskHits;
        const std::size_t count = std::min(kTaskHits, hits.size() - first);
        filter_span({hits.data() + first, count}, slots.data() + first,
                    &task_stats[task]);
    };
    if (pool) {
        pool->parallel_for(0, tasks, run_task, 1);
    } else {
        for (std::size_t task = 0; task < tasks; ++task)
            run_task(task);
    }
    if (stats)
        for (const FilterStats& task : task_stats)
            stats->merge(task);
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
