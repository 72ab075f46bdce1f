/**
 * @file
 * The filtering stage: turns seed hits into extension anchors.
 *
 * Gapped mode cuts a Tf x Tf tile with the seed hit at its center and
 * runs banded Smith-Waterman; the hit passes iff Vmax >= Hf and the
 * anchor is xmax (paper §III-C). Ungapped mode is the LASTZ baseline:
 * X-drop extension along the diagonal, anchor at the midpoint of the best
 * segment. This stage dominates WGA runtime, so filter_hits runs it in
 * tasks of kTaskHits hits, across the pool when one is given; a gapped
 * task runs its tiles as one batch through the BSW kernel, which puts
 * one tile in each SIMD lane.
 */
#ifndef DARWIN_WGA_FILTER_STAGE_H
#define DARWIN_WGA_FILTER_STAGE_H

#include <optional>
#include <span>
#include <vector>

#include "align/banded_sw.h"
#include "seed/dsoft.h"
#include "seq/base_view.h"
#include "util/thread_pool.h"
#include "wga/params.h"

namespace darwin::wga {

/** An anchor that passed the filter. */
struct FilterCandidate {
    std::uint64_t anchor_t = 0;
    std::uint64_t anchor_q = 0;
    align::Score filter_score = 0;
};

/** Work counters for the filtering stage. */
struct FilterStats {
    std::uint64_t tiles = 0;
    std::uint64_t cells = 0;
    std::uint64_t passed = 0;

    void
    merge(const FilterStats& other)
    {
        tiles += other.tiles;
        cells += other.cells;
        passed += other.passed;
    }
};

/**
 * Canonical extension order: descending filter score, ties broken by
 * anchor position. It is total over a candidate's fields, so filter_all
 * and the pipeline's batched seed_and_filter, which both sort with it,
 * yield one candidate order (and therefore one extension output) for
 * any hit order or batching.
 */
struct CandidateOrder {
    bool
    operator()(const FilterCandidate& a, const FilterCandidate& b) const
    {
        if (a.filter_score != b.filter_score)
            return a.filter_score > b.filter_score;
        if (a.anchor_t != b.anchor_t)
            return a.anchor_t < b.anchor_t;
        return a.anchor_q < b.anchor_q;
    }
};

/** Filtering over one (target, query) span pair. */
class FilterStage {
  public:
    /**
     * Views may be byte- or packed-backed; results are bit-identical
     * either way (gapped tiles decode their Tf x Tf window on demand).
     * Ungapped (LASTZ) filtering scans unbounded diagonals and is only
     * supported on byte-backed views — packed + ungapped is a fatal
     * configuration error.
     */
    FilterStage(const WgaParams& params, seq::BaseView target,
                seq::BaseView query);

    FilterStage(const WgaParams& params,
                std::span<const std::uint8_t> target,
                std::span<const std::uint8_t> query)
        : FilterStage(params, seq::BaseView(target), seq::BaseView(query))
    {
    }

    /**
     * Hits per filter_hits task. A task polls `filter.hit` once per hit,
     * then runs its tiles as one batch (each tile polls `filter.tile`
     * and charges its cells), so a budget or a cancellation takes effect
     * at the granularity of one task. 32 tiles fill two 16-lane AVX-512
     * passes (four AVX2, eight SSE4.2 passes), so at most one pass per
     * task runs spare lanes. A constant, so the cancellation point does
     * not depend on the thread count. A pipeline batch of the benchmark
     * pairs holds ~2,000-3,700 hits, i.e. 62-116 tasks: at least 4 per
     * thread up to 16 threads.
     */
    static constexpr std::size_t kTaskHits = 32;

    /** Filter one seed hit; nullopt when it fails the threshold. */
    std::optional<FilterCandidate> filter(const seed::SeedHit& hit,
                                          FilterStats* stats = nullptr) const;

    /**
     * Filter hits preserving hit order: slot i is hit i's candidate
     * (nullopt when it failed), exactly as filter(hits[i]) returns it.
     * Hits are filtered in tasks of kTaskHits, across the pool when one
     * is given. Both filter_all and the pipeline's strand runner route
     * through this.
     */
    std::vector<std::optional<FilterCandidate>> filter_hits(
        const std::vector<seed::SeedHit>& hits, FilterStats* stats = nullptr,
        ThreadPool* pool = nullptr) const;

    /**
     * Filter a batch (optionally across a pool). The returned candidates
     * are sorted by descending filter score (the extension order), ties
     * broken by position for determinism.
     */
    std::vector<FilterCandidate> filter_all(
        const std::vector<seed::SeedHit>& hits, FilterStats* stats = nullptr,
        ThreadPool* pool = nullptr) const;

  private:
    /** The gapped-mode BSW tile cut around a seed hit. */
    struct TileWindow {
        std::uint64_t t0 = 0;
        std::uint64_t q0 = 0;
        std::size_t tlen = 0;
        std::size_t qlen = 0;
    };
    TileWindow gapped_window(const seed::SeedHit& hit) const;

    /** Filter `hits` into slots[0, hits.size()), adding to `stats`. */
    void filter_span(std::span<const seed::SeedHit> hits,
                     std::optional<FilterCandidate>* slots,
                     FilterStats* stats) const;

    const WgaParams& params_;
    seq::BaseView target_;
    seq::BaseView query_;
    std::size_t seed_span_;
};

}  // namespace darwin::wga

#endif  // DARWIN_WGA_FILTER_STAGE_H
