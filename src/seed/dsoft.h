/**
 * @file
 * Modified D-SOFT seeding (paper §III-B, Fig. 4a).
 *
 * The query genome is cut into chunks of `c` bp. Every seed key of every
 * chunk position is looked up in the target index (with the 1-transition
 * neighborhood when enabled). Each hit (t, q) falls into a *diagonal
 * band* — the (query chunk, target bin of size `b`) pair after projecting
 * the hit along its diagonal — and at most one hit per band whose band
 * accumulated at least `h` hits is forwarded to the filter stage. This
 * de-duplicates the many near-identical hits a true alignment produces
 * while keeping isolated hits (h = 1 recovers LASTZ's single-hit
 * sensitivity).
 */
#ifndef DARWIN_SEED_DSOFT_H
#define DARWIN_SEED_DSOFT_H

#include <cstdint>
#include <vector>

#include "seed/seed_index.h"
#include "seq/base_view.h"
#include "util/thread_pool.h"

namespace darwin::seed {

/** D-SOFT parameters. */
struct DsoftParams {
    /** Query chunk size c (bp). */
    std::size_t chunk_size = 64;

    /** Target bin size b (bp). */
    std::size_t bin_size = 64;

    /** Minimum seed hits per diagonal band (h). 1 = LASTZ sensitivity. */
    std::uint32_t min_hits_per_band = 1;

    /** Allow one transition substitution in the seed (Fig. 5b). */
    bool transitions = true;

    /** Step between query seed positions (1 = every position). */
    std::size_t query_stride = 1;

    /**
     * Cap on candidates emitted per query chunk (0 = unlimited). Applied
     * after the deterministic (query, target) sort, so the survivors are
     * the same regardless of threading. Used by the batch engine's
     * degraded retry to bound filter work on repeat-dense pairs.
     */
    std::size_t max_hits_per_chunk = 0;
};

/** A candidate seed hit forwarded to filtering. */
struct SeedHit {
    std::uint64_t target_pos = 0;  ///< seed window start on the target
    std::uint64_t query_pos = 0;   ///< seed window start on the query

    bool operator==(const SeedHit&) const = default;
};

/** Work counters for the seeding stage (paper Table V "Seeds"). */
struct SeedingStats {
    /** Seed-key lookups issued (exact + transition neighbors). */
    std::uint64_t seed_lookups = 0;
    /** Raw (t, q) hits enumerated from the index. */
    std::uint64_t seed_hits = 0;
    /** Diagonal bands that met the threshold (= filter tiles). */
    std::uint64_t candidates = 0;

    void
    merge(const SeedingStats& other)
    {
        seed_lookups += other.seed_lookups;
        seed_hits += other.seed_hits;
        candidates += other.candidates;
    }
};

/** D-SOFT seeder over one target index. */
class DsoftSeeder {
  public:
    DsoftSeeder(const SeedIndex& index, DsoftParams params);

    /**
     * Seed one query chunk [chunk_begin, chunk_end) of `query` (byte
     * or packed storage); seed_all runs the same chunk loop over whole
     * sequences, with identical hits for equal bases.
     * Emits at most one SeedHit per qualifying diagonal band, and
     * charges the returned vector against the caller's fault heap
     * budget. Charges are cumulative per chunk: the budget bounds every
     * chunk's hits a run produces, whether or not it still holds them.
     */
    std::vector<SeedHit> seed_chunk(seq::BaseView query,
                                    std::size_t chunk_begin,
                                    std::size_t chunk_end,
                                    SeedingStats* stats = nullptr) const;

    /**
     * Seed a whole query sequence, optionally across a thread pool.
     * The result is deterministic (sorted by query, then target).
     */
    std::vector<SeedHit> seed_all(const seq::Sequence& query,
                                  SeedingStats* stats = nullptr,
                                  ThreadPool* pool = nullptr) const;

    /** Packed-query variant of seed_all. */
    std::vector<SeedHit> seed_all(const seq::PackedSequence& query,
                                  SeedingStats* stats = nullptr,
                                  ThreadPool* pool = nullptr) const;

    const DsoftParams& params() const { return params_; }

  private:
    template <class Source>
    std::vector<SeedHit> seed_chunk_impl(const Source& query,
                                         std::size_t chunk_begin,
                                         std::size_t chunk_end,
                                         SeedingStats* stats) const;

    template <class Source>
    std::vector<SeedHit> seed_all_impl(const Source& query,
                                       std::size_t query_size,
                                       SeedingStats* stats,
                                       ThreadPool* pool) const;

    const SeedIndex& index_;
    DsoftParams params_;
};

}  // namespace darwin::seed

#endif  // DARWIN_SEED_DSOFT_H
