/**
 * @file
 * Target-chunked (sharded) seed indexing for bounded-memory seeding.
 *
 * A monolithic seed table over a 100 Mbp target holds ~10^8 positions
 * plus a dense key directory; holding several of them is what breaks
 * large-genome runs. Sharding cuts the *diagonal band space*
 * into contiguous ranges of `shard_bp` band-start basepairs, so the
 * pipeline can build (or load) one shard's table at a time, seed the
 * whole query against it, and release it before the next.
 *
 * Correctness is exact, not approximate. D-SOFT assigns each raw hit
 * (t, q) of a query chunk to band floor((t + chunk_end - q) /
 * bin_size); a shard owning band starts [band_lo, band_hi) can only
 * receive hits whose target position lies in [band_lo - chunk_size,
 * band_hi + bin_size), so indexing exactly that slice reproduces every
 * owned-band hit. Two properties carry byte-identity vs the monolithic
 * run:
 *
 *  1. Global truncation. Repeat buckets keep their first `max_bucket`
 *     positions *globally*. A per-slice cap would keep the first
 *     max_bucket positions *of the slice* — a different set. The
 *     builder therefore makes one global pass computing, per bucket,
 *     the cutoff position of the (max_bucket+1)-th occurrence; shard
 *     builds keep a position iff it falls below that cutoff, making
 *     every shard bucket exactly (global truncated bucket ∩ slice).
 *  2. Order preservation. A key's positions are ascending in both the
 *     monolithic and the shard build (one stable build routine), so a
 *     shard's lookup() is a subsequence of the global one and D-SOFT's
 *     first-hit-per-band selection sees the same first hit.
 *
 * Over-represented keys and skipped-window counts are global too, so
 * shard tables report the same telemetry the monolithic table would.
 */
#ifndef DARWIN_SEED_SHARDED_INDEX_H
#define DARWIN_SEED_SHARDED_INDEX_H

#include <cstdint>
#include <memory>
#include <vector>

#include "seed/seed_index.h"
#include "seq/base_view.h"

namespace darwin::seed {

/** One shard of the banded target space. All units are basepairs. */
struct ShardPlan {
    std::uint64_t band_lo = 0;  ///< first owned band-start bp (inclusive)
    std::uint64_t band_hi = 0;  ///< end of owned band-start range (exclusive)
    std::uint64_t slice_lo = 0; ///< first indexed window start
    std::uint64_t slice_hi = 0; ///< end of indexed window starts (exclusive)
};

/**
 * Partition a target of `target_length` bp into shards owning
 * `shard_bp` of band-start space each, with slices widened by
 * `chunk_size` below and `bin_size` above (the D-SOFT projection
 * margins). Fatal (tagged "shard-bp") when shard_bp is zero. A
 * shard_bp >= target_length + chunk_size yields one shard whose slice
 * is the whole target.
 */
std::vector<ShardPlan> plan_shards(std::uint64_t target_length,
                                   std::uint64_t shard_bp,
                                   std::uint64_t chunk_size,
                                   std::uint64_t bin_size);

/**
 * Two-phase sharded index builder over a target of either storage
 * (byte or packed, through seq::BaseView): a global
 * counting pass at construction (bucket cutoffs, over-represented
 * flags, skipped windows), then per-shard table builds on demand.
 * Only the O(key_space) global artifacts stay resident between
 * build_shard calls; each shard table is owned by the returned
 * SeedIndex and freed when the caller drops it.
 */
class ShardedSeedIndexBuilder {
  public:
    ShardedSeedIndexBuilder(seq::BaseView target,
                            const SeedPattern& pattern,
                            std::uint32_t max_bucket,
                            std::uint64_t shard_bp,
                            std::uint64_t chunk_size,
                            std::uint64_t bin_size);

    const std::vector<ShardPlan>& plan() const { return plan_; }
    std::size_t num_shards() const { return plan_.size(); }

    /** Global telemetry (identical to the monolithic build's). */
    std::uint64_t skipped_windows() const { return skipped_; }
    std::uint64_t truncated_buckets() const { return repeat_keys_->size(); }

    const SeedPattern& pattern() const { return pattern_; }
    std::uint32_t max_bucket() const { return max_bucket_; }

    /** Global sorted list of truncated keys; identical across shards
     *  and to the monolithic build's. */
    std::span<const std::uint32_t>
    repeat_keys() const
    {
        return {repeat_keys_->data(), repeat_keys_->size()};
    }

    /**
     * Build shard `s`'s position table through SeedIndex's own build,
     * with the global truncation cutoffs as the window predicate.
     * Positions are global target coordinates restricted to the shard's
     * slice; the directory is sized to the slice.
     */
    std::shared_ptr<const SeedIndex> build_shard(std::size_t s) const;

  private:
    seq::BaseView target_;
    SeedPattern pattern_;
    std::uint32_t max_bucket_;
    std::vector<ShardPlan> plan_;
    /** Per bucket: position of the (max_bucket+1)-th occurrence, or
     *  UINT32_MAX when the bucket never overflows. A position survives
     *  truncation iff it is strictly below the cutoff. */
    std::vector<std::uint32_t> cutoff_;
    std::shared_ptr<std::vector<std::uint32_t>> repeat_keys_;
    std::uint64_t skipped_ = 0;
};

}  // namespace darwin::seed

#endif  // DARWIN_SEED_SHARDED_INDEX_H
