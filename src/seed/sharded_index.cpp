#include "seed/sharded_index.h"

#include <algorithm>
#include <limits>

#include "util/logging.h"
#include "util/strings.h"

namespace darwin::seed {

namespace {

constexpr std::uint32_t kNoCutoff =
    std::numeric_limits<std::uint32_t>::max();

/** Call `fn` with the view's backing storage: the PackedSequence, or
 *  the byte span (what SeedPattern::key_at and the index build read). */
template <class Fn>
decltype(auto)
with_storage(seq::BaseView view, Fn&& fn)
{
    if (view.packed())
        return fn(*view.packed_sequence());
    return fn(view.bytes());
}

}  // namespace

std::vector<ShardPlan>
plan_shards(std::uint64_t target_length, std::uint64_t shard_bp,
            std::uint64_t chunk_size, std::uint64_t bin_size)
{
    if (shard_bp == 0)
        fatal("shard-bp: shard size of zero bp (must be positive)");
    // Band starts range over projected target positions, which exceed
    // raw positions by up to the query chunk size.
    const std::uint64_t band_end = target_length + chunk_size + bin_size;
    std::vector<ShardPlan> plan;
    for (std::uint64_t lo = 0; lo < band_end; lo += shard_bp) {
        ShardPlan shard;
        shard.band_lo = lo;
        shard.band_hi = std::min(band_end, lo + shard_bp);
        shard.slice_lo = lo > chunk_size ? lo - chunk_size : 0;
        shard.slice_hi = std::min<std::uint64_t>(
            target_length, shard.band_hi + bin_size);
        plan.push_back(shard);
    }
    if (plan.empty()) {
        // Degenerate empty target: one empty shard keeps callers simple.
        plan.push_back(ShardPlan{0, band_end, 0, 0});
    }
    return plan;
}

ShardedSeedIndexBuilder::ShardedSeedIndexBuilder(
    seq::BaseView target, const SeedPattern& pattern,
    std::uint32_t max_bucket, std::uint64_t shard_bp,
    std::uint64_t chunk_size, std::uint64_t bin_size)
    : target_(target), pattern_(pattern), max_bucket_(max_bucket)
{
    require(max_bucket_ > 0,
            "ShardedSeedIndexBuilder: max_bucket must be positive");
    if (target.size() >= std::numeric_limits<std::uint32_t>::max())
        fatal("ShardedSeedIndexBuilder: target longer than 2^32-1 is not "
              "supported");
    plan_ = plan_shards(target.size(), shard_bp, chunk_size, bin_size);

    // Global pass: per-bucket occurrence counts drive the truncation
    // cutoffs. Streaming counters keep this O(key_space) regardless of
    // target size.
    const std::uint64_t buckets = pattern_.key_space();
    std::vector<std::uint32_t> counts(buckets, 0);
    cutoff_.assign(buckets, kNoCutoff);
    const std::size_t last = target.size() >= pattern_.span()
                                 ? target.size() - pattern_.span() + 1
                                 : 0;
    with_storage(target, [&](const auto& source) {
        for (std::size_t pos = 0; pos < last; ++pos) {
            const auto key = pattern_.key_at(source, pos);
            if (!key) {
                ++skipped_;
                continue;
            }
            const std::uint64_t k = *key;
            if (counts[k] == max_bucket_ && cutoff_[k] == kNoCutoff)
                cutoff_[k] = static_cast<std::uint32_t>(pos);
            if (counts[k] <= max_bucket_)
                ++counts[k];
        }
    });

    repeat_keys_ = std::make_shared<std::vector<std::uint32_t>>();
    for (std::uint64_t k = 0; k < buckets; ++k) {
        if (cutoff_[k] != kNoCutoff)
            repeat_keys_->push_back(static_cast<std::uint32_t>(k));
    }
}

std::shared_ptr<const SeedIndex>
ShardedSeedIndexBuilder::build_shard(std::size_t s) const
{
    require(s < plan_.size(), "ShardedSeedIndexBuilder: bad shard index");
    const ShardPlan& shard = plan_[s];
    SeedIndex table(pattern_, max_bucket_);
    const std::size_t last = table.num_windows(target_.size());
    with_storage(target_, [&](const auto& source) {
        table.build_from(source, std::min<std::size_t>(shard.slice_lo, last),
                         std::min<std::size_t>(shard.slice_hi, last),
                         cutoff_);
    });
    // The cutoffs already kept every key's first max_bucket positions
    // target-wide, so the slice build truncates nothing; the repeat
    // list and skipped-window count are the global ones.
    require(table.owned_repeats_.empty(),
            "ShardedSeedIndexBuilder: shard build truncated a key");
    table.skipped_ = skipped_;
    table.repeats_view_ = {repeat_keys_->data(), repeat_keys_->size()};
    table.storage_ = repeat_keys_;
    return std::make_shared<const SeedIndex>(std::move(table));
}

}  // namespace darwin::seed
