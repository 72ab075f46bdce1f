#include "seed/seed_index.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "util/logging.h"

namespace darwin::seed {

namespace {

/** Widest key suffix a position carries (one byte). */
constexpr std::uint32_t kMaxSuffixBits = 8;

/** Order one directory slice by suffix. Stable: the slice arrives in
 *  window order, and (suffix, position) pairs sort as one u64 because
 *  positions are distinct. */
void
sort_slice(std::uint8_t* suffixes, std::uint32_t* positions, std::size_t n,
           std::vector<std::uint64_t>& scratch)
{
    if (std::is_sorted(suffixes, suffixes + n))
        return;
    scratch.resize(n);
    for (std::size_t i = 0; i < n; ++i)
        scratch[i] = (std::uint64_t{suffixes[i]} << 32) | positions[i];
    std::sort(scratch.begin(), scratch.end());
    for (std::size_t i = 0; i < n; ++i) {
        suffixes[i] = static_cast<std::uint8_t>(scratch[i] >> 32);
        positions[i] = static_cast<std::uint32_t>(scratch[i]);
    }
}

}  // namespace

std::uint32_t
SeedIndex::directory_bits(std::uint32_t key_bits, std::uint64_t windows)
{
    std::uint32_t bits =
        key_bits > kMaxSuffixBits ? key_bits - kMaxSuffixBits : 0;
    while (bits < key_bits && (std::uint64_t{1} << bits) < windows)
        ++bits;
    return bits;
}

std::size_t
SeedIndex::num_windows(std::size_t target_size) const
{
    if (target_size >= std::numeric_limits<std::uint32_t>::max())
        fatal("SeedIndex: target longer than 2^32-1 is not supported");
    return target_size >= pattern_.span() ? target_size - pattern_.span() + 1
                                          : 0;
}

template <class Source>
void
SeedIndex::build_from(const Source& source, std::size_t windows)
{
    require(max_bucket_ > 0, "SeedIndex: max_bucket must be positive");
    const auto key_bits = static_cast<std::uint32_t>(2 * pattern_.weight());
    dir_bits_ = directory_bits(key_bits, windows);
    suffix_bits_ = key_bits - dir_bits_;
    const std::size_t slices = std::size_t{1} << dir_bits_;

    // Pass 1: slice sizes, then prefix sums so dir[s] is slice s's start.
    std::vector<std::uint32_t>& dir = owned_dir_;
    dir.assign(slices + 1, 0);
    for (std::size_t pos = 0; pos < windows; ++pos) {
        const auto key = pattern_.key_at(source, pos);
        if (!key)
            ++skipped_;
        else
            ++dir[(*key >> suffix_bits_) + 1];
    }
    for (std::size_t s = 1; s <= slices; ++s)
        dir[s] += dir[s - 1];
    const std::size_t total = dir[slices];

    // Pass 2: scatter in window order (a stable counting sort on the top
    // key bits). dir[s] advances to slice s's end, i.e. slice s+1's
    // start; shifting the array by one restores the starts.
    owned_positions_.resize(total);
    owned_suffixes_.resize(suffix_bits_ != 0 ? total : 0);
    const std::uint32_t suffix_mask = (1u << suffix_bits_) - 1;
    for (std::size_t pos = 0; pos < windows; ++pos) {
        const auto key = pattern_.key_at(source, pos);
        if (!key)
            continue;
        const std::uint32_t at = dir[*key >> suffix_bits_]++;
        owned_positions_[at] = static_cast<std::uint32_t>(pos);
        if (suffix_bits_ != 0)
            owned_suffixes_[at] = static_cast<std::uint8_t>(*key & suffix_mask);
    }
    std::memmove(dir.data() + 1, dir.data(), slices * sizeof(dir[0]));
    dir[0] = 0;

    // Order each slice by key and keep every key's first max_bucket
    // positions, compacting in place (the write cursor never passes the
    // read cursor). Keys come out ascending, so the repeat list does too.
    std::vector<std::uint64_t> scratch;
    std::uint32_t out = 0;
    std::uint32_t begin = 0;
    for (std::size_t s = 0; s < slices; ++s) {
        const std::uint32_t end = dir[s + 1];
        dir[s] = out;
        if (suffix_bits_ != 0 && end - begin > 1)
            sort_slice(owned_suffixes_.data() + begin,
                       owned_positions_.data() + begin, end - begin,
                       scratch);
        for (std::uint32_t i = begin; i < end;) {
            std::uint32_t j = i + 1;
            if (suffix_bits_ == 0)
                j = end;
            else
                while (j < end && owned_suffixes_[j] == owned_suffixes_[i])
                    ++j;
            const std::uint32_t kept = std::min(j - i, max_bucket_);
            if (j - i > max_bucket_) {
                const std::uint32_t suffix =
                    suffix_bits_ != 0 ? owned_suffixes_[i] : 0;
                owned_repeats_.push_back(
                    static_cast<SeedKey>(s << suffix_bits_) | suffix);
            }
            if (out != i) {
                std::copy_n(owned_positions_.begin() + i, kept,
                            owned_positions_.begin() + out);
                if (suffix_bits_ != 0)
                    std::copy_n(owned_suffixes_.begin() + i, kept,
                                owned_suffixes_.begin() + out);
            }
            out += kept;
            i = j;
        }
        begin = end;
    }
    dir[slices] = out;
    if (out != total) {
        owned_positions_.resize(out);
        owned_positions_.shrink_to_fit();
        owned_suffixes_.resize(suffix_bits_ != 0 ? out : 0);
        owned_suffixes_.shrink_to_fit();
    }

    dir_view_ = {owned_dir_.data(), owned_dir_.size()};
    suffix_view_ = {owned_suffixes_.data(), owned_suffixes_.size()};
    positions_view_ = {owned_positions_.data(), owned_positions_.size()};
    repeats_view_ = {owned_repeats_.data(), owned_repeats_.size()};
}

SeedIndex::SeedIndex(const seq::Sequence& target, const SeedPattern& pattern,
                     std::uint32_t max_bucket)
    : SeedIndex(pattern, max_bucket)
{
    const std::span<const std::uint8_t> codes{target.codes().data(),
                                              target.size()};
    build_from(codes, num_windows(target.size()));
}

SeedIndex::SeedIndex(const seq::PackedSequence& target,
                     const SeedPattern& pattern, std::uint32_t max_bucket)
    : SeedIndex(pattern, max_bucket)
{
    build_from(target, num_windows(target.size()));
}

SeedIndex
SeedIndex::attach(SeedPattern pattern, std::uint32_t max_bucket,
                  std::uint32_t dir_bits,
                  std::span<const std::uint32_t> directory,
                  std::span<const std::uint8_t> suffixes,
                  std::span<const std::uint32_t> positions,
                  std::span<const std::uint32_t> repeat_keys,
                  std::uint64_t skipped_windows,
                  std::shared_ptr<const void> storage)
{
    SeedIndex index(std::move(pattern), max_bucket);
    const auto key_bits =
        static_cast<std::uint32_t>(2 * index.pattern_.weight());
    require(max_bucket > 0, "SeedIndex::attach: max_bucket must be positive");
    require(dir_bits <= key_bits && dir_bits + kMaxSuffixBits >= key_bits,
            "SeedIndex::attach: directory width out of range");
    require(directory.size() == (std::size_t{1} << dir_bits) + 1,
            "SeedIndex::attach: directory section size mismatch");
    require(directory.back() == positions.size(),
            "SeedIndex::attach: position section size mismatch");
    require(suffixes.size() == (dir_bits < key_bits ? positions.size() : 0),
            "SeedIndex::attach: suffix section size mismatch");
    index.dir_bits_ = dir_bits;
    index.suffix_bits_ = key_bits - dir_bits;
    index.storage_ = std::move(storage);
    index.dir_view_ = directory;
    index.suffix_view_ = suffixes;
    index.positions_view_ = positions;
    index.repeats_view_ = repeat_keys;
    index.skipped_ = skipped_windows;
    return index;
}

std::span<const std::uint32_t>
SeedIndex::lookup(SeedKey key) const
{
    require(key < pattern_.key_space(), "SeedIndex::lookup: key range");
    const SeedKey slice = key >> suffix_bits_;
    std::uint32_t lo = dir_view_[slice];
    std::uint32_t hi = dir_view_[slice + 1];
    if (suffix_bits_ != 0 && lo != hi) {
        const std::uint8_t* suffixes = suffix_view_.data();
        const auto suffix =
            static_cast<std::uint8_t>(key & ((1u << suffix_bits_) - 1));
        const auto [first, last] =
            std::equal_range(suffixes + lo, suffixes + hi, suffix);
        lo = static_cast<std::uint32_t>(first - suffixes);
        hi = static_cast<std::uint32_t>(last - suffixes);
    }
    return {positions_view_.data() + lo, hi - lo};
}

bool
SeedIndex::over_represented(SeedKey key) const
{
    require(key < pattern_.key_space(),
            "SeedIndex::over_represented: key range");
    return std::binary_search(repeats_view_.begin(), repeats_view_.end(),
                              key);
}

}  // namespace darwin::seed
