/**
 * @file
 * Seed position index over the target genome.
 *
 * A key-sorted position table sized to the target, not to the key space
 * — the software analogue of the seed table the Darwin-WGA host keeps
 * in DRAM. Its four sections:
 *
 *  - directory: 2^b + 1 u32 offsets over the top `b` bits of the key
 *    (`b` = dir_bits(), chosen at build time from the indexed window
 *    count: the smallest b >= key_bits - 8 with 2^b >= windows, capped
 *    at key_bits);
 *  - suffixes:  one u8 per position holding the low key_bits - b key
 *    bits (empty when b == key_bits, i.e. a dense directory);
 *  - positions: sorted by key, ascending within a key;
 *  - repeat keys: the sorted list of keys truncated at max_bucket.
 *
 * lookup() slices the directory and narrows the slice to one key with a
 * binary search over its suffixes, so a 120 kbp target carries a 2^17
 * directory instead of a dense 4^12 one, and only a target of 16 M+
 * windows pays for the dense directory.
 *
 * The index reads its sections through spans, so one class serves both
 * storage modes: the building constructors fill owned vectors, and
 * attach() wraps externally owned memory — a memory-mapped index file
 * (src/index/) — zero-copy. DsoftSeeder is oblivious to the mode.
 */
#ifndef DARWIN_SEED_SEED_INDEX_H
#define DARWIN_SEED_SEED_INDEX_H

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "seed/seed_pattern.h"
#include "seq/sequence.h"

namespace darwin::seed {

/** Key-sorted position index for one target sequence. */
class SeedIndex {
  public:
    /** Repeat-seed cap every default-configured index uses. Persisted
     *  index files record theirs in the header, and the index cache
     *  keys on it, so the same cap always yields the same tables. */
    static constexpr std::uint32_t kDefaultMaxBucket = 256;

    /**
     * Build the index over `target` (typically a flattened genome).
     * Windows containing N contribute nothing, so chromosome separators
     * are never indexed.
     *
     * @param max_bucket Keys with more than this many positions keep
     *        their first max_bucket positions and are flagged as
     *        over-represented; repetitive seeds otherwise swamp the
     *        filter stage (whole-genome aligners all cap repeat seeds
     *        one way or another).
     */
    SeedIndex(const seq::Sequence& target, const SeedPattern& pattern,
              std::uint32_t max_bucket = kDefaultMaxBucket);

    /** Same build over a 2-bit packed target; produces bit-identical
     *  sections to the byte overload for equal base content. */
    SeedIndex(const seq::PackedSequence& target, const SeedPattern& pattern,
              std::uint32_t max_bucket = kDefaultMaxBucket);

    /**
     * Zero-copy view over externally owned sections (a mapped index
     * file). `storage` keeps the backing memory alive for the index's
     * lifetime (e.g. the mmap holder). Section sizes are checked here;
     * the caller has already validated the section contents (the
     * directory is non-decreasing from 0 to positions.size()).
     *
     * @param dir_bits    directory width b (key_bits - 8 <= b <= key_bits)
     * @param directory   2^b + 1 entries
     * @param suffixes    positions.size() entries, or none when
     *                    b == key_bits
     * @param repeat_keys sorted truncated keys
     */
    static SeedIndex attach(SeedPattern pattern, std::uint32_t max_bucket,
                            std::uint32_t dir_bits,
                            std::span<const std::uint32_t> directory,
                            std::span<const std::uint8_t> suffixes,
                            std::span<const std::uint32_t> positions,
                            std::span<const std::uint32_t> repeat_keys,
                            std::uint64_t skipped_windows,
                            std::shared_ptr<const void> storage = nullptr);

    SeedIndex(SeedIndex&&) = default;
    SeedIndex& operator=(SeedIndex&&) = default;
    SeedIndex(const SeedIndex&) = delete;
    SeedIndex& operator=(const SeedIndex&) = delete;

    /** Target positions whose window hashes to `key`, ascending. */
    std::span<const std::uint32_t> lookup(SeedKey key) const;

    /** True when the key was truncated at construction. */
    bool over_represented(SeedKey key) const;

    /** Total indexed positions (after truncation). */
    std::size_t num_positions() const { return positions_view_.size(); }

    /** Number of windows skipped because of ambiguous bases. */
    std::uint64_t skipped_windows() const { return skipped_; }

    /** Number of keys that hit the cap. */
    std::uint64_t truncated_buckets() const { return repeats_view_.size(); }

    const SeedPattern& pattern() const { return pattern_; }

    std::uint32_t max_bucket() const { return max_bucket_; }

    /** Directory width b: the directory has 2^b + 1 entries. */
    std::uint32_t dir_bits() const { return dir_bits_; }

    // Raw sections, exposed for serialization (src/index/index_io).
    std::span<const std::uint32_t> directory() const { return dir_view_; }

    std::span<const std::uint8_t> suffixes() const { return suffix_view_; }

    std::span<const std::uint32_t> positions() const
    {
        return positions_view_;
    }

    std::span<const std::uint32_t> repeat_keys() const
    {
        return repeats_view_;
    }

  private:
    explicit SeedIndex(SeedPattern pattern, std::uint32_t max_bucket)
        : pattern_(std::move(pattern)), max_bucket_(max_bucket)
    {
    }

    /** The one table build: index the first `windows` window starts
     *  of `source` (anything pattern_.key_at accepts). */
    template <class Source>
    void build_from(const Source& source, std::size_t windows);

    /** Directory width for `windows` window starts: the smallest
     *  b >= key_bits - 8 with 2^b >= windows, capped at key_bits. */
    static std::uint32_t directory_bits(std::uint32_t key_bits,
                                        std::uint64_t windows);

    /** Window starts of a `target_size`-bp target. */
    std::size_t num_windows(std::size_t target_size) const;

    SeedPattern pattern_;
    std::uint32_t max_bucket_ = 0;
    std::uint32_t dir_bits_ = 0;
    /** key_bits - dir_bits: the low key bits the suffixes hold. */
    std::uint32_t suffix_bits_ = 0;

    // Owned storage (building constructors only; empty when attached).
    std::vector<std::uint32_t> owned_dir_;
    std::vector<std::uint8_t> owned_suffixes_;
    std::vector<std::uint32_t> owned_positions_;
    std::vector<std::uint32_t> owned_repeats_;
    /** Keepalive for attached storage (e.g. the mmap holder). */
    std::shared_ptr<const void> storage_;

    // The views every accessor reads, whichever mode owns the bytes.
    std::span<const std::uint32_t> dir_view_;
    std::span<const std::uint8_t> suffix_view_;
    std::span<const std::uint32_t> positions_view_;
    std::span<const std::uint32_t> repeats_view_;

    std::uint64_t skipped_ = 0;
};

}  // namespace darwin::seed

#endif  // DARWIN_SEED_SEED_INDEX_H
