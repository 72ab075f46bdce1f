/**
 * @file
 * On-disk format of a persistent reference index (`.dwi`), version 3.
 *
 * A `.dwi` file is the key-sorted spaced-seed position table of one
 * target sequence (seed/seed_index.h), laid out so a reader can mmap
 * the file and hand the sections to SeedIndex::attach() without copying
 * a byte. The layout:
 *
 *     [IndexHeader]       256 bytes, at offset 0
 *     [directory]         (2^dir_bits + 1) x u32, 64-byte aligned
 *     [key suffixes]      num_positions x u8 (none when dir_bits equals
 *                         the key width), 64-byte aligned
 *     [positions]         num_positions x u32, 64-byte aligned
 *     [repeat keys]       truncated_buckets x u32, sorted, aligned
 *     [digest array]      one fnv1a64 per section, in this order
 *     [ChecksumTrailer]   the last 64 bytes
 *
 * The directory indexes the top dir_bits bits of the seed key: slice s
 * of the positions holds every key whose top bits are s, sorted by key
 * (the suffix bytes hold the remaining low bits) and ascending within a
 * key. dir_bits is sized to the target at build time, so a 120 kbp
 * target's file is ~1 MB, not the 67 MB a dense 4^12 directory costs.
 *
 * The file is an artifact container (util/artifact.h), which owns the
 * prefix checks, the 64-byte section alignment (cache-line alignment
 * for the zero-copy load), the digest array and trailer, and the
 * tmp+rename publish; this header defines only what is particular to
 * an index. The header records the FNV-1a digest and length of the
 * sequence the table was built from, so a loader can verify an index
 * actually belongs to the FASTA it is paired with, and the seed shape +
 * repeat cap, so a cache can key on exactly the inputs that determine
 * the table bytes.
 *
 * Versioning policy: an index is a rebuildable cache artifact. One
 * version is written and read; `version` bumps on any layout or
 * semantic change, and readers refuse every other version with a
 * "rebuild with darwin-wga-index" error (no in-place migration).
 * Versions 1 and 2 (a dense 4^weight bucket-offset array per table) are
 * refused. Early version-3 builds could also write a sharded layout (one
 * table per band shard); its header fields are now reserved and must be
 * zero, so such files are refused too.
 */
#ifndef DARWIN_INDEX_FORMAT_H
#define DARWIN_INDEX_FORMAT_H

#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "util/artifact.h"

namespace darwin::index {

/** File magic, first 8 bytes ("DWGAIDX" + NUL). */
inline constexpr char kIndexMagic[8] = {'D', 'W', 'G', 'A',
                                        'I', 'D', 'X', '\0'};

/** The one format version written and read. */
inline constexpr std::uint32_t kIndexFormatVersion = 3;

/** Longest representable seed-shape string (NUL-terminated on disk). */
inline constexpr std::uint32_t kIndexMaxPatternLength = 63;

/** Fixed-layout file header. Field offsets are load-bearing. */
struct IndexHeader {
    char magic[8];                   ///< kIndexMagic
    std::uint32_t version;           ///< kIndexFormatVersion
    std::uint32_t endian_tag;        ///< artifact::kEndianTag
    std::uint64_t sequence_digest;   ///< fnv1a64 over the target codes
    std::uint64_t sequence_length;   ///< target length in bases
    std::uint32_t max_bucket;        ///< repeat-seed truncation cap
    std::uint32_t pattern_length;    ///< strlen of the seed shape
    std::uint64_t num_buckets;       ///< pattern key space (4^weight)
    std::uint64_t num_positions;     ///< total indexed positions
    std::uint64_t skipped_windows;   ///< windows skipped for N bases
    std::uint64_t truncated_buckets; ///< keys clamped at max_bucket
    std::uint64_t directory_offset;  ///< byte offset of the directory
    std::uint64_t suffixes_offset;   ///< byte offset of the suffixes
    std::uint64_t positions_offset;  ///< byte offset of positions
    std::uint64_t repeats_offset;    ///< byte offset of the repeat keys
    std::uint64_t total_bytes;       ///< exact file size
    char pattern[kIndexMaxPatternLength + 1];  ///< '1'/'0' seed shape
    std::uint64_t reserved_shard_bp;   ///< zero (was the sharded layout's)
    std::uint32_t reserved_num_shards; ///< zero (was the sharded layout's)
    std::uint32_t dir_bits;            ///< directory width b
    std::uint64_t reserved_shard_dir;  ///< zero (was the sharded layout's)
    char reserved[56];                 ///< zero; future use
};

static_assert(sizeof(IndexHeader) == 256,
              "IndexHeader layout is part of the on-disk format");
static_assert(std::is_trivially_copyable_v<IndexHeader>,
              "IndexHeader must be memcpy-safe");
static_assert(sizeof(IndexHeader) % artifact::kSectionAlign == 0,
              "sections start 64-byte aligned right after the header");

/** The container description of a `.dwi` (util/artifact.h). */
inline constexpr artifact::Format kIndexFormat = {
    "index",
    kIndexMagic,
    kIndexFormatVersion,
    sizeof(IndexHeader),
    offsetof(IndexHeader, total_bytes),
    "rebuild with darwin-wga-index",
};

}  // namespace darwin::index

#endif  // DARWIN_INDEX_FORMAT_H
