/**
 * @file
 * Persistent reference index I/O: atomic save, zero-copy mmap load, and
 * header inspection for `.dwi` files (format.h), written and read
 * through the artifact container (util/artifact.h).
 *
 * save_index publishes through the container's tmp + rename, so readers
 * never observe a partial file. load_index maps the file once; the
 * container checks the prefix (magic, endianness, version, truncation),
 * this layer the header (seed shape, counts, section geometry), then
 * the container the checksum trailer and every section's bounds and
 * digest, and last this layer the directory (non-decreasing from 0 to
 * the position count, so no lookup can leave the sections). It returns
 * a SeedIndex attached to the mapping — the mapping is unmapped when
 * the last shared_ptr drops. Every validation failure is a FatalError
 * tagged with the file path and the offending field.
 */
#ifndef DARWIN_INDEX_INDEX_IO_H
#define DARWIN_INDEX_INDEX_IO_H

#include <cstdint>
#include <memory>
#include <string>

#include "index/format.h"
#include "seed/seed_index.h"
#include "seq/sequence.h"

namespace darwin::index {

/** Decoded header of an index file (the `info` subcommand's payload). */
struct IndexInfo {
    std::uint32_t version = 0;
    std::uint64_t sequence_digest = 0;
    std::uint64_t sequence_length = 0;
    std::uint32_t max_bucket = 0;
    std::string pattern;
    std::uint64_t num_buckets = 0;
    /** Directory width b: the directory has 2^b + 1 entries. */
    std::uint32_t dir_bits = 0;
    std::uint64_t num_positions = 0;
    std::uint64_t skipped_windows = 0;
    std::uint64_t truncated_buckets = 0;
    std::uint64_t total_bytes = 0;
};

/** FNV-1a digest of a sequence's base codes — the identity an index
 *  header records and the cache keys on. */
std::uint64_t sequence_digest(const seq::Sequence& sequence);

/** Same digest computed from 2-bit storage, decoding one fixed-size
 *  window at a time (never the whole sequence). Equal to the byte
 *  overload on equal bases, so a packed server keys the same cache
 *  entries a byte server would. */
std::uint64_t sequence_digest(const seq::PackedSequence& sequence);

/**
 * Serialize `index` to `path` atomically (same-directory tmp + rename).
 * `digest`/`length` identify the sequence the index was built from and
 * land in the header. FatalError on I/O failure or a seed shape longer
 * than the format can record.
 */
void save_index(const std::string& path, const seed::SeedIndex& index,
                std::uint64_t digest, std::uint64_t length);

/**
 * mmap `path`, validate it, and return a SeedIndex reading the mapped
 * sections in place. The mapping stays alive as long as any copy of the
 * returned pointer (SeedIndex::attach keeps the holder). Optionally
 * reports the decoded header through `info`.
 */
std::shared_ptr<const seed::SeedIndex> load_index(const std::string& path,
                                                  IndexInfo* info = nullptr);

/** Read and validate only the header (cheap: no section access). */
IndexInfo read_index_info(const std::string& path);

}  // namespace darwin::index

#endif  // DARWIN_INDEX_INDEX_IO_H
