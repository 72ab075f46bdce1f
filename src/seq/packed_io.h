/**
 * @file
 * Persistent 2-bit genome storage: the `.2bit` sidecar cache.
 *
 * A `.2bit` file holds a whole Genome in PackedSequence form, laid out
 * so a reader can mmap it and attach every chromosome without copying
 * a byte. It is an artifact container (util/artifact.h), version 2:
 *
 *     [PackedHeader]        128 bytes, at offset 0
 *     per chromosome i:
 *       [base words]        ceil(bases/32) x u64   section 2i
 *       [n-mask words]      ceil(bases/64) x u64   section 2i + 1
 *     [name blob]           genome + chromosome names, section 2n
 *     [chromosome dir]      n x PackedChromEntry,  section 2n + 1
 *     [digest array]        one fnv1a64 per section
 *     [ChecksumTrailer]     the last 64 bytes
 *
 * Every section is 64-byte aligned and checksummed; the container
 * checks the prefix, the trailer and each section's bounds and digest
 * before a byte of it is read, so a torn write or bit flip fails at
 * load instead of corrupting alignments downstream. This layer checks
 * what only it knows: the directory's size against the file before
 * the directory is read, each entry's name and word sections, and the
 * base total.
 *
 * The header records the FNV-1a digest of the *source FASTA bytes*
 * (util/digest.h), so `read_genome_packed` can key the sidecar on
 * exactly the input that produced it: matching digest -> mmap reuse,
 * anything else (stale, corrupt, truncated, an older version) ->
 * rebuild via the container's tmp+rename. Ingestion parses the mmap'd
 * FASTA straight into packed words — no byte-per-base intermediate ever
 * exists, which is what lets a 100 Mbp assembly load in ~total/4 bytes
 * of heap.
 *
 * Version 1 (checksums in the header's reserved bytes, sections not
 * all aligned) is refused with a "rebuild" error and, through
 * `read_genome_packed`, rebuilt.
 */
#ifndef DARWIN_SEQ_PACKED_IO_H
#define DARWIN_SEQ_PACKED_IO_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <type_traits>

#include "seq/genome.h"
#include "util/artifact.h"

namespace darwin::seq {

/** File magic, first 8 bytes ("DWGA2BT" + NUL). */
inline constexpr char kPackedMagic[8] = {'D', 'W', 'G', 'A',
                                         '2', 'B', 'T', '\0'};

/** Current (and only accepted) `.2bit` format version. */
inline constexpr std::uint32_t kPackedFormatVersion = 2;

/** Fixed-layout file header. Field offsets are load-bearing. */
struct PackedHeader {
    char magic[8];                 ///< kPackedMagic
    std::uint32_t version;         ///< kPackedFormatVersion
    std::uint32_t endian_tag;      ///< artifact::kEndianTag
    std::uint64_t fasta_digest;    ///< fnv1a64 over the source FASTA bytes
    std::uint64_t num_chromosomes;
    std::uint64_t total_bases;     ///< sum of chromosome lengths
    std::uint64_t dir_offset;      ///< chromosome directory section
    std::uint64_t names_offset;    ///< name blob section
    std::uint64_t names_bytes;     ///< name blob size
    std::uint64_t genome_name_offset;  ///< into the name blob
    std::uint64_t genome_name_length;
    std::uint64_t total_bytes;     ///< exact file size
    char reserved[40];             ///< zero; future use
};

static_assert(sizeof(PackedHeader) == 128,
              "PackedHeader layout is part of the on-disk format");
static_assert(std::is_trivially_copyable_v<PackedHeader>,
              "PackedHeader must be memcpy-safe");

/** One chromosome directory entry. */
struct PackedChromEntry {
    std::uint64_t name_offset;       ///< into the name blob
    std::uint64_t name_length;
    std::uint64_t num_bases;
    std::uint64_t base_words_offset; ///< absolute offset of section 2i
    std::uint64_t n_words_offset;    ///< absolute offset of section 2i+1
    std::uint64_t reserved;          ///< zero
};

static_assert(sizeof(PackedChromEntry) == 48,
              "PackedChromEntry layout is part of the on-disk format");

/** The container description of a `.2bit` (util/artifact.h). */
inline constexpr artifact::Format kPackedFormat = {
    "packed genome",
    kPackedMagic,
    kPackedFormatVersion,
    sizeof(PackedHeader),
    offsetof(PackedHeader, total_bytes),
    "rebuild it from its FASTA",
};

/** Serialize a genome to `path` atomically (the container's tmp +
 *  rename). Works for byte-mode genomes too (packs on the fly). */
void save_packed_genome(const std::string& path, const Genome& genome,
                        std::uint64_t fasta_digest);

/**
 * mmap `path`, validate it, and return a packed Genome whose
 * chromosomes attach to the mapped words (the mapping lives as long as
 * any chromosome copy). When `expected_digest` is non-zero a mismatch
 * is fatal — that is how a caller detects a stale sidecar.
 */
Genome load_packed_genome(const std::string& path,
                          std::uint64_t expected_digest = 0);

/**
 * Read a FASTA as a packed Genome with a `.2bit` sidecar next to it:
 * a sidecar whose digest matches the FASTA bytes is mmap-reused; a
 * missing, stale, or corrupt sidecar is rebuilt by packing the
 * mmap'd FASTA into words and written tmp+rename. Set
 * `sidecar_path` to override the default `<fasta>.2bit` (useful when
 * the FASTA's directory is read-only); empty disables the cache
 * entirely (parse-only).
 */
Genome read_genome_packed(const std::string& fasta_path,
                          const std::string& name = "",
                          const std::string& sidecar_path = "auto");

}  // namespace darwin::seq

#endif  // DARWIN_SEQ_PACKED_IO_H
