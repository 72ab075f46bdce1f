/**
 * @file
 * Crafting helpers for artifact tests: read a header field out of a
 * file's bytes, list the sections a `.dwi` or `.2bit` header (and
 * directory) describes, and re-seal edited bytes with recomputed
 * digests so a crafted file — what a hostile writer, not a bit flip,
 * produces — gets past the artifact container's checksum checks to the
 * checks behind them.
 */
#ifndef DARWIN_TESTS_ARTIFACT_CRAFT_H
#define DARWIN_TESTS_ARTIFACT_CRAFT_H

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "index/format.h"
#include "seq/packed_io.h"
#include "seq/packed_sequence.h"
#include "util/artifact.h"
#include "util/digest.h"

namespace darwin::test {

template <class T>
inline T
read_at(const std::string& bytes, std::uint64_t offset)
{
    T value;
    std::memcpy(&value, bytes.data() + offset, sizeof(value));
    return value;
}

/** One section of a file as its header and directory describe it. */
struct Span {
    std::uint64_t offset;
    std::uint64_t bytes;
};

/** The sections a `.dwi` header describes; crafted values make spans
 *  that reseal() skips. */
inline std::vector<Span>
index_sections(const std::string& bytes)
{
    const auto h = read_at<index::IndexHeader>(bytes, 0);
    if (h.dir_bits >= 32 || h.pattern_length > index::kIndexMaxPatternLength)
        return {};
    const auto key_bits = 2 * std::count(h.pattern,
                                         h.pattern + h.pattern_length, '1');
    return {{h.directory_offset, ((std::uint64_t{1} << h.dir_bits) + 1) * 4},
            {h.suffixes_offset, h.dir_bits < key_bits ? h.num_positions : 0},
            {h.positions_offset, h.num_positions * 4},
            {h.repeats_offset, h.truncated_buckets * 4}};
}

/** The sections a `.2bit` header and directory describe. */
inline std::vector<Span>
packed_sections(const std::string& bytes)
{
    const auto h = read_at<seq::PackedHeader>(bytes, 0);
    const std::uint64_t n = h.num_chromosomes;
    if (!artifact::fits(h.dir_offset, n, sizeof(seq::PackedChromEntry),
                        bytes.size()))
        return {};
    std::vector<Span> sections;
    for (std::uint64_t i = 0; i < n; ++i) {
        const auto entry = read_at<seq::PackedChromEntry>(
            bytes, h.dir_offset + i * sizeof(seq::PackedChromEntry));
        const std::uint64_t bases = std::min<std::uint64_t>(
            entry.num_bases, bytes.size() * 32);
        sections.push_back({entry.base_words_offset,
                            seq::PackedSequence::base_word_count(bases) * 8});
        sections.push_back({entry.n_words_offset,
                            seq::PackedSequence::n_word_count(bases) * 8});
    }
    sections.push_back({h.names_offset, h.names_bytes});
    sections.push_back({h.dir_offset, n * sizeof(seq::PackedChromEntry)});
    return sections;
}

/**
 * Set total_bytes to the file size and recompute the digest of every
 * section that lies inside the file and the header digest, so `bytes`
 * passes the prefix and checksum checks whatever else is wrong with it.
 * Leaves files without a usable trailer as they are.
 */
inline std::string
reseal(std::string bytes, const artifact::Format& format,
       std::vector<Span> (*sections_of)(const std::string&))
{
    using artifact::ChecksumTrailer;
    if (bytes.size() < format.header_bytes + sizeof(ChecksumTrailer))
        return bytes;
    const std::uint64_t size = bytes.size();
    std::memcpy(bytes.data() + format.total_bytes_offset, &size,
                sizeof(size));
    const std::uint64_t trailer_at = size - sizeof(ChecksumTrailer);
    auto trailer = read_at<ChecksumTrailer>(bytes, trailer_at);
    if (!artifact::fits(trailer.digests_offset, trailer.num_digests, 8,
                        trailer_at))
        return bytes;
    const std::vector<Span> sections = sections_of(bytes);
    for (std::size_t i = 0;
         i < std::min<std::size_t>(sections.size(), trailer.num_digests);
         ++i) {
        if (!artifact::fits(sections[i].offset, sections[i].bytes, 1, size))
            continue;
        const std::uint64_t digest = fnv1a64_bytes(
            {reinterpret_cast<const std::uint8_t*>(bytes.data()) +
                 sections[i].offset,
             sections[i].bytes});
        std::memcpy(bytes.data() + trailer.digests_offset + i * 8, &digest,
                    sizeof(digest));
    }
    trailer.header_digest = fnv1a64_bytes(
        {reinterpret_cast<const std::uint8_t*>(bytes.data()),
         format.header_bytes});
    std::memcpy(bytes.data() + trailer_at, &trailer, sizeof(trailer));
    return bytes;
}

}  // namespace darwin::test

#endif  // DARWIN_TESTS_ARTIFACT_CRAFT_H
