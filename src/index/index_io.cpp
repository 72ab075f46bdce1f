#include "index/index_io.h"

#include <algorithm>
#include <cstring>

#include "fault/cancel.h"
#include "index/format.h"
#include "util/artifact.h"
#include "util/digest.h"
#include "util/logging.h"
#include "util/strings.h"

namespace darwin::index {

namespace {

/** Key width (2 bits per match position) of a header's seed shape. */
std::uint32_t
key_bits_of(const IndexHeader& header)
{
    return 2 * static_cast<std::uint32_t>(
                   std::count(header.pattern,
                              header.pattern + header.pattern_length, '1'));
}

/** A directory over the top `dir_bits` of a `key_bits`-bit key leaves at
 *  most 8 suffix bits (one byte per position). */
bool
dir_bits_valid(std::uint32_t dir_bits, std::uint32_t key_bits)
{
    return dir_bits <= key_bits && dir_bits + 8 >= key_bits;
}

std::uint64_t
directory_entries(const IndexHeader& header)
{
    return (std::uint64_t{1} << header.dir_bits) + 1;
}

std::uint64_t
suffix_bytes(const IndexHeader& header)
{
    return header.dir_bits < key_bits_of(header) ? header.num_positions : 0;
}

/** Validate everything the header alone decides, after the
 *  container's prefix checks. */
IndexHeader
validate_header(const artifact::Reader& file)
{
    const auto header = file.header<IndexHeader>();
    if (header.pattern_length == 0 ||
        header.pattern_length > kIndexMaxPatternLength)
        file.fail(strprintf("invalid seed-shape length %u",
                            header.pattern_length));
    if (header.pattern[header.pattern_length] != '\0')
        file.fail("seed-shape field is not NUL-terminated");
    for (std::uint32_t i = 0; i < header.pattern_length; ++i) {
        if (header.pattern[i] != '0' && header.pattern[i] != '1')
            file.fail("seed-shape field holds non-'0'/'1' bytes");
    }
    if (header.max_bucket == 0)
        file.fail("max_bucket of zero");
    // Bound every count before section sizes are computed from it.
    const std::uint32_t key_bits = key_bits_of(header);
    if (key_bits == 0 || key_bits > 30 ||
        header.num_buckets != std::uint64_t{1} << key_bits)
        file.fail("bucket count disagrees with the seed shape");
    if (header.num_positions > UINT32_MAX ||
        header.truncated_buckets > header.num_buckets)
        file.fail("position or repeat-key count out of range");
    if (!dir_bits_valid(header.dir_bits, key_bits))
        file.fail(strprintf("directory width %u out of range for a %u-bit "
                            "key",
                            header.dir_bits, key_bits));

    if (header.reserved_shard_bp != 0 || header.reserved_num_shards != 0 ||
        header.reserved_shard_dir != 0)
        file.fail("reserved header fields are set (a sharded layout, which "
                  "this build no longer reads; rebuild with "
                  "darwin-wga-index)");

    // Four sections, in order, aligned.
    const auto align = artifact::align_section;
    if (header.directory_offset != sizeof(IndexHeader) ||
        header.suffixes_offset !=
            align(header.directory_offset + directory_entries(header) * 4) ||
        header.positions_offset !=
            align(header.suffixes_offset + suffix_bytes(header)) ||
        header.repeats_offset !=
            align(header.positions_offset + header.num_positions * 4))
        file.fail("section offsets disagree with section sizes");
    return header;
}

/**
 * The O(2^b) directory check every load runs before attach(): the
 * offsets start at 0, never decrease, and end at the position count,
 * so every lookup() slice lies inside the position (and suffix)
 * sections.
 */
void
check_directory(const artifact::Reader& file,
                std::span<const std::uint32_t> directory,
                std::uint64_t num_positions)
{
    if (directory.front() != 0)
        file.fail("directory does not start at 0");
    for (std::size_t s = 1; s < directory.size(); ++s) {
        if (directory[s] < directory[s - 1])
            file.fail(strprintf("directory decreases at slice %zu (%u > %u)",
                                s - 1, directory[s - 1], directory[s]));
    }
    if (directory.back() != num_positions)
        file.fail("directory does not end at the position count");
}

void
fill_info(IndexInfo* info, const IndexHeader& header)
{
    info->version = header.version;
    info->sequence_digest = header.sequence_digest;
    info->sequence_length = header.sequence_length;
    info->max_bucket = header.max_bucket;
    info->pattern.assign(header.pattern, header.pattern_length);
    info->num_buckets = header.num_buckets;
    info->dir_bits = header.dir_bits;
    info->num_positions = header.num_positions;
    info->skipped_windows = header.skipped_windows;
    info->truncated_buckets = header.truncated_buckets;
    info->total_bytes = header.total_bytes;
}

}  // namespace

std::uint64_t
sequence_digest(const seq::Sequence& sequence)
{
    return fnv1a64_bytes({sequence.codes().data(), sequence.size()});
}

std::uint64_t
sequence_digest(const seq::PackedSequence& sequence)
{
    // FNV-1a chains: digesting window-by-window with the running hash
    // as the next seed equals one pass over the concatenated bytes, so
    // this matches the byte overload bit-for-bit.
    constexpr std::size_t kWindow = 1u << 20;
    std::vector<std::uint8_t> window(
        std::min<std::size_t>(kWindow, sequence.size()));
    std::uint64_t hash = kFnv1aBasis;
    for (std::size_t start = 0; start < sequence.size();
         start += kWindow) {
        const std::size_t len =
            std::min(kWindow, sequence.size() - start);
        sequence.decode(start, len, window.data());
        hash = fnv1a64_bytes({window.data(), len}, hash);
    }
    return hash;
}

void
save_index(const std::string& path, const seed::SeedIndex& index,
           std::uint64_t digest, std::uint64_t length)
{
    const std::string& shape = index.pattern().pattern();
    if (shape.size() > kIndexMaxPatternLength)
        fatal(strprintf("%s: seed shape of %zu bp exceeds the index "
                        "format's %u bp limit",
                        path.c_str(), shape.size(), kIndexMaxPatternLength));
    IndexHeader header = {};
    std::memcpy(header.magic, kIndexMagic, sizeof(kIndexMagic));
    header.version = kIndexFormatVersion;
    header.endian_tag = artifact::kEndianTag;
    header.sequence_digest = digest;
    header.sequence_length = length;
    header.max_bucket = index.max_bucket();
    header.pattern_length = static_cast<std::uint32_t>(shape.size());
    std::memcpy(header.pattern, shape.data(), shape.size());
    header.num_buckets = index.pattern().key_space();
    header.dir_bits = index.dir_bits();
    header.num_positions = index.num_positions();
    header.skipped_windows = index.skipped_windows();
    header.truncated_buckets = index.truncated_buckets();

    artifact::write_atomic(path, [&](std::ostream& out) {
        artifact::Writer writer(out, kIndexFormat);
        header.directory_offset = writer.put(index.directory());
        header.suffixes_offset = writer.put(index.suffixes());
        header.positions_offset = writer.put(index.positions());
        header.repeats_offset = writer.put(index.repeat_keys());
        writer.finish(header);
    });
}

std::shared_ptr<const seed::SeedIndex>
load_index(const std::string& path, IndexInfo* info)
{
    fault::poll("index.mmap");
    artifact::Reader file(path, kIndexFormat);
    const IndexHeader header = validate_header(file);
    seed::SeedPattern pattern = [&] {
        try {
            return seed::SeedPattern{
                std::string(header.pattern, header.pattern_length)};
        } catch (const FatalError& e) {
            file.fail(strprintf("invalid seed shape: %s", e.what()));
        }
    }();

    // Verify the checksums before a single section byte is trusted: a
    // torn write or bit flip fails loudly here instead of corrupting
    // alignments downstream. Then the directory, so a crafted file with
    // valid checksums still cannot steer lookup() out of bounds.
    file.check_trailer(4);
    const auto directory = file.section<std::uint32_t>(
        0, header.directory_offset, directory_entries(header), "directory");
    const auto suffixes = file.section<std::uint8_t>(
        1, header.suffixes_offset, suffix_bytes(header), "key suffixes");
    const auto positions = file.section<std::uint32_t>(
        2, header.positions_offset, header.num_positions, "positions");
    const auto repeats = file.section<std::uint32_t>(
        3, header.repeats_offset, header.truncated_buckets, "repeat keys");
    check_directory(file, directory, header.num_positions);

    if (info != nullptr)
        fill_info(info, header);
    return std::make_shared<seed::SeedIndex>(seed::SeedIndex::attach(
        std::move(pattern), header.max_bucket, header.dir_bits, directory,
        suffixes, positions, repeats, header.skipped_windows,
        file.mapping()));
}

IndexInfo
read_index_info(const std::string& path)
{
    IndexInfo info;
    fill_info(&info, validate_header(artifact::Reader(path, kIndexFormat)));
    return info;
}

}  // namespace darwin::index
