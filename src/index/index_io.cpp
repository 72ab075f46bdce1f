#include "index/index_io.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "fault/cancel.h"
#include "index/format.h"
#include "util/digest.h"
#include "util/logging.h"
#include "util/strings.h"

namespace darwin::index {

namespace {

/** RAII owner of one read-only mapping; the shared_ptr keepalive the
 *  attached SeedIndex holds. */
class Mapping {
  public:
    Mapping(void* data, std::size_t size) : data_(data), size_(size) {}

    ~Mapping()
    {
        if (data_ != nullptr)
            ::munmap(data_, size_);
    }

    Mapping(const Mapping&) = delete;
    Mapping& operator=(const Mapping&) = delete;

    const std::uint8_t*
    bytes() const
    {
        return static_cast<const std::uint8_t*>(data_);
    }

    std::size_t size() const { return size_; }

  private:
    void* data_;
    std::size_t size_;
};

[[noreturn]] void
bad_index(const std::string& path, const std::string& what)
{
    fatal(strprintf("%s: %s", path.c_str(), what.c_str()));
}

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
directory_bytes(std::uint32_t dir_bits)
{
    return ((std::uint64_t{1} << dir_bits) + 1) * 4;
}

std::uint64_t
suffix_bytes(std::uint32_t dir_bits, std::uint32_t key_bits,
             std::uint64_t num_positions)
{
    return dir_bits < key_bits ? num_positions : 0;
}

/** True when [offset, offset + bytes) lies below `limit`, without
 *  overflowing on crafted offsets. */
bool
fits(std::uint64_t offset, std::uint64_t bytes, std::uint64_t limit)
{
    return offset <= limit && bytes <= limit - offset;
}

/** Validate everything decodable from the header bytes alone. */
IndexHeader
validate_header(const std::string& path, const std::uint8_t* bytes,
                std::uint64_t file_size)
{
    if (file_size < sizeof(IndexHeader))
        bad_index(path, strprintf("truncated index header (%llu bytes, "
                                  "need %zu)",
                                  static_cast<unsigned long long>(file_size),
                                  sizeof(IndexHeader)));
    IndexHeader header;
    std::memcpy(&header, bytes, sizeof(header));
    if (std::memcmp(header.magic, kIndexMagic, sizeof(kIndexMagic)) != 0)
        bad_index(path, "not a darwin-wga index file (bad magic)");
    if (header.endian_tag != kIndexEndianTag)
        bad_index(path, "index was written with a different byte order");
    if (header.version != kIndexFormatVersion)
        bad_index(path,
                  strprintf("unsupported index format version %u "
                            "(this build reads version %u; rebuild with "
                            "darwin-wga-index)",
                            header.version, kIndexFormatVersion));
    if (header.total_bytes != file_size)
        bad_index(path, strprintf("truncated or padded index file "
                                  "(header records %llu bytes, file has "
                                  "%llu)",
                                  static_cast<unsigned long long>(
                                      header.total_bytes),
                                  static_cast<unsigned long long>(
                                      file_size)));
    if (header.pattern_length == 0 ||
        header.pattern_length > kIndexMaxPatternLength)
        bad_index(path, strprintf("invalid seed-shape length %u",
                                  header.pattern_length));
    if (header.pattern[header.pattern_length] != '\0')
        bad_index(path, "seed-shape field is not NUL-terminated");
    for (std::uint32_t i = 0; i < header.pattern_length; ++i) {
        if (header.pattern[i] != '0' && header.pattern[i] != '1')
            bad_index(path, "seed-shape field holds non-'0'/'1' bytes");
    }
    if (header.max_bucket == 0)
        bad_index(path, "max_bucket of zero");
    // Bound every count before section sizes are computed from it.
    const std::uint32_t key_bits = key_bits_of(header);
    if (key_bits == 0 || key_bits > 30 ||
        header.num_buckets != std::uint64_t{1} << key_bits)
        bad_index(path, "bucket count disagrees with the seed shape");
    if (header.num_positions > UINT32_MAX ||
        header.truncated_buckets > header.num_buckets)
        bad_index(path, "position or repeat-key count out of range");
    if (!dir_bits_valid(header.dir_bits, key_bits))
        bad_index(path, strprintf("directory width %u out of range for a "
                                  "%u-bit key",
                                  header.dir_bits, key_bits));

    if (header.reserved_shard_bp != 0 || header.reserved_num_shards != 0 ||
        header.reserved_shard_dir != 0)
        bad_index(path, "reserved header fields are set (a sharded "
                        "layout, which this build no longer reads; "
                        "rebuild with darwin-wga-index)");

    // Four sections, in order, aligned.
    if (header.directory_offset != sizeof(IndexHeader) ||
        header.suffixes_offset !=
            align_section(header.directory_offset +
                          directory_bytes(header.dir_bits)) ||
        header.positions_offset !=
            align_section(header.suffixes_offset +
                          suffix_bytes(header.dir_bits, key_bits,
                                       header.num_positions)) ||
        header.repeats_offset !=
            align_section(header.positions_offset +
                          header.num_positions * 4))
        bad_index(path, "section offsets disagree with section sizes");
    const std::uint64_t sections_end =
        align_section(header.repeats_offset + header.truncated_buckets * 4);
    if (header.total_bytes < sections_end)
        bad_index(path, "sections extend past the end of the file");
    if (header.total_bytes < sections_end + sizeof(ChecksumTrailer))
        bad_index(path, "index carries no checksum trailer (rebuild with "
                        "darwin-wga-index)");
    return header;
}

/** One checksummed region: content bytes of a section. */
struct SectionSpan {
    const std::uint8_t* data;
    std::uint64_t bytes;
};

/** Locate the checksum trailer of a fully-mapped file whose sections
 *  end at `sections_end` and verify the header and per-section digests
 *  against it; fatal on a missing or malformed trailer or any mismatch
 *  (tagged "checksum"). */
void
verify_checksums(const std::string& path, const std::uint8_t* base,
                 std::uint64_t file_size, std::uint64_t sections_end,
                 const std::vector<SectionSpan>& sections)
{
    if (file_size < sections_end + sizeof(ChecksumTrailer))
        bad_index(path, "index carries no checksum trailer (rebuild with "
                        "darwin-wga-index)");
    ChecksumTrailer trailer;
    std::memcpy(&trailer, base + file_size - sizeof(ChecksumTrailer),
                sizeof(trailer));
    if (std::memcmp(trailer.magic, kIndexChecksumMagic,
                    sizeof(kIndexChecksumMagic)) != 0)
        bad_index(path, "file tail is not a checksum trailer (corrupt "
                        "or truncated checksum area)");
    if (trailer.version != kIndexChecksumVersion)
        bad_index(path, strprintf("unsupported checksum version %u",
                                  trailer.version));
    if (trailer.digests_offset < sections_end ||
        trailer.digests_offset % kIndexSectionAlign != 0 ||
        !fits(trailer.digests_offset,
              static_cast<std::uint64_t>(trailer.num_digests) * 8,
              file_size - sizeof(ChecksumTrailer)))
        bad_index(path, "checksum digest array falls outside the file");
    if (trailer.header_digest !=
        fnv1a64_bytes({base, sizeof(IndexHeader)}))
        bad_index(path, "header checksum mismatch (corrupt index?)");
    if (trailer.num_digests != sections.size())
        bad_index(path,
                  strprintf("checksum mismatch: trailer carries %u "
                            "section digests, layout has %zu sections",
                            trailer.num_digests, sections.size()));
    const auto* digests = reinterpret_cast<const std::uint64_t*>(
        base + trailer.digests_offset);
    for (std::size_t i = 0; i < sections.size(); ++i) {
        if (digests[i] !=
            fnv1a64_bytes({sections[i].data, sections[i].bytes}))
            bad_index(path,
                      strprintf("section %zu checksum mismatch "
                                "(corrupt index?)",
                                i));
    }
}

/**
 * The O(2^b) directory check every load runs before attach(): the
 * offsets start at 0, never decrease, and end at the position count,
 * so every lookup() slice lies inside the position (and suffix)
 * sections.
 */
void
check_directory(const std::string& path,
                std::span<const std::uint32_t> directory,
                std::uint64_t num_positions)
{
    if (directory.front() != 0)
        bad_index(path, "directory does not start at 0");
    for (std::size_t s = 1; s < directory.size(); ++s) {
        if (directory[s] < directory[s - 1])
            bad_index(path, strprintf("directory decreases at slice %zu "
                                      "(%u > %u)",
                                      s - 1, directory[s - 1],
                                      directory[s]));
    }
    if (directory.back() != num_positions)
        bad_index(path, "directory does not end at the position count");
}

template <class T>
std::span<const T>
section(const std::uint8_t* base, std::uint64_t offset, std::uint64_t count)
{
    return {reinterpret_cast<const T*>(base + offset),
            static_cast<std::size_t>(count)};
}

template <class T>
SectionSpan
checksummed(std::span<const T> s)
{
    return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size_bytes()};
}

void
write_padding(std::ofstream& out, std::uint64_t current,
              std::uint64_t target)
{
    static const char zeros[kIndexSectionAlign] = {};
    while (current < target) {
        const std::uint64_t n =
            std::min<std::uint64_t>(target - current, sizeof(zeros));
        out.write(zeros, static_cast<std::streamsize>(n));
        current += n;
    }
}

/** Appends 64-byte-aligned sections to an index file being written and
 *  records each one's content digest, in layout order. */
class SectionWriter {
  public:
    explicit SectionWriter(std::ofstream& out)
        : out_(out), cursor_(sizeof(IndexHeader))
    {
    }

    /** Pad to the next section boundary, write `s`, and return the
     *  section's file offset. */
    template <class T>
    std::uint64_t
    put(std::span<const T> s)
    {
        const std::uint64_t offset = align_section(cursor_);
        write_padding(out_, cursor_, offset);
        out_.write(reinterpret_cast<const char*>(s.data()),
                   static_cast<std::streamsize>(s.size_bytes()));
        digests_.push_back(fnv1a64_bytes(
            {reinterpret_cast<const std::uint8_t*>(s.data()),
             s.size_bytes()}));
        cursor_ = offset + s.size_bytes();
        return offset;
    }

    /** Pad to a boundary and append the digest array + trailer, after
     *  setting header.total_bytes and digesting the final header. */
    void
    finish(IndexHeader& header)
    {
        const std::uint64_t sections_end = align_section(cursor_);
        write_padding(out_, cursor_, sections_end);
        const std::uint64_t array_end = sections_end + digests_.size() * 8;
        const std::uint64_t trailer_offset = align_section(array_end);
        header.total_bytes = trailer_offset + sizeof(ChecksumTrailer);
        ChecksumTrailer trailer = {};
        std::memcpy(trailer.magic, kIndexChecksumMagic,
                    sizeof(kIndexChecksumMagic));
        trailer.version = kIndexChecksumVersion;
        trailer.num_digests = static_cast<std::uint32_t>(digests_.size());
        trailer.digests_offset = sections_end;
        trailer.header_digest = fnv1a64_bytes(
            {reinterpret_cast<const std::uint8_t*>(&header),
             sizeof(header)});
        out_.write(reinterpret_cast<const char*>(digests_.data()),
                   static_cast<std::streamsize>(digests_.size() * 8));
        write_padding(out_, array_end, trailer_offset);
        out_.write(reinterpret_cast<const char*>(&trailer), sizeof(trailer));
    }

  private:
    std::ofstream& out_;
    std::uint64_t cursor_;
    std::vector<std::uint64_t> digests_;
};

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

namespace {

/** mmap `path` read-only; fatal on any failure. */
std::shared_ptr<Mapping>
map_index_file(const std::string& path)
{
    fault::poll("index.mmap");
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0)
        fatal(strprintf("cannot open index %s: %s", path.c_str(),
                        std::strerror(errno)));
    struct stat st = {};
    if (::fstat(fd, &st) != 0) {
        const int err = errno;
        ::close(fd);
        fatal(strprintf("cannot stat index %s: %s", path.c_str(),
                        std::strerror(err)));
    }
    const auto file_size = static_cast<std::uint64_t>(st.st_size);
    if (file_size == 0) {
        ::close(fd);
        bad_index(path, "empty index file");
    }
    void* data = ::mmap(nullptr, file_size, PROT_READ, MAP_PRIVATE, fd, 0);
    const int map_err = errno;
    ::close(fd);  // the mapping keeps its own reference
    if (data == MAP_FAILED)
        fatal(strprintf("cannot mmap index %s: %s", path.c_str(),
                        std::strerror(map_err)));
    return std::make_shared<Mapping>(data, file_size);
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

seed::SeedPattern
parse_pattern(const std::string& path, const std::string& shape)
{
    try {
        return seed::SeedPattern{shape};
    } catch (const FatalError& e) {
        bad_index(path, strprintf("invalid seed shape: %s", e.what()));
    }
}

}  // namespace

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
    header.endian_tag = kIndexEndianTag;
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

    // Same-directory tmp + rename: a placeholder header, the sections,
    // the checksum area, then the final header patched in at offset 0.
    const std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::trunc | std::ios::binary);
        if (!out)
            fatal(strprintf("cannot write %s", tmp.c_str()));
        write_padding(out, 0, sizeof(IndexHeader));
        SectionWriter writer(out);
        header.directory_offset = writer.put(index.directory());
        header.suffixes_offset = writer.put(index.suffixes());
        header.positions_offset = writer.put(index.positions());
        header.repeats_offset = writer.put(index.repeat_keys());
        writer.finish(header);
        out.seekp(0);
        out.write(reinterpret_cast<const char*>(&header), sizeof(header));
        out.flush();
        if (!out)
            fatal(strprintf("error writing %s", tmp.c_str()));
    }
    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
        fatal(strprintf("cannot rename %s -> %s: %s", tmp.c_str(),
                        path.c_str(), ec.message().c_str()));
    }
}

std::shared_ptr<const seed::SeedIndex>
load_index(const std::string& path, IndexInfo* info)
{
    auto mapping = map_index_file(path);
    const std::uint64_t file_size = mapping->size();
    const std::uint8_t* base = mapping->bytes();

    const IndexHeader header = validate_header(path, base, file_size);
    seed::SeedPattern pattern = parse_pattern(
        path, std::string(header.pattern, header.pattern_length));

    const std::uint32_t key_bits = key_bits_of(header);
    const auto directory = section<std::uint32_t>(
        base, header.directory_offset,
        (std::uint64_t{1} << header.dir_bits) + 1);
    const auto suffixes = section<std::uint8_t>(
        base, header.suffixes_offset,
        suffix_bytes(header.dir_bits, key_bits, header.num_positions));
    const auto positions = section<std::uint32_t>(
        base, header.positions_offset, header.num_positions);
    const auto repeats = section<std::uint32_t>(
        base, header.repeats_offset, header.truncated_buckets);

    // Verify the checksums before a single section byte is trusted: a
    // torn write or bit flip fails loudly here instead of corrupting
    // alignments downstream. Then the directory, so a crafted file with
    // valid checksums still cannot steer lookup() out of bounds.
    verify_checksums(path, base, file_size,
                     align_section(header.repeats_offset +
                                   repeats.size_bytes()),
                     {checksummed(directory), checksummed(suffixes),
                      checksummed(positions), checksummed(repeats)});
    check_directory(path, directory, header.num_positions);

    if (info != nullptr)
        fill_info(info, header);
    return std::make_shared<seed::SeedIndex>(seed::SeedIndex::attach(
        std::move(pattern), header.max_bucket, header.dir_bits, directory,
        suffixes, positions, repeats, header.skipped_windows,
        std::move(mapping)));
}

IndexInfo
read_index_info(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        fatal(strprintf("cannot open index %s", path.c_str()));
    in.seekg(0, std::ios::end);
    const auto file_size = static_cast<std::uint64_t>(in.tellg());
    in.seekg(0);
    std::uint8_t bytes[sizeof(IndexHeader)] = {};
    in.read(reinterpret_cast<char*>(bytes),
            static_cast<std::streamsize>(
                std::min<std::uint64_t>(file_size, sizeof(bytes))));
    const IndexHeader header = validate_header(path, bytes, file_size);
    IndexInfo info;
    fill_info(&info, header);
    return info;
}

bool
is_index_file(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    char magic[sizeof(kIndexMagic)] = {};
    in.read(magic, sizeof(magic));
    return in.gcount() == sizeof(magic) &&
           std::memcmp(magic, kIndexMagic, sizeof(magic)) == 0;
}

}  // namespace darwin::index
