/**
 * @file
 * The one on-disk artifact container, shared by the `.dwi` reference
 * index (index/format.h) and the `.2bit` packed-genome sidecar
 * (seq/packed_io.h). A format layer supplies its header struct and a
 * Format descriptor; the container owns everything else:
 *
 *     [header]           the format's struct, at offset 0; it starts
 *                        with magic[8], version u32, endian tag u32 and
 *                        records total_bytes (the exact file size)
 *     [section 0 ...]    content bytes, each 64-byte aligned, zero
 *                        padding between them
 *     [digest array]     one fnv1a64 per section, in write order,
 *                        64-byte aligned
 *     [ChecksumTrailer]  the last 64 bytes of the file
 *
 * Writer appends the sections to `<path>.tmp`, taking each section's
 * digest as it is written, then the digest array and trailer, patches
 * the final header in at offset 0 and publishes with write_atomic's
 * rename, so readers never see a torn file. Reader maps a file once and
 * checks, in this order and before any section byte is read: the
 * prefix (size, magic, endian tag, version, total_bytes), then — after
 * the format has validated its own header — the trailer and header
 * digest, then each section's bounds (overflow-safe, inside
 * [header, digest array)) and digest as the format asks for it. Every
 * failure is a FatalError tagged with the path and naming the check.
 *
 * All integers are little-endian: the endian tag is checked, never
 * swapped.
 */
#ifndef DARWIN_UTIL_ARTIFACT_H
#define DARWIN_UTIL_ARTIFACT_H

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <initializer_list>
#include <memory>
#include <ostream>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

namespace darwin::artifact {

/** Written natively; a reader seeing any other value is on a host with
 *  a different byte order than the writer. */
inline constexpr std::uint32_t kEndianTag = 0x1a2b3c4dU;

/** Every section, the digest array and the trailer start on this
 *  alignment. */
inline constexpr std::uint64_t kSectionAlign = 64;

/** Round a byte offset up to the section alignment. */
constexpr std::uint64_t
align_section(std::uint64_t offset)
{
    return (offset + kSectionAlign - 1) & ~(kSectionAlign - 1);
}

/** True when `count` elements of `size` bytes starting at `offset` lie
 *  below `limit`, without overflowing on crafted values. */
constexpr bool
fits(std::uint64_t offset, std::uint64_t count, std::uint64_t size,
     std::uint64_t limit)
{
    return offset <= limit && count <= (limit - offset) / size;
}

/** Magic of the checksum trailer ("DWCSUM" + 2 NULs). */
inline constexpr char kChecksumMagic[8] = {'D', 'W', 'C', 'S',
                                           'U', 'M', '\0', '\0'};

inline constexpr std::uint32_t kChecksumVersion = 1;

/** The last 64 bytes of every artifact. */
struct ChecksumTrailer {
    char magic[8];                 ///< kChecksumMagic
    std::uint32_t version;         ///< kChecksumVersion
    std::uint32_t num_digests;     ///< entries in the digest array
    std::uint64_t digests_offset;  ///< absolute offset of the array
    std::uint64_t header_digest;   ///< fnv1a64 over the header bytes
    char reserved[32];             ///< zero; future use
};

static_assert(sizeof(ChecksumTrailer) == 64,
              "ChecksumTrailer layout is part of the on-disk format");
static_assert(std::is_trivially_copyable_v<ChecksumTrailer>,
              "ChecksumTrailer must be memcpy-safe");

/** What the container needs to know about one artifact format. */
struct Format {
    const char* kind;      ///< "index", "packed genome": in every message
    const char* magic;     ///< the first 8 bytes of every file
    std::uint32_t version; ///< the one version written and read
    std::size_t header_bytes;        ///< sizeof the header struct
    std::size_t total_bytes_offset;  ///< offsetof(header, total_bytes)
    const char* rebuild;   ///< how to replace a refused file
};

/** RAII owner of one read-only mapping; the shared_ptr keepalive that
 *  zero-copy views over the file hold. */
class Mapping {
  public:
    Mapping(void* data, std::size_t size) : data_(data), size_(size) {}
    ~Mapping();

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

/** mmap `path` read-only; fatal on any failure. `what` names the file
 *  kind in the message ("index", "fasta", ...). */
std::shared_ptr<const Mapping> map_file(const std::string& path,
                                        const char* what);

/** The one of `formats` whose magic `path` starts with; nullptr when
 *  none does or the file cannot be read. */
const Format* sniff(const std::string& path,
                    std::initializer_list<const Format*> formats);

/**
 * Write `path` atomically: `write` fills a same-directory `<path>.tmp`,
 * which is then renamed over `path`. FatalError on any I/O failure.
 */
void write_atomic(const std::string& path,
                  const std::function<void(std::ostream&)>& write);

/** Appends sections to an artifact stream (see the file comment). */
class Writer {
  public:
    /** Reserves the header bytes; `out` must be seekable. */
    Writer(std::ostream& out, const Format& format);

    /** Pad to the next section boundary, write `s`, record its digest,
     *  and return the section's file offset. */
    template <class T>
    std::uint64_t
    put(std::span<const T> s)
    {
        return put_bytes(s.data(), s.size_bytes());
    }

    /** Append the digest array and trailer, set the header's
     *  total_bytes, and write the header at offset 0. */
    template <class Header>
    void
    finish(Header& header)
    {
        static_assert(std::is_trivially_copyable_v<Header>);
        finish_bytes(reinterpret_cast<std::uint8_t*>(&header),
                     sizeof(header));
    }

  private:
    std::uint64_t put_bytes(const void* data, std::uint64_t bytes);
    void finish_bytes(std::uint8_t* header, std::size_t size);

    std::ostream& out_;
    const Format& format_;
    std::uint64_t cursor_;
    std::vector<std::uint64_t> digests_;
};

/** A mapped artifact whose prefix has been checked (see the file
 *  comment for the order of the checks). */
class Reader {
  public:
    Reader(const std::string& path, const Format& format);

    /** The header bytes as the format's struct. */
    template <class Header>
    Header
    header() const
    {
        static_assert(std::is_trivially_copyable_v<Header>);
        Header header;
        std::memcpy(&header, bytes(), sizeof(header));
        return header;
    }

    /** Check the trailer, the header digest, and that the trailer
     *  carries exactly `num_sections` section digests. */
    void check_trailer(std::uint64_t num_sections);

    /** Section `i`: `count` T at `offset`, which must be aligned and lie
     *  between the header and the digest array, with its digest intact.
     *  `what` names the section in the message. */
    template <class T>
    std::span<const T>
    section(std::size_t i, std::uint64_t offset, std::uint64_t count,
            const std::string& what) const
    {
        check_section(i, offset, count, sizeof(T), what);
        return {reinterpret_cast<const T*>(bytes() + offset),
                static_cast<std::size_t>(count)};
    }

    /** FatalError "<path>: <what>". */
    [[noreturn]] void fail(const std::string& what) const;

    std::uint64_t size() const { return mapping_->size(); }
    const std::shared_ptr<const Mapping>& mapping() const
    {
        return mapping_;
    }

  private:
    const std::uint8_t* bytes() const { return mapping_->bytes(); }

    void check_section(std::size_t i, std::uint64_t offset,
                       std::uint64_t count, std::uint64_t size,
                       const std::string& what) const;

    std::string path_;
    const Format& format_;
    std::shared_ptr<const Mapping> mapping_;
    ChecksumTrailer trailer_ = {};
};

}  // namespace darwin::artifact

#endif  // DARWIN_UTIL_ARTIFACT_H
