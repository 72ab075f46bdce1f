#include "util/artifact.h"

#include <algorithm>
#include <cerrno>
#include <filesystem>
#include <fstream>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "util/digest.h"
#include "util/logging.h"
#include "util/strings.h"

namespace darwin::artifact {

namespace {

/** Prefix every artifact header starts with. */
struct Prefix {
    char magic[8];
    std::uint32_t version;
    std::uint32_t endian_tag;
};

void
write_padding(std::ostream& out, std::uint64_t current, std::uint64_t target)
{
    static const char zeros[kSectionAlign] = {};
    while (current < target) {
        const std::uint64_t n =
            std::min<std::uint64_t>(target - current, sizeof(zeros));
        out.write(zeros, static_cast<std::streamsize>(n));
        current += n;
    }
}

}  // namespace

Mapping::~Mapping()
{
    if (data_ != nullptr)
        ::munmap(data_, size_);
}

std::shared_ptr<const Mapping>
map_file(const std::string& path, const char* what)
{
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0)
        fatal(strprintf("cannot open %s %s: %s", what, path.c_str(),
                        std::strerror(errno)));
    struct stat st = {};
    if (::fstat(fd, &st) != 0) {
        const int err = errno;
        ::close(fd);
        fatal(strprintf("cannot stat %s %s: %s", what, path.c_str(),
                        std::strerror(err)));
    }
    const auto file_size = static_cast<std::size_t>(st.st_size);
    if (file_size == 0) {
        ::close(fd);
        fatal(strprintf("%s: empty %s file", path.c_str(), what));
    }
    void* data = ::mmap(nullptr, file_size, PROT_READ, MAP_PRIVATE, fd, 0);
    const int map_err = errno;
    ::close(fd);  // the mapping keeps its own reference
    if (data == MAP_FAILED)
        fatal(strprintf("cannot mmap %s %s: %s", what, path.c_str(),
                        std::strerror(map_err)));
    return std::make_shared<const Mapping>(data, file_size);
}

const Format*
sniff(const std::string& path, std::initializer_list<const Format*> formats)
{
    std::ifstream in(path, std::ios::binary);
    char magic[8] = {};
    if (!in.read(magic, sizeof(magic)))
        return nullptr;
    for (const Format* format : formats) {
        if (std::memcmp(magic, format->magic, sizeof(magic)) == 0)
            return format;
    }
    return nullptr;
}

void
write_atomic(const std::string& path,
             const std::function<void(std::ostream&)>& write)
{
    const std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::trunc | std::ios::binary);
        if (!out)
            fatal(strprintf("cannot write %s", tmp.c_str()));
        write(out);
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

Writer::Writer(std::ostream& out, const Format& format)
    : out_(out), format_(format), cursor_(format.header_bytes)
{
    write_padding(out_, 0, cursor_);
}

std::uint64_t
Writer::put_bytes(const void* data, std::uint64_t bytes)
{
    const std::uint64_t offset = align_section(cursor_);
    write_padding(out_, cursor_, offset);
    out_.write(static_cast<const char*>(data),
               static_cast<std::streamsize>(bytes));
    digests_.push_back(
        fnv1a64_bytes({static_cast<const std::uint8_t*>(data), bytes}));
    cursor_ = offset + bytes;
    return offset;
}

void
Writer::finish_bytes(std::uint8_t* header, std::size_t size)
{
    const std::uint64_t digests_offset = align_section(cursor_);
    write_padding(out_, cursor_, digests_offset);
    const std::uint64_t array_end = digests_offset + digests_.size() * 8;
    const std::uint64_t trailer_offset = align_section(array_end);
    const std::uint64_t total_bytes = trailer_offset + sizeof(ChecksumTrailer);
    std::memcpy(header + format_.total_bytes_offset, &total_bytes,
                sizeof(total_bytes));
    ChecksumTrailer trailer = {};
    std::memcpy(trailer.magic, kChecksumMagic, sizeof(kChecksumMagic));
    trailer.version = kChecksumVersion;
    trailer.num_digests = static_cast<std::uint32_t>(digests_.size());
    trailer.digests_offset = digests_offset;
    trailer.header_digest = fnv1a64_bytes({header, size});
    out_.write(reinterpret_cast<const char*>(digests_.data()),
               static_cast<std::streamsize>(digests_.size() * 8));
    write_padding(out_, array_end, trailer_offset);
    out_.write(reinterpret_cast<const char*>(&trailer), sizeof(trailer));
    out_.seekp(0);
    out_.write(reinterpret_cast<const char*>(header),
               static_cast<std::streamsize>(size));
}

Reader::Reader(const std::string& path, const Format& format)
    : path_(path), format_(format), mapping_(map_file(path, format.kind))
{
    const char* kind = format.kind;
    if (size() < format.header_bytes)
        fail(strprintf("truncated %s header (%llu bytes, need %zu)", kind,
                       static_cast<unsigned long long>(size()),
                       format.header_bytes));
    Prefix prefix;
    std::memcpy(&prefix, bytes(), sizeof(prefix));
    if (std::memcmp(prefix.magic, format.magic, sizeof(prefix.magic)) != 0)
        fail(strprintf("not a darwin-wga %s file (bad magic)", kind));
    if (prefix.endian_tag != kEndianTag)
        fail(strprintf("%s was written with a different byte order", kind));
    if (prefix.version != format.version)
        fail(strprintf("unsupported %s format version %u (this build "
                       "reads version %u; %s)",
                       kind, prefix.version, format.version,
                       format.rebuild));
    std::uint64_t total_bytes = 0;
    std::memcpy(&total_bytes, bytes() + format.total_bytes_offset,
                sizeof(total_bytes));
    if (total_bytes != size())
        fail(strprintf("truncated or padded %s file (header records %llu "
                       "bytes, file has %llu)",
                       kind, static_cast<unsigned long long>(total_bytes),
                       static_cast<unsigned long long>(size())));
}

void
Reader::check_trailer(std::uint64_t num_sections)
{
    const char* kind = format_.kind;
    if (size() >= format_.header_bytes + sizeof(ChecksumTrailer))
        std::memcpy(&trailer_, bytes() + size() - sizeof(ChecksumTrailer),
                    sizeof(trailer_));
    if (std::memcmp(trailer_.magic, kChecksumMagic,
                    sizeof(kChecksumMagic)) != 0)
        fail(strprintf("%s carries no checksum trailer (%s)", kind,
                       format_.rebuild));
    if (trailer_.version != kChecksumVersion)
        fail(strprintf("unsupported checksum version %u", trailer_.version));
    if (trailer_.digests_offset < format_.header_bytes ||
        trailer_.digests_offset % kSectionAlign != 0 ||
        !fits(trailer_.digests_offset, trailer_.num_digests, 8,
              size() - sizeof(ChecksumTrailer)))
        fail("checksum digest array falls outside the file");
    if (trailer_.header_digest !=
        fnv1a64_bytes({bytes(), format_.header_bytes}))
        fail(strprintf("header checksum mismatch (corrupt %s?)", kind));
    if (trailer_.num_digests != num_sections)
        fail(strprintf("checksum mismatch: trailer carries %u section "
                       "digests, layout has %llu sections",
                       trailer_.num_digests,
                       static_cast<unsigned long long>(num_sections)));
}

void
Reader::check_section(std::size_t i, std::uint64_t offset,
                      std::uint64_t count, std::uint64_t size,
                      const std::string& what) const
{
    if (i >= trailer_.num_digests)
        fail(strprintf("%s is not a checksummed section", what.c_str()));
    if (offset < format_.header_bytes || offset % kSectionAlign != 0 ||
        !fits(offset, count, size, trailer_.digests_offset))
        fail(strprintf("%s is misaligned or falls outside the file's "
                       "sections",
                       what.c_str()));
    std::uint64_t digest = 0;
    std::memcpy(&digest, bytes() + trailer_.digests_offset + i * 8,
                sizeof(digest));
    if (digest != fnv1a64_bytes({bytes() + offset, count * size}))
        fail(strprintf("section %zu (%s) checksum mismatch (corrupt %s?)",
                       i, what.c_str(), format_.kind));
}

void
Reader::fail(const std::string& what) const
{
    fatal(strprintf("%s: %s", path_.c_str(), what.c_str()));
}

}  // namespace darwin::artifact
