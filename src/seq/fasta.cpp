#include "seq/fasta.h"

#include <array>
#include <cctype>
#include <cstring>
#include <fstream>
#include <ostream>

#include "seq/alphabet.h"
#include "util/artifact.h"
#include "util/logging.h"
#include "util/strings.h"

namespace darwin::seq {

namespace {

/** What a byte of sequence data is: a base code below kNumCodes, or one
 *  of these. */
constexpr std::uint8_t kSkip = 0xff;       ///< whitespace
constexpr std::uint8_t kNotLetter = 0xfe;  ///< "invalid character"
constexpr std::uint8_t kNotIupac = 0xfd;   ///< a letter, no nucleotide

std::array<std::uint8_t, 256>
byte_classes()
{
    std::array<std::uint8_t, 256> classes{};
    for (int b = 0; b < 256; ++b) {
        const char c = static_cast<char>(b);
        classes[b] = std::isspace(b)    ? kSkip
                     : !std::isalpha(b) ? kNotLetter
                     : !is_iupac(c)     ? kNotIupac
                                        : encode_base(c);
    }
    return classes;
}

/** Builds byte-per-base chromosomes. */
struct ByteSink {
    Genome& genome;
    std::vector<std::uint8_t> codes;

    void
    append(std::span<const std::uint8_t> line)
    {
        codes.insert(codes.end(), line.begin(), line.end());
    }

    void
    finish(std::string name)
    {
        genome.add_chromosome(Sequence(std::move(name), std::move(codes)));
        codes = {};
    }
};

/** Packs chromosomes as they are read: no byte-per-base copy exists. */
struct PackedSink {
    Genome& genome;
    PackedSequence current;

    void
    append(std::span<const std::uint8_t> line)
    {
        current.append_codes(line);
    }

    void
    finish(std::string name)
    {
        current.set_name(std::move(name));
        genome.add_chromosome(std::move(current));
        current = PackedSequence();
    }
};

/** The one FASTA loop (see the file comment for its rules). The sink
 *  takes each line's base codes and each finished record's name. */
template <class Sink>
void
tokenize(std::span<const std::uint8_t> fasta, const std::string& where,
         Sink& sink)
{
    static const auto classes = byte_classes();
    std::vector<std::uint8_t> codes;  // one line's bases
    std::string name;
    bool in_record = false;
    std::size_t record_bases = 0;
    std::size_t records = 0;
    std::size_t header_line = 0;
    std::size_t line_no = 0;

    const auto flush = [&] {
        if (!in_record)
            return;
        if (record_bases == 0) {
            fatal(strprintf("%s:%zu: record '%s' has no sequence data "
                            "(empty or truncated record)",
                            where.c_str(), header_line, name.c_str()));
        }
        sink.finish(std::move(name));
        record_bases = 0;
        ++records;
    };

    const std::uint8_t* pos = fasta.data();
    const std::uint8_t* const end = pos + fasta.size();
    while (pos < end) {
        ++line_no;
        const auto* newline = static_cast<const std::uint8_t*>(
            std::memchr(pos, '\n', static_cast<std::size_t>(end - pos)));
        const std::uint8_t* line = pos;
        const std::uint8_t* line_end = newline ? newline : end;
        pos = newline ? newline + 1 : end;
        if (line_end > line && line_end[-1] == '\r')
            --line_end;
        if (line == line_end || *line == ';')
            continue;
        if (*line == '>') {
            flush();
            // The name is the first whitespace-delimited token.
            const std::uint8_t* first = line + 1;
            while (first < line_end && std::isspace(*first))
                ++first;
            const std::uint8_t* last = first;
            while (last < line_end && !std::isspace(*last))
                ++last;
            if (first == last)
                fatal(strprintf("%s:%zu: empty record name",
                                where.c_str(), line_no));
            name.assign(first, last);
            header_line = line_no;
            in_record = true;
            continue;
        }
        if (!in_record) {
            fatal(strprintf("%s:%zu: sequence data before first '>' header",
                            where.c_str(), line_no));
        }
        codes.resize(static_cast<std::size_t>(line_end - line));
        std::size_t n = 0;
        for (const std::uint8_t* p = line; p < line_end; ++p) {
            const std::uint8_t code = classes[*p];
            if (code < kNumCodes) {
                codes[n++] = code;
            } else if (code == kNotLetter) {
                fatal(strprintf("%s:%zu: invalid character '%c'",
                                where.c_str(), line_no, *p));
            } else if (code == kNotIupac) {
                fatal(strprintf("%s:%zu: '%c' is not an IUPAC nucleotide "
                                "code (corrupt or non-DNA file?)",
                                where.c_str(), line_no, *p));
            }
        }
        sink.append({codes.data(), n});
        record_bases += n;
    }
    flush();
    if (records == 0)
        fatal("fasta: no records in file: " + where);
}

}  // namespace

Genome
parse_fasta(std::span<const std::uint8_t> fasta, const std::string& where,
            GenomeStorage storage)
{
    Genome genome(where);
    if (storage == GenomeStorage::Packed) {
        PackedSink sink{genome, {}};
        tokenize(fasta, where, sink);
    } else {
        ByteSink sink{genome, {}};
        tokenize(fasta, where, sink);
    }
    return genome;
}

Genome
read_genome(const std::string& path)
{
    const auto fasta = artifact::map_file(path, "fasta");
    return parse_fasta({fasta->bytes(), fasta->size()}, path,
                       GenomeStorage::Bytes);
}

void
write_fasta(std::ostream& out, const std::vector<Sequence>& records,
            std::size_t line_width)
{
    require(line_width > 0, "write_fasta: line width must be positive");
    for (const auto& record : records) {
        out << '>' << record.name() << '\n';
        const std::string bases = record.to_string();
        for (std::size_t pos = 0; pos < bases.size(); pos += line_width) {
            out << bases.substr(pos, line_width) << '\n';
        }
    }
}

void
write_genome_file(const std::string& path, const Genome& genome,
                  std::size_t line_width)
{
    std::ofstream out(path);
    if (!out)
        fatal("fasta: cannot write file: " + path);
    write_fasta(out, genome.chromosomes(), line_width);
}

}  // namespace darwin::seq
