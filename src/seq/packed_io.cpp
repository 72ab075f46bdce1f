#include "seq/packed_io.h"

#include <cctype>
#include <cstring>
#include <span>
#include <vector>

#include "seq/alphabet.h"
#include "util/artifact.h"
#include "util/digest.h"
#include "util/logging.h"
#include "util/strings.h"

namespace darwin::seq {

namespace {

/**
 * Parse mmap'd FASTA bytes straight into packed chromosomes — same
 * acceptance rules and diagnostics as seq/fasta.cpp's read_fasta, but
 * no byte-per-base intermediate is ever allocated.
 */
Genome
parse_fasta_packed(const std::uint8_t* data, std::size_t size,
                   const std::string& where, const std::string& name)
{
    Genome genome(name);
    PackedSequence current;
    std::string current_name;
    bool in_record = false;
    std::size_t header_line = 0;
    std::size_t line_no = 0;
    std::size_t pos = 0;

    auto flush = [&] {
        if (!in_record)
            return;
        if (current.empty()) {
            fatal(strprintf("%s:%zu: record '%s' has no sequence data "
                            "(empty or truncated record)",
                            where.c_str(), header_line,
                            current_name.c_str()));
        }
        current.set_name(current_name);
        genome.add_chromosome(std::move(current));
        current = PackedSequence();
    };

    while (pos < size) {
        ++line_no;
        std::size_t end = pos;
        while (end < size && data[end] != '\n')
            ++end;
        std::size_t line_end = end;
        if (line_end > pos && data[line_end - 1] == '\r')
            --line_end;
        const char* line = reinterpret_cast<const char*>(data + pos);
        const std::size_t len = line_end - pos;
        pos = (end < size) ? end + 1 : end;
        if (len == 0 || line[0] == ';')
            continue;
        if (line[0] == '>') {
            flush();
            std::string header = trim(std::string(line + 1, len - 1));
            const auto space = header.find_first_of(" \t");
            if (space != std::string::npos)
                header = header.substr(0, space);
            if (header.empty())
                fatal(strprintf("%s:%zu: empty record name",
                                where.c_str(), line_no));
            current_name = std::move(header);
            header_line = line_no;
            in_record = true;
            continue;
        }
        if (!in_record) {
            fatal(strprintf("%s:%zu: sequence data before first '>' header",
                            where.c_str(), line_no));
        }
        for (std::size_t i = 0; i < len; ++i) {
            const char c = line[i];
            if (std::isspace(static_cast<unsigned char>(c)))
                continue;
            if (!std::isalpha(static_cast<unsigned char>(c))) {
                fatal(strprintf("%s:%zu: invalid character '%c'",
                                where.c_str(), line_no, c));
            }
            if (!is_iupac(c)) {
                fatal(strprintf("%s:%zu: '%c' is not an IUPAC nucleotide "
                                "code (corrupt or non-DNA file?)",
                                where.c_str(), line_no, c));
            }
            current.append_code(encode_base(c));
        }
    }
    flush();
    if (genome.num_chromosomes() == 0)
        fatal("fasta: no records in file: " + where);
    return genome;
}

}  // namespace

void
save_packed_genome(const std::string& path, const Genome& genome,
                   std::uint64_t fasta_digest)
{
    const std::size_t n = genome.num_chromosomes();

    // Byte-mode genomes are packed chromosome-at-a-time on the fly;
    // packed genomes write their words directly.
    std::vector<PackedSequence> transient;
    const auto packed_of = [&](std::size_t i) -> const PackedSequence& {
        if (genome.packed())
            return genome.packed_chromosome(i);
        return transient[i];
    };
    if (!genome.packed()) {
        transient.reserve(n);
        for (std::size_t i = 0; i < n; ++i)
            transient.push_back(PackedSequence::pack(genome.chromosome(i)));
    }

    PackedHeader header = {};
    std::memcpy(header.magic, kPackedMagic, sizeof(kPackedMagic));
    header.version = kPackedFormatVersion;
    header.endian_tag = artifact::kEndianTag;
    header.fasta_digest = fasta_digest;
    header.num_chromosomes = n;
    header.total_bases = genome.total_length();
    header.genome_name_offset = 0;
    header.genome_name_length = genome.name().size();

    std::string names = genome.name();
    std::vector<PackedChromEntry> dir(n);
    artifact::write_atomic(path, [&](std::ostream& out) {
        artifact::Writer writer(out, kPackedFormat);
        for (std::size_t i = 0; i < n; ++i) {
            const PackedSequence& chrom = packed_of(i);
            dir[i].name_offset = names.size();
            dir[i].name_length = genome.chromosome_name(i).size();
            dir[i].num_bases = chrom.size();
            names += genome.chromosome_name(i);
            dir[i].base_words_offset = writer.put(
                std::span(chrom.base_words(), chrom.num_base_words()));
            dir[i].n_words_offset =
                writer.put(std::span(chrom.n_words(), chrom.num_n_words()));
        }
        header.names_offset = writer.put(std::span<const char>(names));
        header.names_bytes = names.size();
        header.dir_offset = writer.put(std::span<const PackedChromEntry>(dir));
        writer.finish(header);
    });
}

Genome
load_packed_genome(const std::string& path, std::uint64_t expected_digest)
{
    artifact::Reader file(path, kPackedFormat);
    const auto header = file.header<PackedHeader>();
    const std::uint64_t n = header.num_chromosomes;
    if (n == 0)
        file.fail("packed genome has no chromosomes");
    // Bound the directory by the file before any count derived from it
    // is used: a crafted count times the entry size must not wrap.
    if (!artifact::fits(0, n, sizeof(PackedChromEntry), file.size()))
        file.fail(strprintf("chromosome directory of %llu entries falls "
                            "outside the file",
                            static_cast<unsigned long long>(n)));
    file.check_trailer(2 * n + 2);
    if (expected_digest != 0 && header.fasta_digest != expected_digest)
        file.fail(strprintf("stale sidecar: FASTA digest %s does not "
                            "match expected %s",
                            digest_hex(header.fasta_digest).c_str(),
                            digest_hex(expected_digest).c_str()));

    const auto dir = file.section<PackedChromEntry>(
        2 * n + 1, header.dir_offset, n, "chromosome directory");
    const auto names = file.section<char>(2 * n, header.names_offset,
                                          header.names_bytes, "name blob");
    const auto name_at = [&](std::uint64_t offset, std::uint64_t length,
                             const std::string& what) {
        if (!artifact::fits(offset, length, 1, names.size()))
            file.fail(what + " name falls outside the name blob");
        return std::string(names.data() + offset, length);
    };
    Genome genome(name_at(header.genome_name_offset,
                          header.genome_name_length, "genome"));

    std::uint64_t total_bases = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
        const PackedChromEntry& entry = dir[i];
        const std::string what =
            strprintf("chromosome %llu", static_cast<unsigned long long>(i));
        // 32 bases per 8-byte word: a longer chromosome cannot fit, and
        // the word counts below cannot overflow.
        if (entry.num_bases / 32 >= file.size())
            file.fail(what + " is longer than the file can hold");
        const auto base_words = file.section<std::uint64_t>(
            2 * i, entry.base_words_offset,
            PackedSequence::base_word_count(entry.num_bases),
            what + " base words");
        const auto n_words = file.section<std::uint64_t>(
            2 * i + 1, entry.n_words_offset,
            PackedSequence::n_word_count(entry.num_bases),
            what + " n-mask words");
        total_bases += entry.num_bases;
        genome.add_chromosome(PackedSequence::attach(
            name_at(entry.name_offset, entry.name_length, what),
            entry.num_bases, base_words.data(), n_words.data(),
            file.mapping()));
    }
    if (total_bases != header.total_bases)
        file.fail("chromosome lengths disagree with the header's "
                  "total_bases");
    return genome;
}

Genome
read_genome_packed(const std::string& fasta_path, const std::string& name,
                   const std::string& sidecar_path)
{
    const auto fasta = artifact::map_file(fasta_path, "fasta");
    const std::uint64_t digest =
        fnv1a64_bytes({fasta->bytes(), fasta->size()});
    const std::string genome_name = name.empty() ? fasta_path : name;

    std::string sidecar;
    if (sidecar_path == "auto")
        sidecar = fasta_path + ".2bit";
    else
        sidecar = sidecar_path;

    if (!sidecar.empty() && artifact::sniff(sidecar, {&kPackedFormat})) {
        try {
            Genome genome = load_packed_genome(sidecar, digest);
            genome.set_name(genome_name);
            debug(strprintf("reusing packed sidecar %s", sidecar.c_str()));
            return genome;
        } catch (const FatalError& e) {
            warn(strprintf("rebuilding packed sidecar %s: %s",
                           sidecar.c_str(), e.what()));
        }
    }

    Genome genome = parse_fasta_packed(fasta->bytes(), fasta->size(),
                                       fasta_path, genome_name);
    if (!sidecar.empty()) {
        try {
            save_packed_genome(sidecar, genome, digest);
        } catch (const FatalError& e) {
            // A read-only FASTA directory only costs us the cache.
            warn(strprintf("cannot write packed sidecar %s: %s",
                           sidecar.c_str(), e.what()));
        }
    }
    return genome;
}

}  // namespace darwin::seq
