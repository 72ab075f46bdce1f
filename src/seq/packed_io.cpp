#include "seq/packed_io.h"

#include <cstring>
#include <span>
#include <vector>

#include "seq/fasta.h"
#include "util/artifact.h"
#include "util/digest.h"
#include "util/logging.h"
#include "util/strings.h"

namespace darwin::seq {

void
save_packed_genome(const std::string& path, const Genome& genome,
                   std::uint64_t fasta_digest)
{
    require(genome.packed(), "save_packed_genome: genome is not packed");
    const std::size_t n = genome.num_chromosomes();

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
            const PackedSequence& chrom = genome.packed_chromosome(i);
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
read_genome_packed(const std::string& fasta_path)
{
    const auto fasta = artifact::map_file(fasta_path, "fasta");
    const std::span<const std::uint8_t> bytes(fasta->bytes(), fasta->size());
    const std::uint64_t digest = fnv1a64_bytes(bytes);
    const std::string sidecar = fasta_path + ".2bit";

    if (artifact::sniff(sidecar, {&kPackedFormat})) {
        try {
            Genome genome = load_packed_genome(sidecar, digest);
            genome.set_name(fasta_path);
            debug(strprintf("reusing packed sidecar %s", sidecar.c_str()));
            return genome;
        } catch (const FatalError& e) {
            warn(strprintf("rebuilding packed sidecar %s: %s",
                           sidecar.c_str(), e.what()));
        }
    }

    Genome genome = parse_fasta(bytes, fasta_path, GenomeStorage::Packed);
    try {
        save_packed_genome(sidecar, genome, digest);
    } catch (const FatalError& e) {
        // A read-only FASTA directory only costs us the cache.
        warn(strprintf("cannot write packed sidecar %s: %s",
                       sidecar.c_str(), e.what()));
    }
    return genome;
}

}  // namespace darwin::seq
