/**
 * @file
 * Crash-safety artifact integrity tests: the checksum area the artifact
 * container (util/artifact.h) appends to `.dwi` and `.2bit` files and
 * requires on load, crafted `.dwi` tables with valid checksums but
 * inconsistent sections, the refusal and rebuild of version-1 and
 * zero-digest sidecars, and the `darwin-wga-index fsck` validator over
 * every artifact kind.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <functional>
#include <fstream>
#include <string>
#include <vector>

#include "batch/checkpoint.h"
#include "fault/fault_plan.h"
#include "index/format.h"
#include "index/fsck.h"
#include "index/index_io.h"
#include "seed/seed_index.h"
#include "seq/packed_io.h"
#include "seq/packed_sequence.h"
#include "seq/sequence.h"
#include "util/artifact.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/strings.h"
#include "wga/params.h"
#include "artifact_craft.h"
#include "scratch_dir.h"

namespace darwin::index {
namespace {

/** A file in this process's scratch directory, removed at exit. */
std::string
temp_path(const std::string& name)
{
    static const test::ScratchDir dir("integrity");
    return dir.file(name);
}

seq::Sequence
random_sequence(std::size_t len, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::uint8_t> codes(len);
    for (auto& c : codes)
        c = static_cast<std::uint8_t>(rng.uniform(4));
    return seq::Sequence("rand", std::move(codes));
}

std::vector<char>
slurp(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

void
spit(const std::string& path, const std::vector<char>& bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/** Copy `src` with one byte at `offset` XOR-flipped. */
std::string
flip_byte(const std::string& src, const std::string& name,
          std::size_t offset)
{
    std::vector<char> bytes = slurp(src);
    EXPECT_LT(offset, bytes.size());
    bytes[offset] = static_cast<char>(bytes[offset] ^ 0x40);
    const std::string path = temp_path(name);
    spit(path, bytes);
    return path;
}

/** Write a monolithic index for a deterministic sequence. */
std::string
write_index(const std::string& name, const seq::Sequence& sequence)
{
    const std::string path = temp_path(name);
    const wga::WgaParams params = wga::WgaParams::darwin_defaults();
    const seed::SeedIndex index(sequence,
                                seed::SeedPattern(params.seed_pattern));
    save_index(path, index, sequence_digest(sequence), sequence.size());
    return path;
}

TEST(Checksums, FreshIndexCarriesATrailerAndLoads)
{
    const auto sequence = random_sequence(4096, 11);
    const std::string path = write_index("fresh.dwi", sequence);

    const IndexInfo info = read_index_info(path);
    const std::vector<char> bytes = slurp(path);
    ASSERT_EQ(bytes.size(), info.total_bytes);
    // The last 64 bytes are a checksum trailer with the right magic.
    artifact::ChecksumTrailer trailer;
    std::memcpy(&trailer, bytes.data() + bytes.size() - sizeof(trailer),
                sizeof(trailer));
    EXPECT_EQ(std::memcmp(trailer.magic, artifact::kChecksumMagic,
                          sizeof(artifact::kChecksumMagic)),
              0);
    EXPECT_EQ(trailer.num_digests, 4u);

    const auto index = load_index(path);
    EXPECT_GT(index->positions().size(), 0u);
}

TEST(Checksums, CorruptSectionByteIsRejected)
{
    const auto sequence = random_sequence(4096, 12);
    const std::string path = write_index("flip_section.dwi", sequence);
    const IndexInfo info = read_index_info(path);

    // Flip one byte in the middle of the positions section; the header
    // still validates, so only the digest pass can catch this.
    const std::vector<char> bytes = slurp(path);
    IndexHeader header;
    std::memcpy(&header, bytes.data(), sizeof(header));
    const std::string corrupt = flip_byte(
        path, "flip_section_corrupt.dwi",
        header.positions_offset + (info.num_positions / 2) * 4);
    try {
        load_index(corrupt);
        FAIL() << "corrupt section must not load";
    } catch (const FatalError& e) {
        EXPECT_NE(std::string(e.what()).find("checksum mismatch"),
                  std::string::npos)
            << e.what();
    }
}

TEST(Checksums, CorruptHeaderByteIsRejected)
{
    const auto sequence = random_sequence(4096, 13);
    const std::string path = write_index("flip_header.dwi", sequence);
    // sequence_digest lives at offset 16: geometry checks still pass,
    // the header digest is what refuses the file.
    const std::string corrupt =
        flip_byte(path, "flip_header_corrupt.dwi", 16);
    try {
        load_index(corrupt);
        FAIL() << "corrupt header must not load";
    } catch (const FatalError& e) {
        EXPECT_NE(std::string(e.what()).find("checksum"),
                  std::string::npos)
            << e.what();
    }
}

/** Expect both load_index and fsck to refuse `path` with a message
 *  containing `fragment`. */
void
expect_load_and_fsck_reject(const std::string& path,
                            const std::string& fragment)
{
    try {
        load_index(path);
        ADD_FAILURE() << "load_index accepted " << path;
    } catch (const FatalError& e) {
        EXPECT_NE(std::string(e.what()).find(fragment), std::string::npos)
            << e.what();
    }
    const auto findings = fsck_file(path);
    ASSERT_EQ(findings.size(), 1u) << path;
    EXPECT_EQ(findings[0].code, "bad-index");
    EXPECT_NE(findings[0].detail.find(fragment), std::string::npos)
        << findings[0].detail;
}

TEST(Checksums, TrailerlessAndOldVersionIndexesAreRefused)
{
    const auto sequence = random_sequence(4096, 14);
    const std::string path = write_index("legacy_src.dwi", sequence);
    const std::vector<char> with = slurp(path);
    IndexHeader header;
    std::memcpy(&header, with.data(), sizeof(header));

    // A file that ends at its sections (no checksum area): the loaders
    // verify every section, so a file that cannot be verified is refused.
    const std::uint64_t sections_end = artifact::align_section(
        header.repeats_offset + header.truncated_buckets * 4);
    std::vector<char> bare(with.begin(),
                           with.begin() +
                               static_cast<std::ptrdiff_t>(sections_end));
    header.total_bytes = sections_end;
    std::memcpy(bare.data(), &header, sizeof(header));
    const std::string bare_path = temp_path("trailerless.dwi");
    spit(bare_path, bare);
    expect_load_and_fsck_reject(bare_path, "no checksum trailer");

    // A version-1 header (the dense bucket-offset layout).
    std::vector<char> v1 = with;
    IndexHeader old = {};
    std::memcpy(&old, v1.data(), sizeof(old));
    old.version = 1;
    std::memcpy(v1.data(), &old, sizeof(old));
    const std::string v1_path = temp_path("v1.dwi");
    spit(v1_path, v1);
    expect_load_and_fsck_reject(v1_path, "unsupported index format version 1");
}

/**
 * Copy a monolithic index with `mutate` applied to its bytes, then
 * re-seal it with recomputed digests so the checksums hold: the crafted
 * file is exactly what a hostile writer (not a bit flip) produces.
 */
template <typename Mutator>
std::string
craft_index(const std::string& src, const std::string& name,
            Mutator mutate)
{
    std::vector<char> bytes = slurp(src);
    IndexHeader header;
    std::memcpy(&header, bytes.data(), sizeof(header));
    mutate(header, bytes.data());
    const std::string path = temp_path(name);
    const std::string sealed =
        test::reseal(std::string(bytes.begin(), bytes.end()), kIndexFormat,
                     test::index_sections);
    spit(path, {sealed.begin(), sealed.end()});
    return path;
}

template <typename T>
T*
section_at(char* bytes, std::uint64_t offset)
{
    return reinterpret_cast<T*>(bytes + offset);
}

TEST(Checksums, CraftedDirectoryIsRejectedBeforeAttach)
{
    // Directory entry 5 above entry 6: a lookup of key slice 5 would
    // read a negative-length span. The checksums hold, so only the
    // directory check stands between the file and an out-of-bounds read.
    const auto sequence = random_sequence(4096, 16);
    const std::string path = write_index("craft_src.dwi", sequence);
    const std::string crafted = craft_index(
        path, "craft_dir.dwi", [](const IndexHeader& h, char* bytes) {
            auto* dir = section_at<std::uint32_t>(bytes, h.directory_offset);
            dir[5] = dir[6] + 1000;
        });
    expect_load_and_fsck_reject(crafted, "directory decreases at slice 5");

    const std::string unterminated = craft_index(
        path, "craft_dir_end.dwi", [](const IndexHeader& h, char* bytes) {
            auto* dir = section_at<std::uint32_t>(bytes, h.directory_offset);
            dir[std::size_t{1} << h.dir_bits] += 1;
        });
    expect_load_and_fsck_reject(unterminated,
                                "directory does not end at the position "
                                "count");
}

TEST(Fsck, CraftedTableOrderIsRejected)
{
    // Memory-safe but wrong tables load (their checksums hold and the
    // directory is sound); fsck's O(positions) pass refuses them.
    const auto sequence = random_sequence(4096, 17);
    const std::string path = write_index("craft_order_src.dwi", sequence);
    const auto index = load_index(path);
    ASSERT_FALSE(index->suffixes().empty());

    const std::string outside = craft_index(
        path, "craft_pos.dwi",
        [&](const IndexHeader& h, char* bytes) {
            section_at<std::uint32_t>(bytes, h.positions_offset)[0] =
                static_cast<std::uint32_t>(sequence.size());
        });
    EXPECT_NE(load_index(outside), nullptr);
    auto findings = fsck_file(outside);
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].code, "bad-index");
    EXPECT_NE(findings[0].detail.find("outside"), std::string::npos)
        << findings[0].detail;

    // Swap the suffixes of the first slice holding two distinct keys.
    const auto dir = index->directory();
    std::size_t slice = 0;
    while (slice + 1 < dir.size() &&
           !(dir[slice + 1] - dir[slice] >= 2 &&
             index->suffixes()[dir[slice]] !=
                 index->suffixes()[dir[slice] + 1]))
        ++slice;
    ASSERT_LT(slice + 1, dir.size());
    const std::string unsorted = craft_index(
        path, "craft_suffix.dwi",
        [&](const IndexHeader& h, char* bytes) {
            auto* suffixes =
                section_at<std::uint8_t>(bytes, h.suffixes_offset);
            std::swap(suffixes[dir[slice]], suffixes[dir[slice] + 1]);
        });
    findings = fsck_file(unsorted);
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].code, "bad-index");
    EXPECT_NE(findings[0].detail.find("key suffixes out of order"),
              std::string::npos)
        << findings[0].detail;
}

TEST(Checksums, NonzeroReservedShardFieldsAreRejected)
{
    // The header fields of the retired sharded layout are reserved and
    // must be zero: a v3 file setting any of them is refused with a
    // tagged error, while the same file with them zero still loads.
    const auto sequence = random_sequence(4096, 15);
    const std::string path = write_index("reserved_src.dwi", sequence);
    EXPECT_NE(load_index(path), nullptr);
    const std::function<void(IndexHeader&)> setters[] = {
        [](IndexHeader& h) { h.reserved_shard_bp = 8'388'608; },
        [](IndexHeader& h) { h.reserved_num_shards = 3; },
        [](IndexHeader& h) { h.reserved_shard_dir = sizeof(IndexHeader); },
    };
    for (std::size_t i = 0; i < std::size(setters); ++i) {
        const std::string crafted = craft_index(
            path, strprintf("reserved_%zu.dwi", i),
            [&](const IndexHeader& h, char* bytes) {
                IndexHeader patched = h;
                setters[i](patched);
                std::memcpy(bytes, &patched, sizeof(patched));
            });
        expect_load_and_fsck_reject(crafted, "reserved header fields");
    }
}

/** A tiny genome written as FASTA, for `.2bit` sidecar tests. */
std::string
write_fasta(const std::string& name)
{
    const std::string path = temp_path(name);
    std::ofstream out(path);
    out << ">chr1\n";
    Rng rng(99);
    const char* bases = "ACGT";
    for (int line = 0; line < 40; ++line) {
        for (int i = 0; i < 60; ++i)
            out << bases[rng.uniform(4)];
        out << "\n";
    }
    return path;
}

TEST(Checksums, PackedSidecarCarriesDigestsAndRejectsCorruption)
{
    const std::string fasta = write_fasta("packed.fa");
    const std::string sidecar = fasta + ".2bit";
    const seq::Genome genome = seq::read_genome_packed(fasta);
    ASSERT_TRUE(std::ifstream(sidecar).good());

    // The trailer carries one digest per section: the base and n-mask
    // words of the one chromosome, the name blob and the directory...
    const std::vector<char> bytes = slurp(sidecar);
    artifact::ChecksumTrailer trailer;
    std::memcpy(&trailer, bytes.data() + bytes.size() - sizeof(trailer),
                sizeof(trailer));
    EXPECT_EQ(std::memcmp(trailer.magic, artifact::kChecksumMagic,
                          sizeof(artifact::kChecksumMagic)),
              0);
    EXPECT_EQ(trailer.num_digests, 4u);

    // ...and a clean reload verifies them.
    const seq::Genome reloaded = seq::load_packed_genome(sidecar);
    EXPECT_EQ(reloaded.total_length(), genome.total_length());

    // A flipped word byte is refused by the direct loader (the
    // read_genome_packed wrapper would silently rebuild — which is the
    // production behavior, but hides the rejection under test).
    const std::string corrupt = flip_byte(
        sidecar, "packed_corrupt.2bit", sizeof(seq::PackedHeader) + 32);
    try {
        seq::load_packed_genome(corrupt);
        FAIL() << "corrupt sidecar must not load";
    } catch (const FatalError& e) {
        EXPECT_NE(std::string(e.what()).find("checksum mismatch"),
                  std::string::npos)
            << e.what();
    }

    // A flipped header byte (the FASTA digest field) likewise.
    const std::string corrupt_header =
        flip_byte(sidecar, "packed_corrupt_header.2bit", 16);
    try {
        seq::load_packed_genome(corrupt_header);
        FAIL() << "corrupt sidecar header must not load";
    } catch (const FatalError& e) {
        EXPECT_NE(std::string(e.what()).find("checksum"),
                  std::string::npos)
            << e.what();
    }
}

TEST(Checksums, V1OrZeroDigestPackedSidecarIsRefusedAndRebuilt)
{
    // Version 1 kept its digests in the header and loaded a file whose
    // digests were both zero unverified. Version 2 refuses both kinds
    // of file; read_genome_packed rebuilds them from the FASTA.
    const std::string fasta = write_fasta("packed_legacy.fa");
    const std::string sidecar = fasta + ".2bit";
    const seq::Genome genome = seq::read_genome_packed(fasta);
    const std::vector<char> fresh = slurp(sidecar);

    std::vector<char> v1 = fresh;
    seq::PackedHeader header;
    std::memcpy(&header, v1.data(), sizeof(header));
    header.version = 1;
    std::memcpy(v1.data(), &header, sizeof(header));

    std::vector<char> zeroed = fresh;
    artifact::ChecksumTrailer trailer;
    std::memcpy(&trailer, zeroed.data() + zeroed.size() - sizeof(trailer),
                sizeof(trailer));
    std::fill_n(zeroed.begin() + static_cast<std::ptrdiff_t>(
                                     trailer.digests_offset),
                trailer.num_digests * 8, 0);
    trailer.header_digest = 0;
    std::memcpy(zeroed.data() + zeroed.size() - sizeof(trailer), &trailer,
                sizeof(trailer));

    for (const auto& [bytes, fragment] :
         {std::pair{v1, "unsupported packed genome format version 1"},
          std::pair{zeroed, "checksum mismatch"}}) {
        spit(sidecar, bytes);
        try {
            seq::load_packed_genome(sidecar);
            ADD_FAILURE() << "loaded a sidecar refused with " << fragment;
        } catch (const FatalError& e) {
            EXPECT_NE(std::string(e.what()).find(fragment),
                      std::string::npos)
                << e.what();
        }
        const seq::Genome rebuilt = seq::read_genome_packed(fasta);
        EXPECT_EQ(rebuilt.total_length(), genome.total_length());
        EXPECT_EQ(slurp(sidecar), fresh);
    }
}

// ---------------------------------------------------------------------
// fsck

TEST(Fsck, CleanArtifactsOfEveryKindReportNoFindings)
{
    const auto sequence = random_sequence(4096, 21);
    const std::string dwi = write_index("fsck_clean.dwi", sequence);
    const std::string fasta = write_fasta("fsck_clean.fa");
    seq::read_genome_packed(fasta);

    const std::string journal = temp_path("fsck_clean.jsonl");
    {
        auto j = batch::CheckpointJournal::create(
            journal, batch::config_fingerprint("fsck-test"));
        batch::write_file_atomic(temp_path("fsck_p0.maf"),
                                 "a\n");
        j.record({"p0", fault::PairStatus::Clean, "",
                  "fsck_p0.maf"});
        j.record({"p1", fault::PairStatus::Quarantined, "injected", ""});
        j.close();
    }

    for (const std::string& path :
         {dwi, fasta + ".2bit", journal}) {
        std::string kind;
        const auto findings = fsck_file(path, &kind);
        EXPECT_TRUE(findings.empty())
            << path << ": " << (findings.empty()
                                    ? ""
                                    : findings[0].code + ": " +
                                          findings[0].detail);
        EXPECT_NE(kind, "unknown") << path;
    }
}

TEST(Fsck, TaggedFindingsForEveryFailureMode)
{
    // Missing file.
    {
        const auto findings = fsck_file(temp_path("nope.dwi"));
        ASSERT_EQ(findings.size(), 1u);
        EXPECT_EQ(findings[0].code, "missing");
    }
    // Unknown type.
    {
        const std::string path = temp_path("fsck_unknown.bin");
        std::ofstream(path) << "plain text";
        const auto findings = fsck_file(path);
        ASSERT_EQ(findings.size(), 1u);
        EXPECT_EQ(findings[0].code, "unknown-type");
    }
    // Corrupt index.
    {
        const auto sequence = random_sequence(4096, 22);
        const std::string dwi = write_index("fsck_bad.dwi", sequence);
        const std::string corrupt =
            flip_byte(dwi, "fsck_bad_corrupt.dwi", 300);
        std::string kind;
        const auto findings = fsck_file(corrupt, &kind);
        EXPECT_EQ(kind, "index");
        ASSERT_EQ(findings.size(), 1u);
        EXPECT_EQ(findings[0].code, "bad-index");
        EXPECT_NE(findings[0].detail.find("checksum"), std::string::npos)
            << findings[0].detail;
    }
    // Corrupt sidecar.
    {
        const std::string fasta = write_fasta("fsck_bad.fa");
        seq::read_genome_packed(fasta);
        const std::string corrupt = flip_byte(
            fasta + ".2bit", "fsck_bad.2bit", 200);
        std::string kind;
        const auto findings = fsck_file(corrupt, &kind);
        EXPECT_EQ(kind, "packed-genome");
        ASSERT_EQ(findings.size(), 1u);
        EXPECT_EQ(findings[0].code, "bad-packed");
    }
    // Journal with a bad status and a missing journaled output.
    {
        const std::string path = temp_path("fsck_bad.jsonl");
        std::ofstream(path)
            << "{\"journal\":\"darwin-wga-batch\",\"version\":1,"
               "\"config\":\"0123456789abcdef\"}\n"
            << "{\"pair\":\"p0\",\"status\":\"exploded\"}\n"
            << "{\"pair\":\"p1\",\"status\":\"clean\","
               "\"output\":\"never_written.maf\"}\n";
        std::string kind;
        const auto findings = fsck_file(path, &kind);
        EXPECT_EQ(kind, "journal");
        ASSERT_EQ(findings.size(), 2u);
        EXPECT_EQ(findings[0].code, "bad-journal");
        EXPECT_NE(findings[0].detail.find("exploded"), std::string::npos);
        EXPECT_NE(findings[1].detail.find("never_written.maf"),
                  std::string::npos);
    }
    // Journal whose last append was torn.
    {
        const std::string path = temp_path("fsck_torn.jsonl");
        std::ofstream(path)
            << "{\"journal\":\"darwin-wga-batch\",\"version\":1,"
               "\"config\":\"0123456789abcdef\"}\n"
            << "{\"pair\":\"p0\",\"status\":\"quarantined\"}\n"
            << "{\"pair\":\"p1\",\"stat";
        const auto findings = fsck_file(path);
        ASSERT_EQ(findings.size(), 1u);
        EXPECT_EQ(findings[0].code, "bad-journal");
        EXPECT_NE(findings[0].detail.find("line 3: torn"), std::string::npos)
            << findings[0].detail;
        EXPECT_NE(findings[0].detail.find("--resume drops it"),
                  std::string::npos);
    }
}

TEST(Fsck, PlainTextFileWritesNothingToStderr)
{
    // fsck tries the journal reader on a file of no known kind; the
    // FatalError it catches there is an expected outcome, not a log
    // line.
    const std::string path = temp_path("fsck_quiet.txt");
    std::ofstream(path) << "plain text\n";
    ::testing::internal::CaptureStderr();
    const auto findings = fsck_file(path);
    EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].code, "unknown-type");
}

TEST(Fsck, FaultProbeFires)
{
    const auto plan = fault::FaultPlan::parse("index.fsck:throw");
    fault::install_fault_plan(&plan);
    EXPECT_THROW(fsck_file(temp_path("whatever")),
                 fault::InjectedFault);
    fault::install_fault_plan(nullptr);
}

}  // namespace
}  // namespace darwin::index
