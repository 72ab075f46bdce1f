/**
 * @file
 * Seeded mutation fuzzing (fuzz_driver.h) of the two artifact readers
 * built on the artifact container (util/artifact.h): `.dwi` indexes
 * through load_index and `.2bit` sidecars through load_packed_genome,
 * each also through fsck_file. Every mutant runs twice: as written, and
 * re-sealed with recomputed digests so it gets past the checksums to
 * the header, directory and section checks behind them. The property
 * is that each either loads or throws FatalError, and fsck reports it
 * without throwing. The crafted sidecar whose directory size wraps to
 * zero, which an earlier reader read past the end of the file for, is
 * pinned as a probe.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "index/format.h"
#include "index/fsck.h"
#include "index/index_io.h"
#include "seed/seed_index.h"
#include "seq/packed_io.h"
#include "seq/sequence.h"
#include "util/artifact.h"
#include "util/logging.h"
#include "util/rng.h"
#include "artifact_craft.h"
#include "fuzz_driver.h"
#include "scratch_dir.h"

namespace darwin {
namespace {

using test::index_sections;
using test::packed_sections;
using test::read_at;
using test::reseal;
using test::Span;

std::string
temp_path(const std::string& name)
{
    static const test::ScratchDir dir("artifact");
    return dir.file(name);
}

std::string
slurp(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

void
spit(const std::string& path, const std::string& bytes)
{
    std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

/** A real index: a random target with a poly-A run, so it has key
 *  suffixes and repeat keys as well as positions. */
std::string
real_index()
{
    Rng rng(7);
    std::vector<std::uint8_t> codes(1500);
    for (auto& c : codes)
        c = static_cast<std::uint8_t>(rng.uniform(4));
    std::fill_n(codes.begin() + 600, 120, std::uint8_t{0});
    const seq::Sequence target("fuzz", std::move(codes));
    const seed::SeedIndex index(target, seed::SeedPattern("11101010111"), 8);
    EXPECT_GT(index.truncated_buckets(), 0u);
    EXPECT_FALSE(index.suffixes().empty());
    const std::string path = temp_path("real.dwi");
    index::save_index(path, index, index::sequence_digest(target),
                      target.size());
    return slurp(path);
}

/** A real sidecar: two chromosomes, one with N runs. */
std::string
real_sidecar()
{
    const std::string fasta = temp_path("real.fa");
    std::ofstream(fasta) << ">chrA first\nACGTACGTNNNNACGTTTTTGGGGCCCCAAAA\n"
                         << "ACGTNACGTNGGATCCATGCAAGT\n>chrB\n"
                         << "TTTTACGTACGTACGTACGTNNNACGGT\n";
    seq::read_genome_packed(fasta);
    return slurp(fasta + ".2bit");
}

/** Oversize integers for 8-byte header (or, half the time, any) fields:
 *  the top values, and counts whose product with an entry size of 48,
 *  8 or 4 bytes wraps. */
test::Mutation
oversize_integer(std::size_t header_bytes)
{
    return [header_bytes](std::string& bytes, Rng& rng) {
        static const std::uint64_t kHuge[] = {
            std::uint64_t{1} << 63, ~std::uint64_t{0},
            std::uint64_t{1} << 60,  // x 48 wraps to 0
            384307168202282326ULL,   // x 48 wraps to 32
            std::uint64_t{1} << 61,  // x 8 wraps to 0
            std::uint64_t{1} << 62,  // x 4 wraps to 0
            std::uint64_t{0xffffffff}, std::uint64_t{1} << 32};
        const std::size_t limit =
            rng.chance(0.5) ? std::min(header_bytes, bytes.size())
                            : bytes.size();
        if (limit < 8)
            return;
        const std::size_t at = 8 * rng.uniform(limit / 8);
        const std::uint64_t value = kHuge[rng.uniform(std::size(kHuge))];
        std::memcpy(bytes.data() + at, &value, sizeof(value));
    };
}

constexpr int kIterations = 1500;

/**
 * Fuzz one format: each mutant, as written and re-sealed, must load or
 * throw FatalError, and fsck_file must report it without throwing.
 * Returns how many of the 2 x kIterations files loaded.
 */
std::size_t
fuzz_artifact(const std::string& seed_bytes, std::uint64_t seed,
              const artifact::Format& format,
              std::vector<Span> (*sections_of)(const std::string&),
              void (*load)(const std::string&))
{
    const std::string path = temp_path("fuzz_" + std::to_string(seed));
    std::size_t loaded = 0;
    test::fuzz<FatalError>(
        {seed_bytes}, seed, kIterations,
        {oversize_integer(format.header_bytes)},
        [&](const std::string& mutant) {
            for (const std::string& bytes :
                 {mutant, reseal(mutant, format, sections_of)}) {
                spit(path, bytes);
                index::fsck_file(path);
                try {
                    load(path);
                    ++loaded;
                } catch (const FatalError&) {
                }
            }
        });
    return loaded;
}

TEST(ArtifactFuzz, IndexesLoadOrGiveAFatalError)
{
    const std::string seed_bytes = real_index();
    const std::size_t loaded = fuzz_artifact(
        seed_bytes, 0xd1, index::kIndexFormat, index_sections,
        [](const std::string& path) { index::load_index(path); });
    EXPECT_GT(loaded, 0u);
    EXPECT_LT(loaded, 2u * kIterations);
}

TEST(ArtifactFuzz, SidecarsLoadOrGiveAFatalError)
{
    const std::string seed_bytes = real_sidecar();
    const std::size_t loaded = fuzz_artifact(
        seed_bytes, 0x2b17, seq::kPackedFormat, packed_sections,
        [](const std::string& path) { seq::load_packed_genome(path); });
    EXPECT_GT(loaded, 0u);
    EXPECT_LT(loaded, 2u * kIterations);
}

TEST(ArtifactFuzz, ResealedMutantsGetPastTheChecksums)
{
    // The re-sealing is what lets the fuzzer reach the checks behind the
    // digests: a re-sealed copy of an untouched file loads, and a
    // re-sealed header edit fails on the edited field, not a checksum.
    const std::string sidecar = real_sidecar();
    const std::string path = temp_path("resealed.2bit");
    spit(path, reseal(sidecar, seq::kPackedFormat, packed_sections));
    EXPECT_EQ(slurp(path), sidecar);
    std::string edited = sidecar;
    auto header = read_at<seq::PackedHeader>(edited, 0);
    header.total_bases += 1;
    std::memcpy(edited.data(), &header, sizeof(header));
    spit(path, reseal(edited, seq::kPackedFormat, packed_sections));
    try {
        seq::load_packed_genome(path);
        FAIL() << "a wrong base total loaded";
    } catch (const FatalError& e) {
        EXPECT_NE(std::string(e.what()).find("total_bases"),
                  std::string::npos)
            << e.what();
    }
}

TEST(ArtifactFuzz, ProbeWrappedPackedDirectoryIsRefused)
{
    // num_chromosomes = 2^60 makes the 48-byte-entry directory size wrap
    // to 0; with valid checksums, only the overflow-safe directory bound
    // stands between the loader and reads past the end of the file.
    std::string bytes = real_sidecar();
    auto header = read_at<seq::PackedHeader>(bytes, 0);
    header.num_chromosomes = std::uint64_t{1} << 60;
    header.dir_offset = header.names_offset = sizeof(header);
    std::memcpy(bytes.data(), &header, sizeof(header));
    const std::string path = temp_path("wrapped.2bit");
    spit(path, reseal(bytes, seq::kPackedFormat, packed_sections));
    try {
        seq::load_packed_genome(path);
        FAIL() << "a wrapped directory loaded";
    } catch (const FatalError& e) {
        EXPECT_NE(std::string(e.what()).find("chromosome directory"),
                  std::string::npos)
            << e.what();
    }
    const auto findings = index::fsck_file(path);
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].code, "bad-packed");
    EXPECT_NE(findings[0].detail.find("chromosome directory"),
              std::string::npos)
        << findings[0].detail;
}

}  // namespace
}  // namespace darwin
