/**
 * @file
 * Tests for 2-bit packed sequence storage (seq/packed_sequence.h) and
 * the `.2bit` sidecar cache (seq/packed_io.h): round-trip bit-identity
 * including N runs, odd lengths and reverse complements; kmer
 * extraction against a byte-wise oracle; sidecar reuse, staleness and
 * corruption rejection.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "index/index_io.h"
#include "seq/fasta.h"
#include "seq/genome.h"
#include "seq/packed_io.h"
#include "seq/packed_sequence.h"
#include "util/logging.h"
#include "util/rng.h"

namespace darwin::seq {
namespace {

std::vector<std::uint8_t>
random_codes_with_n(std::size_t len, std::uint64_t seed,
                    double n_run_chance = 0.01)
{
    Rng rng(seed);
    std::vector<std::uint8_t> codes;
    codes.reserve(len);
    while (codes.size() < len) {
        if (rng.chance(n_run_chance)) {
            const std::size_t run = 1 + rng.uniform(40);
            for (std::size_t i = 0; i < run && codes.size() < len; ++i)
                codes.push_back(BaseN);
            continue;
        }
        codes.push_back(static_cast<std::uint8_t>(rng.uniform(4)));
    }
    return codes;
}

TEST(PackedSequence, RoundTripBitIdentityAcrossOddLengths)
{
    // Lengths straddling every word-boundary case: empty, sub-word,
    // exactly one base word (32), one n-word (64), and ragged tails.
    for (const std::size_t len :
         {0ul, 1ul, 31ul, 32ul, 33ul, 63ul, 64ul, 65ul, 127ul, 128ul,
          129ul, 1000ul, 4097ul}) {
        const auto codes = random_codes_with_n(len, 7 + len);
        const auto packed =
            PackedSequence::pack("seq", {codes.data(), codes.size()});
        ASSERT_EQ(packed.size(), len);
        for (std::size_t i = 0; i < len; ++i)
            ASSERT_EQ(packed[i], codes[i]) << "len " << len << " pos " << i;
        const auto decoded = packed.decode(0, len);
        EXPECT_EQ(decoded, codes);
        const Sequence bytes = packed.to_sequence();
        EXPECT_EQ(bytes.codes(), codes);
    }
}

TEST(PackedSequence, NLanesStoreAsZeroSoWordsAreCanonical)
{
    // Two byte sequences equal up to ambiguity codes must pack to
    // identical words — digests over words depend on it.
    std::vector<std::uint8_t> a = {0, 1, 2, 3, BaseN, 2, BaseN, 0};
    std::vector<std::uint8_t> b = a;
    const auto pa = PackedSequence::pack("a", {a.data(), a.size()});
    const auto pb = PackedSequence::pack("b", {b.data(), b.size()});
    ASSERT_EQ(pa.num_base_words(), pb.num_base_words());
    for (std::size_t w = 0; w < pa.num_base_words(); ++w)
        EXPECT_EQ(pa.base_words()[w], pb.base_words()[w]);
    EXPECT_TRUE(pa.is_n(4));
    EXPECT_TRUE(pa.is_n(6));
    EXPECT_FALSE(pa.is_n(5));
    EXPECT_EQ(pa.base2(4), 0u);  // the N lane reads as zero
}

TEST(PackedSequence, ReverseComplementMatchesByteOracle)
{
    for (const std::size_t len : {1ul, 33ul, 64ul, 65ul, 777ul}) {
        const auto codes = random_codes_with_n(len, 1000 + len, 0.05);
        const Sequence bytes("s", codes);
        const auto packed =
            PackedSequence::pack("s", {codes.data(), codes.size()});
        const Sequence rc_bytes = bytes.reverse_complement();
        const PackedSequence rc_packed = packed.reverse_complement();
        ASSERT_EQ(rc_packed.size(), rc_bytes.size());
        for (std::size_t i = 0; i < rc_bytes.size(); ++i)
            ASSERT_EQ(rc_packed[i], rc_bytes[i]) << "len " << len;
    }
}

TEST(PackedSequence, ExtractKmerMatchesByteOracle)
{
    const std::size_t len = 300;
    const auto codes = random_codes_with_n(len, 99, 0.03);
    const auto packed =
        PackedSequence::pack("s", {codes.data(), codes.size()});
    for (const std::size_t k : {1ul, 12ul, 19ul, 31ul, 32ul}) {
        for (std::size_t pos = 0; pos + 1 < len; pos += 7) {
            std::uint64_t expect = 0;
            for (std::size_t j = 0; j < k && pos + j < len; ++j) {
                const std::uint8_t c = codes[pos + j];
                // N lanes (and lanes past the end) read as zero.
                if (c < 4)
                    expect |= static_cast<std::uint64_t>(c) << (2 * j);
            }
            ASSERT_EQ(packed.extract_kmer(pos, k), expect)
                << "pos " << pos << " k " << k;
        }
    }
}

TEST(PackedSequence, NMaskMatchesByteOracle)
{
    const std::size_t len = 200;
    const auto codes = random_codes_with_n(len, 5, 0.08);
    const auto packed =
        PackedSequence::pack("s", {codes.data(), codes.size()});
    for (std::size_t pos = 0; pos < len; pos += 13) {
        const std::size_t window = std::min<std::size_t>(64, len - pos);
        std::uint64_t expect = 0;
        for (std::size_t j = 0; j < window; ++j)
            if (codes[pos + j] >= 4)
                expect |= 1ULL << j;
        ASSERT_EQ(packed.n_mask(pos, window), expect) << "pos " << pos;
    }
}

TEST(PackedSequence, PackedDigestEqualsByteDigest)
{
    const auto codes = random_codes_with_n(5000, 21, 0.02);
    const Sequence bytes("s", codes);
    const auto packed =
        PackedSequence::pack("s", {codes.data(), codes.size()});
    EXPECT_EQ(index::sequence_digest(packed),
              index::sequence_digest(bytes));
}

TEST(Genome, FlattenedPackedMatchesFlattenedBytes)
{
    Genome genome("g");
    genome.add_chromosome(
        Sequence("chr1", random_codes_with_n(701, 31)));
    genome.add_chromosome(
        Sequence("chr2", random_codes_with_n(997, 32)));
    const Sequence& flat = genome.flattened();
    const PackedSequence& packed = genome.flattened_packed();
    ASSERT_EQ(packed.size(), flat.size());
    for (std::size_t i = 0; i < flat.size(); ++i)
        ASSERT_EQ(packed[i], flat[i]) << "pos " << i;
}

/** Temp-dir fixture for the sidecar tests. */
class PackedIo : public ::testing::Test {
  protected:
    void
    SetUp() override
    {
        dir_ = std::filesystem::temp_directory_path() /
               ("darwin_packed_test_" +
                std::to_string(::getpid()) + "_" +
                ::testing::UnitTest::GetInstance()
                    ->current_test_info()
                    ->name());
        std::filesystem::create_directories(dir_);
        fasta_ = (dir_ / "genome.fa").string();
        sidecar_ = fasta_ + ".2bit";
        std::ofstream out(fasta_);
        out << ">chrA test\nACGTACGTNNNNACGTTTTTGGGGCCCCAAAA\n"
            << "ACGTNACGTN\n>chrB\nTTTTACGTACGTACGTACGTNNN\n";
    }

    void TearDown() override { std::filesystem::remove_all(dir_); }

    std::filesystem::path dir_;
    std::string fasta_;
    std::string sidecar_;
};

TEST_F(PackedIo, IngestionMatchesByteReaderAndWritesSidecar)
{
    const Genome packed = read_genome_packed(fasta_);
    const Genome bytes = read_genome(fasta_);
    ASSERT_TRUE(packed.packed());
    ASSERT_EQ(packed.num_chromosomes(), bytes.num_chromosomes());
    for (std::size_t c = 0; c < bytes.num_chromosomes(); ++c) {
        EXPECT_EQ(packed.chromosome_name(c), bytes.chromosome_name(c));
        ASSERT_EQ(packed.chromosome_length(c),
                  bytes.chromosome_length(c));
        const PackedSequence& pc = packed.packed_chromosome(c);
        const Sequence& bc = bytes.chromosome(c);
        for (std::size_t i = 0; i < bc.size(); ++i)
            ASSERT_EQ(pc[i], bc[i]) << "chr " << c << " pos " << i;
    }
    EXPECT_EQ(artifact::sniff(sidecar_, {&kPackedFormat}), &kPackedFormat);
}

TEST_F(PackedIo, SidecarIsReusedViaMmapAttach)
{
    (void)read_genome_packed(fasta_);  // builds the sidecar
    const auto first_write =
        std::filesystem::last_write_time(sidecar_);
    const Genome again = read_genome_packed(fasta_);
    // Reuse: the file was not rewritten, and chromosomes attach to the
    // mapping instead of owning fresh words.
    EXPECT_EQ(std::filesystem::last_write_time(sidecar_), first_write);
    ASSERT_GT(again.num_chromosomes(), 0u);
    EXPECT_TRUE(again.packed_chromosome(0).attached());
}

TEST_F(PackedIo, StaleSidecarIsRebuilt)
{
    (void)read_genome_packed(fasta_);
    {
        std::ofstream out(fasta_, std::ios::app);
        out << ">chrC\nACGT\n";
    }
    const Genome genome = read_genome_packed(fasta_);
    EXPECT_EQ(genome.num_chromosomes(), 3u);
    // The rebuilt sidecar reflects the new FASTA.
    const Genome reloaded = load_packed_genome(sidecar_);
    EXPECT_EQ(reloaded.num_chromosomes(), 3u);
}

TEST_F(PackedIo, CorruptSidecarIsRejectedThenRebuilt)
{
    (void)read_genome_packed(fasta_);
    {
        // Trash the version/endian fields (bytes 8..15 of the header).
        std::fstream f(sidecar_,
                       std::ios::in | std::ios::out | std::ios::binary);
        f.seekp(8);
        const char garbage[8] = {1, 2, 3, 4, 5, 6, 7, 8};
        f.write(garbage, sizeof(garbage));
    }
    // Direct load reports the corruption...
    EXPECT_THROW((void)load_packed_genome(sidecar_), FatalError);
    // ...while the cached read path quietly rebuilds.
    const Genome genome = read_genome_packed(fasta_);
    EXPECT_EQ(genome.num_chromosomes(), 2u);
    EXPECT_NO_THROW((void)load_packed_genome(sidecar_));
}

TEST_F(PackedIo, DigestMismatchIsFatal)
{
    (void)read_genome_packed(fasta_);
    EXPECT_THROW((void)load_packed_genome(sidecar_, 0xdeadbeefULL),
                 FatalError);
}

}  // namespace
}  // namespace darwin::seq
