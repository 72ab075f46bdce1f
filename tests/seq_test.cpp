/**
 * @file
 * Unit tests for the seq module: alphabet, Sequence, Genome, FASTA,
 * dinucleotide shuffle, intervals.
 */
#include <gtest/gtest.h>

#include <array>
#include <map>
#include <sstream>

#include "seq/alphabet.h"
#include "seq/fasta.h"
#include "seq/genome.h"
#include "seq/interval.h"
#include "seq/sequence.h"
#include "seq/shuffle.h"
#include "util/logging.h"
#include "util/rng.h"

namespace darwin::seq {
namespace {

TEST(Alphabet, EncodeDecodeRoundTrip)
{
    for (const char c : {'A', 'C', 'G', 'T', 'N'})
        EXPECT_EQ(decode_base(encode_base(c)), c);
    EXPECT_EQ(encode_base('a'), BaseA);
    EXPECT_EQ(encode_base('t'), BaseT);
    EXPECT_EQ(encode_base('X'), BaseN);
    EXPECT_EQ(encode_base('-'), BaseN);
}

TEST(Alphabet, Complement)
{
    EXPECT_EQ(complement(BaseA), BaseT);
    EXPECT_EQ(complement(BaseT), BaseA);
    EXPECT_EQ(complement(BaseC), BaseG);
    EXPECT_EQ(complement(BaseG), BaseC);
    EXPECT_EQ(complement(BaseN), BaseN);
}

TEST(Alphabet, TransitionsAreAGandCT)
{
    EXPECT_TRUE(is_transition(BaseA, BaseG));
    EXPECT_TRUE(is_transition(BaseG, BaseA));
    EXPECT_TRUE(is_transition(BaseC, BaseT));
    EXPECT_TRUE(is_transition(BaseT, BaseC));
    EXPECT_FALSE(is_transition(BaseA, BaseA));
    EXPECT_FALSE(is_transition(BaseA, BaseC));
    EXPECT_FALSE(is_transition(BaseA, BaseN));
}

TEST(Alphabet, TransversionsAreTheRest)
{
    EXPECT_TRUE(is_transversion(BaseA, BaseC));
    EXPECT_TRUE(is_transversion(BaseA, BaseT));
    EXPECT_TRUE(is_transversion(BaseG, BaseC));
    EXPECT_FALSE(is_transversion(BaseA, BaseG));
    EXPECT_FALSE(is_transversion(BaseA, BaseA));
}

TEST(Sequence, FromStringAndBack)
{
    Sequence s("chr1", "ACGTN");
    EXPECT_EQ(s.size(), 5u);
    EXPECT_EQ(s.to_string(), "ACGTN");
    EXPECT_EQ(s.name(), "chr1");
    EXPECT_EQ(s[0], BaseA);
    EXPECT_EQ(s[4], BaseN);
}

TEST(Sequence, LowercaseNormalizes)
{
    Sequence s("x", "acgt");
    EXPECT_EQ(s.to_string(), "ACGT");
}

TEST(Sequence, Subsequence)
{
    Sequence s("x", "ACGTACGT");
    EXPECT_EQ(s.subsequence(2, 4).to_string(), "GTAC");
    // Clamped at the end.
    EXPECT_EQ(s.subsequence(6, 100).to_string(), "GT");
    EXPECT_EQ(s.subsequence(100, 5).size(), 0u);
}

TEST(Sequence, ReverseComplement)
{
    Sequence s("x", "AACGTT");
    EXPECT_EQ(s.reverse_complement().to_string(), "AACGTT");
    Sequence t("y", "ACGGG");
    EXPECT_EQ(t.reverse_complement().to_string(), "CCCGT");
}

TEST(Sequence, BaseCountsAndNFraction)
{
    Sequence s("x", "AANNGG");
    const auto counts = s.base_counts();
    EXPECT_EQ(counts[BaseA], 2u);
    EXPECT_EQ(counts[BaseG], 2u);
    EXPECT_EQ(counts[BaseN], 2u);
    EXPECT_NEAR(s.n_fraction(), 1.0 / 3.0, 1e-12);
}

TEST(Sequence, ViewClamps)
{
    Sequence s("x", "ACGT");
    EXPECT_EQ(s.view(1, 3).size(), 2u);
    EXPECT_EQ(s.view(2, 100).size(), 2u);
    EXPECT_EQ(s.view(5, 9).size(), 0u);
}

TEST(Genome, FlattenedHasSeparators)
{
    Genome g("g");
    g.add_chromosome(Sequence("c1", "ACGT"));
    g.add_chromosome(Sequence("c2", "TTTT"));
    const Sequence& flat = g.flattened();
    EXPECT_EQ(flat.size(), 8 + Genome::separator_length());
    EXPECT_EQ(g.flat_offset(0), 0u);
    EXPECT_EQ(g.flat_offset(1), 4 + Genome::separator_length());
    // Separator region is N.
    EXPECT_EQ(flat[5], BaseN);
}

TEST(Genome, ResolveRoundTrip)
{
    Genome g("g");
    g.add_chromosome(Sequence("c1", "ACGTACGT"));
    g.add_chromosome(Sequence("c2", "GGGG"));
    bool sep = false;
    const auto p1 = g.resolve(3, &sep);
    EXPECT_FALSE(sep);
    EXPECT_EQ(p1.chromosome, 0u);
    EXPECT_EQ(p1.offset, 3u);
    const auto p2 = g.resolve(g.flat_offset(1) + 2, &sep);
    EXPECT_FALSE(sep);
    EXPECT_EQ(p2.chromosome, 1u);
    EXPECT_EQ(p2.offset, 2u);
    g.resolve(9, &sep);  // inside the separator
    EXPECT_TRUE(sep);
}

TEST(Genome, TotalLength)
{
    Genome g("g");
    g.add_chromosome(Sequence("c1", "ACGT"));
    g.add_chromosome(Sequence("c2", "AC"));
    EXPECT_EQ(g.total_length(), 6u);
}

/** Parse FASTA text through the byte sink. */
Genome
parse_text(const std::string& text)
{
    return parse_fasta(
        {reinterpret_cast<const std::uint8_t*>(text.data()), text.size()},
        "test.fa", GenomeStorage::Bytes);
}

TEST(Fasta, ParsesMultiRecord)
{
    const Genome genome = parse_text(">chr1 some description\nACGT\nacgt\n"
                                     ";comment\n>chr2\nNNNN\n");
    const auto& records = genome.chromosomes();
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(genome.name(), "test.fa");
    EXPECT_EQ(records[0].name(), "chr1");
    EXPECT_EQ(records[0].to_string(), "ACGTACGT");
    EXPECT_EQ(records[1].name(), "chr2");
    EXPECT_EQ(records[1].to_string(), "NNNN");
}

TEST(Fasta, RejectsDataBeforeHeader)
{
    EXPECT_THROW(parse_text("ACGT\n"), FatalError);
}

TEST(Fasta, RejectsGarbageCharacters)
{
    EXPECT_THROW(parse_text(">x\nAC!GT\n"), FatalError);
}

TEST(Fasta, WriteReadRoundTrip)
{
    std::vector<Sequence> records;
    records.emplace_back("a", std::string(150, 'A') + "CGT");
    records.emplace_back("b", "TTGG");
    std::ostringstream out;
    write_fasta(out, records, 60);
    const auto parsed = parse_text(out.str()).chromosomes();
    ASSERT_EQ(parsed.size(), 2u);
    EXPECT_EQ(parsed[0].to_string(), records[0].to_string());
    EXPECT_EQ(parsed[1].to_string(), records[1].to_string());
}

std::map<std::pair<int, int>, int>
dinucleotide_counts(const Sequence& s)
{
    std::map<std::pair<int, int>, int> counts;
    for (std::size_t i = 0; i + 1 < s.size(); ++i)
        ++counts[{s[i], s[i + 1]}];
    return counts;
}

TEST(Shuffle, PreservesDinucleotideCountsExactly)
{
    Rng rng(17);
    Sequence s("x",
               "ACGTACGGGTTTACACACGTGTGATATCCCGGGAAATTTCACGTGACTGACTGTACA"
               "GCATCGATCGGCTAGCTAGCATCGATTACGGATCCAATTGGCCTTAAGGCCGGTTAA");
    const Sequence shuffled = dinucleotide_shuffle(s, rng);
    ASSERT_EQ(shuffled.size(), s.size());
    EXPECT_EQ(dinucleotide_counts(shuffled), dinucleotide_counts(s));
    EXPECT_EQ(shuffled[0], s[0]);
    EXPECT_EQ(shuffled[shuffled.size() - 1], s[s.size() - 1]);
}

TEST(Shuffle, ActuallyShuffles)
{
    Rng rng(23);
    std::string bases;
    Rng gen(5);
    for (int i = 0; i < 2000; ++i)
        bases.push_back("ACGT"[gen.uniform(4)]);
    Sequence s("x", bases);
    const Sequence shuffled = dinucleotide_shuffle(s, rng);
    EXPECT_NE(shuffled.to_string(), s.to_string());
}

TEST(Shuffle, ShortSequencesReturnedVerbatim)
{
    Rng rng(1);
    Sequence s("x", "AC");
    EXPECT_EQ(dinucleotide_shuffle(s, rng).to_string(), "AC");
}

TEST(Shuffle, HandlesNRuns)
{
    Rng rng(3);
    Sequence s("x", "ACGTNNNACGTNNNACGT");
    const Sequence shuffled = dinucleotide_shuffle(s, rng);
    EXPECT_EQ(dinucleotide_counts(shuffled), dinucleotide_counts(s));
}

TEST(Shuffle, GenomeShufflePreservesShape)
{
    Genome g("g");
    g.add_chromosome(Sequence("c1", "ACGTACGTACGTACGT"));
    g.add_chromosome(Sequence("c2", "GGGGCCCCAAAATTTT"));
    Rng rng(11);
    const Genome shuffled = shuffle_genome(g, rng);
    ASSERT_EQ(shuffled.num_chromosomes(), 2u);
    EXPECT_EQ(shuffled.chromosome(0).size(), 16u);
    EXPECT_EQ(shuffled.chromosome(1).size(), 16u);
}

TEST(Interval, IntersectionLength)
{
    EXPECT_EQ(intersection_length({0, 10}, {5, 20}), 5u);
    EXPECT_EQ(intersection_length({0, 10}, {10, 20}), 0u);
    EXPECT_EQ(intersection_length({5, 6}, {0, 100}), 1u);
}

TEST(Interval, MergeOverlapping)
{
    auto merged = merge_intervals({{5, 10}, {0, 6}, {20, 30}, {29, 35}});
    ASSERT_EQ(merged.size(), 2u);
    EXPECT_EQ(merged[0], (Interval{0, 10}));
    EXPECT_EQ(merged[1], (Interval{20, 35}));
}

TEST(Interval, MergeDropsEmpty)
{
    auto merged = merge_intervals({{5, 5}, {7, 6}});
    EXPECT_TRUE(merged.empty());
}

TEST(Interval, CoveredLength)
{
    EXPECT_EQ(covered_length({{0, 10}, {5, 15}, {20, 25}}), 20u);
}

TEST(Interval, CoverageFraction)
{
    EXPECT_DOUBLE_EQ(coverage_fraction({0, 100}, {{0, 50}}), 0.5);
    EXPECT_DOUBLE_EQ(coverage_fraction({0, 100}, {{25, 75}, {50, 100}}),
                     0.75);
    EXPECT_DOUBLE_EQ(coverage_fraction({10, 10}, {{0, 100}}), 0.0);
}

}  // namespace
}  // namespace darwin::seq
