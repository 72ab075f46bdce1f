/**
 * @file
 * Tests for the seed module: spaced seed patterns, transition
 * neighborhoods, the position index, and D-SOFT banding.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "seed/dsoft.h"
#include "seed/seed_index.h"
#include "seed/seed_pattern.h"
#include "seq/sequence.h"
#include "util/logging.h"
#include "util/rng.h"

namespace darwin::seed {
namespace {

seq::Sequence
random_sequence(std::size_t len, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::uint8_t> codes(len);
    for (auto& c : codes)
        c = static_cast<std::uint8_t>(rng.uniform(4));
    return seq::Sequence("rand", std::move(codes));
}

TEST(SeedPattern, LastzDefaultIs12of19)
{
    const auto pattern = SeedPattern::lastz_default();
    EXPECT_EQ(pattern.span(), 19u);
    EXPECT_EQ(pattern.weight(), 12u);
    EXPECT_EQ(pattern.key_space(), 1ULL << 24);
}

TEST(SeedPattern, RejectsMalformed)
{
    EXPECT_THROW(SeedPattern(""), FatalError);
    EXPECT_THROW(SeedPattern("11012"), FatalError);
    EXPECT_THROW(SeedPattern("000"), FatalError);
    EXPECT_THROW(SeedPattern(std::string(16, '1')), FatalError);
}

TEST(SeedPattern, KeyIgnoresDontCares)
{
    const SeedPattern pattern("101");
    const auto a = seq::encode_string("AAA");
    const auto b = seq::encode_string("ACA");
    const auto c = seq::encode_string("AAG");
    EXPECT_EQ(pattern.key_at({a.data(), a.size()}, 0),
              pattern.key_at({b.data(), b.size()}, 0));
    EXPECT_NE(pattern.key_at({a.data(), a.size()}, 0),
              pattern.key_at({c.data(), c.size()}, 0));
}

TEST(SeedPattern, KeyRejectsNAndOverrun)
{
    const SeedPattern pattern("111");
    const auto withn = seq::encode_string("ANA");
    EXPECT_FALSE(pattern.key_at({withn.data(), withn.size()}, 0));
    const auto ok = seq::encode_string("ACG");
    EXPECT_TRUE(pattern.key_at({ok.data(), ok.size()}, 0));
    EXPECT_FALSE(pattern.key_at({ok.data(), ok.size()}, 1));
}

TEST(SeedPattern, TransitionNeighborsMatchTransitionMutants)
{
    const SeedPattern pattern("111");
    const auto base = seq::encode_string("ACG");
    const auto key = *pattern.key_at({base.data(), base.size()}, 0);
    const auto neighbors = pattern.transition_neighbors(key);
    EXPECT_EQ(neighbors.size(), 3u);
    // Transition mutants: GCG (A->G), ATG (C->T), ACA (G->A).
    for (const std::string mutant : {"GCG", "ATG", "ACA"}) {
        const auto codes = seq::encode_string(mutant);
        const auto mkey = *pattern.key_at({codes.data(), codes.size()}, 0);
        EXPECT_NE(std::find(neighbors.begin(), neighbors.end(), mkey),
                  neighbors.end())
            << "missing transition mutant " << mutant;
    }
    // A transversion mutant must NOT be in the neighborhood.
    const auto tv = seq::encode_string("CCG");
    const auto tvkey = *pattern.key_at({tv.data(), tv.size()}, 0);
    EXPECT_EQ(std::find(neighbors.begin(), neighbors.end(), tvkey),
              neighbors.end());
}

TEST(SeedIndex, FindsAllOccurrences)
{
    const SeedPattern pattern("1111");
    const seq::Sequence target("t", "ACGTAACGTA");
    const SeedIndex index(target, pattern);
    const auto codes = seq::encode_string("ACGT");
    const auto key = *pattern.key_at({codes.data(), codes.size()}, 0);
    const auto hits = index.lookup(key);
    ASSERT_EQ(hits.size(), 2u);
    EXPECT_EQ(hits[0], 0u);
    EXPECT_EQ(hits[1], 5u);
}

TEST(SeedIndex, SkipsWindowsWithN)
{
    const SeedPattern pattern("1111");
    const seq::Sequence target("t", "ACGTNACGT");
    const SeedIndex index(target, pattern);
    // Windows at 1..4 contain the N.
    EXPECT_GT(index.skipped_windows(), 0u);
    const auto codes = seq::encode_string("ACGT");
    const auto key = *pattern.key_at({codes.data(), codes.size()}, 0);
    ASSERT_EQ(index.lookup(key).size(), 2u);
}

TEST(SeedIndex, TruncatesRepeatBuckets)
{
    const SeedPattern pattern("1111");
    const seq::Sequence target("t", std::string(500, 'A'));
    const SeedIndex index(target, pattern, /*max_bucket=*/16);
    const auto codes = seq::encode_string("AAAA");
    const auto key = *pattern.key_at({codes.data(), codes.size()}, 0);
    EXPECT_EQ(index.lookup(key).size(), 16u);
    EXPECT_TRUE(index.over_represented(key));
    EXPECT_EQ(index.truncated_buckets(), 1u);
}

/**
 * Differential check of a built index against a brute-force window
 * scan: for every key that occurs, lookup() is the key's first
 * max_bucket window positions in ascending order and over_represented()
 * says whether more existed; random absent keys look up empty. The byte
 * and packed builds of `target` must both pass and agree section for
 * section.
 */
void
expect_matches_window_scan(const seq::Sequence& target,
                           const SeedPattern& pattern,
                           std::uint32_t max_bucket = 256)
{
    std::map<SeedKey, std::vector<std::uint32_t>> scan;
    std::uint64_t skipped = 0;
    const std::span<const std::uint8_t> codes{target.codes().data(),
                                              target.size()};
    for (std::size_t pos = 0; pos + pattern.span() <= target.size();
         ++pos) {
        if (const auto key = pattern.key_at(codes, pos))
            scan[*key].push_back(static_cast<std::uint32_t>(pos));
        else
            ++skipped;
    }

    const SeedIndex from_bytes(target, pattern, max_bucket);
    const SeedIndex from_packed(seq::PackedSequence::pack(target), pattern,
                                max_bucket);
    for (const SeedIndex* index : {&from_bytes, &from_packed}) {
        SCOPED_TRACE(index == &from_bytes ? "byte source" : "packed source");
        std::uint64_t kept = 0;
        std::uint64_t truncated = 0;
        for (const auto& [key, all] : scan) {
            const std::size_t n = std::min<std::size_t>(all.size(),
                                                        max_bucket);
            const auto got = index->lookup(key);
            ASSERT_EQ(std::vector<std::uint32_t>(got.begin(), got.end()),
                      std::vector<std::uint32_t>(all.begin(),
                                                 all.begin() + n))
                << "key " << key;
            ASSERT_EQ(index->over_represented(key), all.size() > max_bucket)
                << "key " << key;
            kept += n;
            truncated += all.size() > max_bucket ? 1 : 0;
        }
        Rng rng(target.size() + pattern.weight());
        for (int i = 0; i < 2000; ++i) {
            const auto key =
                static_cast<SeedKey>(rng.uniform(pattern.key_space()));
            if (scan.count(key) != 0)
                continue;
            ASSERT_TRUE(index->lookup(key).empty()) << "key " << key;
            ASSERT_FALSE(index->over_represented(key)) << "key " << key;
        }
        EXPECT_EQ(index->num_positions(), kept);
        EXPECT_EQ(index->truncated_buckets(), truncated);
        EXPECT_EQ(index->skipped_windows(), skipped);
        EXPECT_EQ(index->directory().size(),
                  (std::size_t{1} << index->dir_bits()) + 1);
    }
    EXPECT_EQ(from_packed.dir_bits(), from_bytes.dir_bits());
    EXPECT_TRUE(std::ranges::equal(from_packed.directory(),
                                   from_bytes.directory()));
    EXPECT_TRUE(std::ranges::equal(from_packed.suffixes(),
                                   from_bytes.suffixes()));
    EXPECT_TRUE(std::ranges::equal(from_packed.positions(),
                                   from_bytes.positions()));
    EXPECT_TRUE(std::ranges::equal(from_packed.repeat_keys(),
                                   from_bytes.repeat_keys()));
}

TEST(SeedIndexDiff, EmptyAndShorterThanTheSeedSpan)
{
    const auto pattern = SeedPattern::lastz_default();
    for (const std::size_t len : {0u, 1u, 18u, 19u}) {
        SCOPED_TRACE(len);
        const auto target = random_sequence(len, 3);
        expect_matches_window_scan(target, pattern);
        const SeedIndex index(target, pattern);
        EXPECT_EQ(index.dir_bits(), 16u);  // the floor: key_bits - 8
        EXPECT_EQ(index.num_positions(), len == 19 ? 1u : 0u);
    }
}

TEST(SeedIndexDiff, OneKbpTargetsAcrossSeedWeights)
{
    // Weights 4 (an 8-bit key: dense directory, no suffixes), 6, 9 and
    // the default 12.
    for (const char* shape : {"1111", "110111", "1101101101111",
                              "1101011001100101111"}) {
        SCOPED_TRACE(shape);
        for (const std::uint64_t seed : {1u, 2u, 3u})
            expect_matches_window_scan(random_sequence(1000, seed),
                                       SeedPattern(shape));
    }
    EXPECT_TRUE(SeedIndex(random_sequence(1000, 1), SeedPattern("1111"))
                    .suffixes()
                    .empty());
}

TEST(SeedIndexDiff, DirectoryWidthAtTheWindowBoundaries)
{
    // The directory grows one bit each time the window count passes a
    // power of two, from the 2^16 floor of a 24-bit key.
    const auto pattern = SeedPattern::lastz_default();
    const std::size_t span = pattern.span();
    const struct {
        std::size_t windows;
        std::uint32_t dir_bits;
    } cases[] = {{std::size_t{1} << 16, 16},
                 {(std::size_t{1} << 16) + 1, 17},
                 {std::size_t{1} << 17, 17},
                 {(std::size_t{1} << 17) + 1, 18}};
    for (const auto& c : cases) {
        SCOPED_TRACE(c.windows);
        const auto target = random_sequence(c.windows + span - 1, 5);
        EXPECT_EQ(SeedIndex(target, pattern).dir_bits(), c.dir_bits);
        expect_matches_window_scan(target, pattern);
    }
}

TEST(SeedIndexDiff, NRunsAreSkipped)
{
    auto target = random_sequence(5000, 6);
    for (std::size_t i = 0; i < 300; ++i) {
        target.codes()[1000 + i] = seq::BaseN;
        target.codes()[3100 + i % 7] = seq::BaseN;
    }
    target.codes()[4999] = seq::BaseN;
    expect_matches_window_scan(target, SeedPattern::lastz_default());
    expect_matches_window_scan(target, SeedPattern("1111"));
}

TEST(SeedIndexDiff, RepeatsForceTruncation)
{
    // Poly-A: one key over every window. A tandem repeat of period 7:
    // seven keys interleaved across one long stretch. Both must keep
    // exactly the first max_bucket positions per key.
    const seq::Sequence poly_a("a", std::string(6000, 'A'));
    std::string tandem;
    while (tandem.size() < 6000)
        tandem += "ACGTTGA";
    const seq::Sequence repeat("r", tandem);
    for (const std::uint32_t cap : {1u, 16u, 256u}) {
        SCOPED_TRACE(cap);
        expect_matches_window_scan(poly_a, SeedPattern::lastz_default(),
                                   cap);
        expect_matches_window_scan(repeat, SeedPattern::lastz_default(),
                                   cap);
        expect_matches_window_scan(repeat, SeedPattern("11011"), cap);
    }
    EXPECT_EQ(SeedIndex(poly_a, SeedPattern::lastz_default(), 16)
                  .truncated_buckets(),
              1u);
}

TEST(SeedIndex, SpacedPatternIndexesCorrectKey)
{
    const SeedPattern pattern("1011");
    const seq::Sequence target("t", "AGCTA");
    const SeedIndex index(target, pattern);
    // Window 0: A?CT -> key from A,C,T. A query window "AACT" must match.
    const auto probe = seq::encode_string("AACT");
    const auto key = *pattern.key_at({probe.data(), probe.size()}, 0);
    const auto hits = index.lookup(key);
    ASSERT_EQ(hits.size(), 1u);
    EXPECT_EQ(hits[0], 0u);
}

TEST(Dsoft, FindsPlantedMatchOncePerBand)
{
    // Target and query share one exact 40bp region; every seed position in
    // it hits, but D-SOFT must emit a single candidate for the band.
    Rng rng(71);
    auto target = random_sequence(400, 72);
    auto query = random_sequence(400, 73);
    for (std::size_t i = 0; i < 40; ++i)
        query.codes()[200 + i] = target.codes()[100 + i];

    const SeedPattern pattern("11111111");
    const SeedIndex index(target, pattern);
    DsoftParams params;
    params.chunk_size = 400;  // whole query in one chunk
    params.bin_size = 128;
    params.transitions = false;
    const DsoftSeeder seeder(index, params);
    SeedingStats stats;
    const auto hits = seeder.seed_all(query, &stats);
    ASSERT_GE(hits.size(), 1u);
    // All hits on the planted diagonal are collapsed to one band; random
    // 8-mers may add a few more elsewhere.
    std::size_t planted = 0;
    for (const auto& hit : hits) {
        const std::int64_t diag = static_cast<std::int64_t>(hit.target_pos) -
                                  static_cast<std::int64_t>(hit.query_pos);
        if (diag == -100)
            ++planted;
    }
    EXPECT_EQ(planted, 1u);
    EXPECT_GT(stats.seed_hits, 20u);  // the raw hits were all enumerated
    EXPECT_EQ(stats.candidates, hits.size());
}

TEST(Dsoft, ThresholdFiltersIsolatedHits)
{
    Rng rng(74);
    auto target = random_sequence(2000, 75);
    auto query = random_sequence(2000, 76);
    for (std::size_t i = 0; i < 60; ++i)
        query.codes()[1000 + i] = target.codes()[500 + i];

    const SeedPattern pattern("111111111");
    const SeedIndex index(target, pattern);
    DsoftParams params;
    params.chunk_size = 128;
    params.bin_size = 128;
    params.transitions = false;
    params.min_hits_per_band = 4;
    const DsoftSeeder seeder(index, params);
    const auto hits = seeder.seed_all(query);
    // Only the planted 60bp run produces >= 4 collinear hits per band.
    ASSERT_GE(hits.size(), 1u);
    for (const auto& hit : hits) {
        const std::int64_t diag = static_cast<std::int64_t>(hit.target_pos) -
                                  static_cast<std::int64_t>(hit.query_pos);
        EXPECT_EQ(diag, -500);
    }
}

TEST(Dsoft, TransitionsRecoverTransitionMutatedSeeds)
{
    // Mutate one seed position with a transition; exact seeding misses it,
    // 1-transition seeding finds it.
    Rng rng(77);
    auto target = random_sequence(600, 78);
    auto query = random_sequence(600, 79);
    for (std::size_t i = 0; i < 19; ++i)
        query.codes()[300 + i] = target.codes()[200 + i];
    // Apply a transition at a match position of the 12of19 pattern (offset
    // 0 is a '1' position).
    query.codes()[300] = seq::transition_partner(query.codes()[300]);

    const SeedPattern pattern = SeedPattern::lastz_default();
    const SeedIndex index(target, pattern);

    DsoftParams exact;
    exact.chunk_size = 600;
    exact.transitions = false;
    const auto exact_hits = DsoftSeeder(index, exact).seed_all(query);
    bool exact_found = false;
    for (const auto& hit : exact_hits) {
        if (hit.target_pos == 200 && hit.query_pos == 300)
            exact_found = true;
    }
    EXPECT_FALSE(exact_found);

    DsoftParams with_tr = exact;
    with_tr.transitions = true;
    const auto tr_hits = DsoftSeeder(index, with_tr).seed_all(query);
    bool tr_found = false;
    for (const auto& hit : tr_hits) {
        if (hit.target_pos == 200 && hit.query_pos == 300)
            tr_found = true;
    }
    EXPECT_TRUE(tr_found);
}

TEST(Dsoft, LookupCountsTransitionMultiplier)
{
    const SeedPattern pattern = SeedPattern::lastz_default();
    auto target = random_sequence(500, 80);
    auto query = random_sequence(500, 81);
    const SeedIndex index(target, pattern);

    DsoftParams params;
    params.chunk_size = 500;
    params.transitions = false;
    SeedingStats without;
    DsoftSeeder(index, params).seed_all(query, &without);

    params.transitions = true;
    SeedingStats with;
    DsoftSeeder(index, params).seed_all(query, &with);

    // (m+1) = 13 lookups per position with 1 transition allowed.
    EXPECT_EQ(with.seed_lookups, without.seed_lookups * 13);
}

TEST(Dsoft, ParallelMatchesSerial)
{
    Rng rng(82);
    auto target = random_sequence(3000, 83);
    auto query = random_sequence(3000, 84);
    for (std::size_t i = 0; i < 100; ++i)
        query.codes()[700 + i] = target.codes()[1500 + i];
    const SeedPattern pattern("1110110111");
    const SeedIndex index(target, pattern);
    DsoftParams params;
    params.chunk_size = 64;
    const DsoftSeeder seeder(index, params);
    const auto serial = seeder.seed_all(query);
    ThreadPool pool(4);
    const auto parallel = seeder.seed_all(query, nullptr, &pool);
    EXPECT_EQ(serial, parallel);
}

TEST(Dsoft, StrideSkipsPositions)
{
    auto target = random_sequence(1000, 85);
    const SeedPattern pattern("11111111");
    const SeedIndex index(target, pattern);
    DsoftParams params;
    params.chunk_size = 1000;
    params.transitions = false;
    SeedingStats s1, s4;
    DsoftSeeder(index, params).seed_all(target, &s1);
    params.query_stride = 4;
    DsoftSeeder(index, params).seed_all(target, &s4);
    EXPECT_NEAR(static_cast<double>(s1.seed_lookups) / 4.0,
                static_cast<double>(s4.seed_lookups),
                static_cast<double>(s1.seed_lookups) * 0.01 + 2);
}

}  // namespace
}  // namespace darwin::seed
