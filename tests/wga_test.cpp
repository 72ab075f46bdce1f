/**
 * @file
 * Integration tests for the WGA pipeline: filter stage behavior, anchor
 * absorption, the Darwin vs LASTZ-like configurations end-to-end on small
 * synthetic genomes, and MAF output.
 */
#include <gtest/gtest.h>

#include <sstream>

#include "align/gactx.h"
#include "seed/seed_pattern.h"
#include "seq/packed_sequence.h"
#include "synth/species.h"
#include "util/rng.h"
#include "wga/extend_stage.h"
#include "wga/filter_stage.h"
#include "wga/maf.h"
#include "wga/pipeline.h"

namespace darwin::wga {
namespace {

std::vector<std::uint8_t>
random_codes(std::size_t len, Rng& rng)
{
    std::vector<std::uint8_t> codes(len);
    for (auto& c : codes)
        c = static_cast<std::uint8_t>(rng.uniform(4));
    return codes;
}

std::span<const std::uint8_t>
sp(const std::vector<std::uint8_t>& v)
{
    return {v.data(), v.size()};
}

/** A pair of sequences sharing one planted conserved region. */
struct PlantedPair {
    std::vector<std::uint8_t> target;
    std::vector<std::uint8_t> query;
    std::size_t t_start;  ///< planted region start in target
    std::size_t q_start;  ///< and in query
    std::size_t length;
};

PlantedPair
make_planted(std::size_t noise, std::size_t planted, double sub_rate,
             double indel_rate, std::uint64_t seed)
{
    Rng rng(seed);
    PlantedPair out;
    out.length = planted;
    const auto conserved = random_codes(planted, rng);
    out.target = random_codes(noise, rng);
    out.t_start = out.target.size();
    out.target.insert(out.target.end(), conserved.begin(), conserved.end());
    auto tail = random_codes(noise, rng);
    out.target.insert(out.target.end(), tail.begin(), tail.end());

    out.query = random_codes(noise / 2, rng);
    out.q_start = out.query.size();
    for (std::size_t i = 0; i < conserved.size(); ++i) {
        if (rng.chance(indel_rate)) {
            if (rng.chance(0.5))
                continue;
            out.query.push_back(
                static_cast<std::uint8_t>(rng.uniform(4)));
        }
        std::uint8_t base = conserved[i];
        if (rng.chance(sub_rate))
            base = static_cast<std::uint8_t>(rng.uniform(4));
        out.query.push_back(base);
    }
    auto qtail = random_codes(noise / 2, rng);
    out.query.insert(out.query.end(), qtail.begin(), qtail.end());
    return out;
}

TEST(FilterStage, GappedPassesConservedSeed)
{
    const auto pair = make_planted(500, 600, 0.08, 0.01, 101);
    const auto params = WgaParams::darwin_defaults();
    const FilterStage filter(params, sp(pair.target), sp(pair.query));
    const seed::SeedHit hit{pair.t_start + 300, pair.q_start + 295};
    FilterStats stats;
    const auto candidate = filter.filter(hit, &stats);
    ASSERT_TRUE(candidate.has_value());
    EXPECT_GE(candidate->filter_score, params.filter_threshold);
    EXPECT_EQ(stats.tiles, 1u);
    EXPECT_EQ(stats.passed, 1u);
    // Anchor must stay near the seed's neighborhood (within the tile).
    EXPECT_NEAR(static_cast<double>(candidate->anchor_t),
                static_cast<double>(hit.target_pos), 200.0);
}

TEST(FilterStage, GappedRejectsNoiseSeed)
{
    const auto pair = make_planted(2000, 100, 0.5, 0.1, 102);
    const auto params = WgaParams::darwin_defaults();
    const FilterStage filter(params, sp(pair.target), sp(pair.query));
    // A seed hit in pure noise.
    const seed::SeedHit hit{100, 1500};
    const auto candidate = filter.filter(hit);
    EXPECT_FALSE(candidate.has_value());
}

TEST(FilterStage, GappedToleratesIndelsUngappedDoesNot)
{
    // Conserved region with a small indel right next to the seed: the
    // gapped filter passes it, the ungapped filter loses the score.
    Rng rng(103);
    auto target = random_codes(2000, rng);
    auto query = target;
    // Indels tight around the 19bp seed at target 1000..1018: the clean
    // diagonal run is ~24 matches (< LASTZ's 30-match threshold), but the
    // full conserved context within the band is large.
    const auto ins = random_codes(12, rng);
    query.insert(query.begin() + 1021, ins.begin(), ins.end());
    const auto ins2 = random_codes(12, rng);
    query.insert(query.begin() + 997, ins2.begin(), ins2.end());

    auto darwin_params = WgaParams::darwin_defaults();
    const FilterStage gapped(darwin_params, sp(target), sp(query));
    auto lastz_params = WgaParams::lastz_defaults();
    const FilterStage ungapped(lastz_params, sp(target), sp(query));

    // Seed hit at the (now shifted) diagonal: query position 1000+12.
    const seed::SeedHit hit{1000, 1012};
    const auto g = gapped.filter(hit);
    const auto u = ungapped.filter(hit);
    ASSERT_TRUE(g.has_value());
    EXPECT_FALSE(u.has_value());
}

TEST(FilterStage, SortsByDescendingScore)
{
    const auto pair = make_planted(1000, 800, 0.05, 0.0, 104);
    const auto params = WgaParams::darwin_defaults();
    const FilterStage filter(params, sp(pair.target), sp(pair.query));
    std::vector<seed::SeedHit> hits;
    for (std::size_t off = 100; off + 100 < pair.length; off += 150)
        hits.push_back({pair.t_start + off, pair.q_start + off});
    const auto candidates = filter.filter_all(hits);
    ASSERT_GE(candidates.size(), 2u);
    for (std::size_t i = 1; i < candidates.size(); ++i)
        EXPECT_GE(candidates[i - 1].filter_score,
                  candidates[i].filter_score);
}

TEST(FilterStage, ParallelMatchesSerial)
{
    const auto pair = make_planted(1500, 700, 0.1, 0.01, 105);
    const auto params = WgaParams::darwin_defaults();
    const FilterStage filter(params, sp(pair.target), sp(pair.query));
    std::vector<seed::SeedHit> hits;
    for (std::size_t off = 50; off + 100 < pair.length; off += 37)
        hits.push_back({pair.t_start + off, pair.q_start + off});
    FilterStats s1, s2;
    const auto serial = filter.filter_all(hits, &s1);
    ThreadPool pool(4);
    const auto parallel = filter.filter_all(hits, &s2, &pool);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].anchor_t, parallel[i].anchor_t);
        EXPECT_EQ(serial[i].filter_score, parallel[i].filter_score);
    }
    EXPECT_EQ(s1.tiles, s2.tiles);
    EXPECT_EQ(s1.passed, s2.passed);
}

TEST(FilterStage, BatchedTasksMatchPerHitFilter)
{
    // Hits within Tf/2 of either end of either sequence cut truncated
    // tiles, so the batches of filter_hits' tasks mix tile shapes.
    // Serial and pooled, over byte and packed views, every slot and the
    // summed FilterStats must equal per-hit filter() on the byte view.
    const auto pair = make_planted(1500, 1200, 0.1, 0.01, 107);
    const auto params = WgaParams::darwin_defaults();
    const std::size_t half = params.filter_tile / 2;
    const std::size_t span = seed::SeedPattern(params.seed_pattern).span();
    Rng rng(108);
    const auto position = [&](std::size_t size) -> std::uint64_t {
        switch (rng.uniform(3)) {
        case 0:
            return rng.uniform(half);
        case 1:
            return size - span - rng.uniform(half);
        default:
            return rng.uniform(size - span);
        }
    };
    std::vector<seed::SeedHit> hits;
    while (hits.size() < 3 * FilterStage::kTaskHits + 5)
        hits.push_back(
            {position(pair.target.size()), position(pair.query.size())});
    for (std::size_t off = 50; off + 100 < pair.length; off += 61)
        hits.push_back({pair.t_start + off, pair.q_start + off});

    const auto packed_t = seq::PackedSequence::pack("t", sp(pair.target));
    const auto packed_q = seq::PackedSequence::pack("q", sp(pair.query));
    const FilterStage bytes(params, sp(pair.target), sp(pair.query));
    const FilterStage packed(params, seq::BaseView(packed_t),
                             seq::BaseView(packed_q));

    FilterStats want;
    std::vector<std::optional<FilterCandidate>> expected;
    for (const seed::SeedHit& hit : hits)
        expected.push_back(bytes.filter(hit, &want));
    ASSERT_GT(want.passed, 0u);
    ASSERT_LT(want.passed, hits.size());

    ThreadPool pool(3);
    for (const FilterStage* stage : {&bytes, &packed}) {
        for (ThreadPool* threads : {static_cast<ThreadPool*>(nullptr), &pool}) {
            const std::string what = std::string(stage == &bytes ? "byte"
                                                                 : "packed") +
                                     (threads ? " pooled" : " serial");
            FilterStats got;
            const auto slots = stage->filter_hits(hits, &got, threads);
            ASSERT_EQ(slots.size(), hits.size()) << what;
            for (std::size_t i = 0; i < hits.size(); ++i) {
                ASSERT_EQ(slots[i].has_value(), expected[i].has_value())
                    << what << " hit " << i;
                if (!slots[i])
                    continue;
                EXPECT_EQ(slots[i]->anchor_t, expected[i]->anchor_t) << what;
                EXPECT_EQ(slots[i]->anchor_q, expected[i]->anchor_q) << what;
                EXPECT_EQ(slots[i]->filter_score, expected[i]->filter_score)
                    << what;
            }
            EXPECT_EQ(got.tiles, want.tiles) << what;
            EXPECT_EQ(got.cells, want.cells) << what;
            EXPECT_EQ(got.passed, want.passed) << what;
        }
    }
}

TEST(ExtendStage, AbsorbsDuplicateAnchors)
{
    const auto pair = make_planted(500, 900, 0.08, 0.01, 106);
    auto params = WgaParams::darwin_defaults();
    params.gactx.tile_size = 512;
    const align::GactXTileAligner aligner(params.gactx);
    ExtendStage extend(params, sp(pair.target), sp(pair.query));
    // Three anchors inside the same conserved region: the first extension
    // covers the region; the others must be absorbed.
    std::vector<FilterCandidate> candidates = {
        {pair.t_start + 450, pair.q_start + 445, 30000},
        {pair.t_start + 200, pair.q_start + 198, 20000},
        {pair.t_start + 700, pair.q_start + 693, 15000},
    };
    ExtendStats stats;
    const auto alignments = extend.extend_all(candidates, aligner, &stats);
    EXPECT_EQ(stats.anchors_in, 3u);
    // All three land in one wave; the merge suppresses the re-derived
    // paths, so exactly one alignment survives.
    EXPECT_EQ(stats.duplicates, 2u);
    ASSERT_EQ(alignments.size(), 1u);
    EXPECT_GT(alignments[0].score, params.extension_threshold);

    // A fourth anchor, arriving after the wave, is absorbed up front.
    const std::vector<FilterCandidate> later = {
        {pair.t_start + 500, pair.q_start + 495, 10000}};
    ExtendStats stats2;
    const auto more = extend.extend_all(later, aligner, &stats2);
    EXPECT_TRUE(more.empty());
    EXPECT_EQ(stats2.absorbed, 1u);
}

TEST(ExtendStage, DropsBelowThreshold)
{
    Rng rng(107);
    const auto target = random_codes(3000, rng);
    const auto query = random_codes(3000, rng);
    auto params = WgaParams::darwin_defaults();
    params.gactx.tile_size = 256;
    const align::GactXTileAligner aligner(params.gactx);
    ExtendStage extend(params, sp(target), sp(query));
    std::vector<FilterCandidate> candidates = {{1500, 1500, 4000}};
    ExtendStats stats;
    const auto alignments = extend.extend_all(candidates, aligner, &stats);
    EXPECT_TRUE(alignments.empty());
    EXPECT_EQ(stats.extended, 1u);
    EXPECT_EQ(stats.alignments_out, 0u);
}

/** Small species pair shared by the end-to-end tests. */
synth::SpeciesPair
small_pair(const std::string& name, std::size_t chrom_len)
{
    synth::AncestorConfig config;
    config.num_chromosomes = 1;
    config.chromosome_length = chrom_len;
    config.exons_per_chromosome = 10;
    return synth::make_species_pair(synth::find_species_pair(name), config,
                                    4242);
}

TEST(Pipeline, EndToEndFindsConservation)
{
    const auto pair = small_pair("dm6-droSim1", 60000);
    const WgaPipeline pipeline(WgaParams::darwin_defaults());
    ThreadPool pool(4);
    const auto result =
        pipeline.run(pair.target.genome, pair.query.genome, {.pool = &pool});
    // A closely related pair: most of the genome aligns.
    ASSERT_FALSE(result.alignments.empty());
    ASSERT_FALSE(result.chains.empty());
    std::uint64_t matched = 0;
    for (const auto& chain : result.chains)
        matched += chain.matched_bases;
    EXPECT_GT(matched, 30000u);
    // Workload counters are filled.
    EXPECT_GT(result.stats.seeding.seed_lookups, 0u);
    EXPECT_GT(result.stats.filter.tiles, 0u);
    EXPECT_GT(result.stats.extend.extension.tiles, 0u);
}

TEST(Pipeline, DarwinBeatsLastzOnDistantPair)
{
    // The paper's central claim (Table III): gapped filtering recovers
    // more matched base-pairs, and the gap grows with divergence.
    const auto pair = small_pair("ce11-cb4", 60000);
    ThreadPool pool(4);
    const WgaPipeline darwin(WgaParams::darwin_defaults());
    const WgaPipeline lastz(WgaParams::lastz_defaults());
    const auto darwin_result =
        darwin.run(pair.target.genome, pair.query.genome, {.pool = &pool});
    const auto lastz_result =
        lastz.run(pair.target.genome, pair.query.genome, {.pool = &pool});
    std::uint64_t darwin_matched = 0, lastz_matched = 0;
    for (const auto& c : darwin_result.chains)
        darwin_matched += c.matched_bases;
    for (const auto& c : lastz_result.chains)
        lastz_matched += c.matched_bases;
    EXPECT_GT(darwin_matched, lastz_matched);
}

TEST(Pipeline, DeterministicAcrossRuns)
{
    const auto pair = small_pair("dm6-droYak2", 20000);
    const WgaPipeline pipeline(WgaParams::darwin_defaults());
    const auto r1 = pipeline.run(pair.target.genome, pair.query.genome);
    ThreadPool pool(3);
    const auto r2 =
        pipeline.run(pair.target.genome, pair.query.genome, {.pool = &pool});
    ASSERT_EQ(r1.alignments.size(), r2.alignments.size());
    for (std::size_t i = 0; i < r1.alignments.size(); ++i) {
        EXPECT_EQ(r1.alignments[i].target_start,
                  r2.alignments[i].target_start);
        EXPECT_EQ(r1.alignments[i].score, r2.alignments[i].score);
    }
}

TEST(Pipeline, AlignmentsRespectHe)
{
    const auto pair = small_pair("dm6-dp4", 30000);
    const auto params = WgaParams::darwin_defaults();
    const WgaPipeline pipeline(params);
    const auto result = pipeline.run(pair.target.genome, pair.query.genome);
    for (const auto& alignment : result.alignments) {
        EXPECT_GE(alignment.score, params.extension_threshold);
        // Paths match their reported coordinates.
        EXPECT_EQ(alignment.cigar.target_consumed(),
                  alignment.target_span());
        EXPECT_EQ(alignment.cigar.query_consumed(),
                  alignment.query_span());
    }
}

TEST(Maf, WritesWellFormedRecords)
{
    const auto pair = small_pair("dm6-droSim1", 15000);
    const WgaPipeline pipeline(WgaParams::darwin_defaults());
    const auto result = pipeline.run(pair.target.genome, pair.query.genome);
    ASSERT_FALSE(result.alignments.empty());
    std::ostringstream out;
    write_maf(out, result.alignments, pair.target.genome,
              pair.query.genome);
    const std::string maf = out.str();
    EXPECT_NE(maf.find("##maf version=1"), std::string::npos);
    EXPECT_NE(maf.find("a score="), std::string::npos);
    // Both genomes' chromosome names appear.
    EXPECT_NE(maf.find("dm6s_chr1"), std::string::npos);
    EXPECT_NE(maf.find("droSim1s_chr1"), std::string::npos);
    // Gapped texts of the two s-lines have equal length per block.
    std::istringstream lines(maf);
    std::string line;
    std::size_t last_len = 0;
    int s_count = 0;
    while (std::getline(lines, line)) {
        if (line.rfind("s ", 0) == 0) {
            const auto text = line.substr(line.rfind(' ') + 1);
            if (s_count % 2 == 1) {
                EXPECT_EQ(text.size(), last_len);
            }
            last_len = text.size();
            ++s_count;
        }
    }
    EXPECT_GT(s_count, 0);
}

}  // namespace
}  // namespace darwin::wga
