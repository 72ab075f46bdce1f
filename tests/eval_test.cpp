/**
 * @file
 * Tests for the evaluation module: sensitivity summaries, exon recovery
 * against planted ground truth, the FPR noise analysis, and the Fig. 2
 * block statistics.
 */
#include <gtest/gtest.h>

#include "eval/block_stats.h"
#include "eval/exon_eval.h"
#include "eval/fpr.h"
#include "eval/sensitivity.h"
#include "synth/species.h"

namespace darwin::eval {
namespace {

synth::SpeciesPair
small_pair(const std::string& name, std::size_t chrom_len,
           std::size_t exons = 12)
{
    synth::AncestorConfig config;
    config.num_chromosomes = 1;
    config.chromosome_length = chrom_len;
    config.exons_per_chromosome = exons;
    return synth::make_species_pair(synth::find_species_pair(name), config,
                                    777);
}

TEST(Sensitivity, ImprovementHelpers)
{
    EXPECT_DOUBLE_EQ(improvement_percent(100, 105.73), 5.73);
    EXPECT_DOUBLE_EQ(improvement_percent(0, 0), 0.0);
    EXPECT_DOUBLE_EQ(improvement_ratio(100, 312), 3.12);
    EXPECT_DOUBLE_EQ(improvement_ratio(0, 0), 1.0);
}

TEST(Sensitivity, SummaryCountsChains)
{
    wga::WgaResult result;
    result.alignments.resize(3);
    chain::Chain c1;
    c1.score = 100;
    c1.matched_bases = 50;
    result.chains.push_back(c1);
    const auto summary = summarize(result, 10);
    EXPECT_EQ(summary.num_alignments, 3u);
    EXPECT_EQ(summary.chains.num_chains, 1u);
    EXPECT_DOUBLE_EQ(summary.chains.top_k_score, 100.0);
}

TEST(ExonEval, FlattenPairsByName)
{
    const auto pair = small_pair("dm6-droSim1", 20000);
    const auto exons = flatten_exons(pair.target, pair.query);
    EXPECT_EQ(exons.size(), pair.target.total_exons());
    for (const auto& exon : exons) {
        EXPECT_FALSE(exon.target.empty());
        EXPECT_FALSE(exon.query.empty());
    }
}

TEST(ExonEval, RecoversExonsCoveredByChains)
{
    const auto pair = small_pair("dm6-droSim1", 40000);
    const wga::WgaPipeline pipeline(wga::WgaParams::darwin_defaults());
    ThreadPool pool(4);
    const auto result =
        pipeline.run(pair.target.genome, pair.query.genome, {.pool = &pool});
    const auto exons = flatten_exons(pair.target, pair.query);
    const auto recovered = count_recovered_exons(exons, result);
    EXPECT_EQ(recovered.total_exons, exons.size());
    // A close pair with conserved exons: nearly everything is found.
    EXPECT_GT(recovered.fraction(), 0.8);
}

TEST(ExonEval, NoChainsRecoverNothing)
{
    const auto pair = small_pair("dm6-droSim1", 15000);
    const auto exons = flatten_exons(pair.target, pair.query);
    wga::WgaResult empty;
    const auto recovered = count_recovered_exons(exons, empty);
    EXPECT_EQ(recovered.recovered, 0u);
    EXPECT_DOUBLE_EQ(recovered.fraction(), 0.0);
}

TEST(ExonEval, QueryWindowRejectsWrongCopy)
{
    // A block covering the target exon but mapping elsewhere in the query
    // must not count as recovery.
    FlatExon exon{"e", {1000, 1200}, {5000, 5200}};
    wga::WgaResult result;
    align::Alignment a;
    a.target_start = 900;
    a.target_end = 1300;
    a.query_start = 50000;  // far from the query copy
    a.query_end = 50400;
    a.score = 10000;
    a.cigar.push(align::EditOp::Match, 400);
    result.alignments.push_back(a);
    chain::Chain c;
    c.members = {0};
    c.score = 10000;
    result.chains.push_back(c);
    const auto recovered = count_recovered_exons({exon}, result);
    EXPECT_EQ(recovered.recovered, 0u);

    // Same block remapped near the true copy: recovery.
    result.alignments[0].query_start = 4900;
    result.alignments[0].query_end = 5300;
    const auto recovered2 = count_recovered_exons({exon}, result);
    EXPECT_EQ(recovered2.recovered, 1u);
}

TEST(BlockStats, SplitsAtIndels)
{
    align::Cigar cigar;
    cigar.push(align::EditOp::Match, 40);
    cigar.push(align::EditOp::Insert, 2);
    cigar.push(align::EditOp::Match, 10);
    cigar.push(align::EditOp::Mismatch, 5);
    cigar.push(align::EditOp::Match, 10);
    cigar.push(align::EditOp::Delete, 1);
    cigar.push(align::EditOp::Match, 3);
    const auto blocks = ungapped_blocks(cigar);
    ASSERT_EQ(blocks.size(), 3u);
    EXPECT_EQ(blocks[0], 40u);
    EXPECT_EQ(blocks[1], 25u);  // 10 + 5X + 10 is one gapless block
    EXPECT_EQ(blocks[2], 3u);
}

TEST(BlockStats, DistantPairHasShorterBlocks)
{
    // Fig. 2's message: indel density rises with divergence, so ungapped
    // blocks shrink.
    ThreadPool pool(4);
    const wga::WgaPipeline pipeline(wga::WgaParams::darwin_defaults());
    const auto close_pair = small_pair("dm6-droSim1", 40000);
    const auto far_pair = small_pair("ce11-cb4", 40000);
    const auto close_result =
        pipeline.run(close_pair.target.genome, close_pair.query.genome,
                     {.pool = &pool});
    const auto far_result = pipeline.run(
        far_pair.target.genome, far_pair.query.genome, {.pool = &pool});
    const auto close_stats = collect_block_stats(close_result);
    const auto far_stats = collect_block_stats(far_result);
    ASSERT_FALSE(close_stats.lengths.empty());
    ASSERT_FALSE(far_stats.lengths.empty());
    EXPECT_GT(close_stats.mean_length, far_stats.mean_length);
    EXPECT_GT(far_stats.fraction_below_30bp,
              close_stats.fraction_below_30bp);
}

TEST(Fpr, ShuffledTargetYieldsAlmostNothing)
{
    const auto pair = small_pair("dm6-droSim1", 30000);
    const wga::WgaPipeline pipeline(wga::WgaParams::darwin_defaults());
    ThreadPool pool(4);
    const auto result = noise_analysis(pipeline, pair.target.genome,
                                       pair.query.genome, 1, 555, &pool);
    EXPECT_GT(result.real_matched_bases, 10000u);
    // The paper reports FPR ~0.0007%; allow generous slack at this scale.
    EXPECT_LT(result.rate(), 0.01);
}

}  // namespace
}  // namespace darwin::eval
