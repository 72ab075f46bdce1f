/**
 * @file
 * Absolute goldens for the end-to-end pipeline.
 *
 * Every other identity test is relative: one mode of the pipeline must
 * equal another. A change that moves all modes at once passes those
 * tests unnoticed. These cases pin the output itself on one fixed
 * synthetic pair (the one `darwin-wga synthesize --pair ce11-cb4
 * --size 20000` writes) under both presets: the FNV-1a digest of the
 * rendered MAF, the alignment count and the matched bp. Every entry
 * point that can run a preset must reproduce them, with or without a
 * thread pool.
 *
 * A failing case here is a behaviour change. Re-pin only with a
 * CHANGES.md line saying what changed in the alignments and why.
 */
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "batch/scheduler.h"
#include "seed/seed_index.h"
#include "synth/species.h"
#include "util/digest.h"
#include "util/thread_pool.h"
#include "wga/chain_io.h"
#include "wga/maf.h"
#include "wga/pipeline.h"

namespace darwin::wga {
namespace {

/** The pinned output of one preset on the golden pair. */
struct Golden {
    std::string maf_digest;    ///< fnv1a64 of the MAF text, 16 hex digits
    std::string chain_digest;  ///< fnv1a64 of the chain text, 16 hex digits
    std::size_t alignments = 0;
    std::uint64_t matched_bp = 0;
};

/** Two 20 kbp chromosomes per genome, one exon per 2500 bp, seed 1:
 *  the CLI synthesize defaults at --size 20000. */
const synth::SpeciesPair&
golden_pair()
{
    static const synth::SpeciesPair pair = [] {
        synth::AncestorConfig shape;
        shape.num_chromosomes = 2;
        shape.chromosome_length = 20000;
        shape.exons_per_chromosome = 20000 / 2500;
        return synth::make_species_pair(
            synth::find_species_pair("ce11-cb4"), shape, 1);
    }();
    return pair;
}

std::string
text_digest(const std::ostringstream& out)
{
    const std::string text = out.str();
    return digest_hex(fnv1a64_bytes(
        {reinterpret_cast<const std::uint8_t*>(text.data()), text.size()}));
}

void
expect_golden(const WgaResult& result, const Golden& golden,
              const char* entry_point)
{
    SCOPED_TRACE(entry_point);
    const synth::SpeciesPair& pair = golden_pair();
    std::ostringstream maf;
    write_maf(maf, result.alignments, pair.target.genome, pair.query.genome);
    std::ostringstream chains;
    write_chains(chains, result, pair.target.genome, pair.query.genome);

    std::uint64_t matched_bp = 0;
    for (const align::Alignment& alignment : result.alignments)
        matched_bp += alignment.matched_bases();

    EXPECT_EQ(text_digest(maf), golden.maf_digest);
    EXPECT_EQ(text_digest(chains), golden.chain_digest);
    EXPECT_EQ(result.alignments.size(), golden.alignments);
    EXPECT_EQ(matched_bp, golden.matched_bp);
}

WgaResult
run_with_built_index(const WgaPipeline& pipeline)
{
    const synth::SpeciesPair& pair = golden_pair();
    const seq::Sequence& target = pair.target.genome.flattened();
    const seed::SeedIndex index(
        target, seed::SeedPattern(pipeline.params().seed_pattern));
    return pipeline.run_with_index(index, target,
                                   pair.query.genome.flattened());
}

/** The golden pair twice through the batch engine on two workers (the
 *  second entry shares the first's target index); both results must
 *  match the golden. */
void
expect_batch_golden(const WgaParams& params, bool streaming,
                    const Golden& golden, const char* entry_point)
{
    const synth::SpeciesPair& pair = golden_pair();
    batch::BatchOptions options;
    options.params = params;
    options.num_threads = 2;
    options.streaming = streaming;
    batch::BatchScheduler scheduler(options);
    const auto results = scheduler.run(
        {{"golden#0", &pair.target.genome, &pair.query.genome},
         {"golden#1", &pair.target.genome, &pair.query.genome}});
    ASSERT_EQ(results.size(), 2u);
    for (const batch::BatchPairResult& result : results) {
        EXPECT_EQ(result.status, fault::PairStatus::Clean) << result.name;
        expect_golden(result.result, golden, entry_point);
    }
}

TEST(Golden, DarwinPresetCe11Cb4)
{
    const Golden golden{"8dd2807ac7c79133", "2a8fb651065c896f", 68, 41121};
    const synth::SpeciesPair& pair = golden_pair();
    const WgaPipeline pipeline(WgaParams::darwin_defaults());
    expect_golden(pipeline.run(pair.target.genome, pair.query.genome),
                  golden, "run");
    ThreadPool pool(2);
    expect_golden(
        pipeline.run(pair.target.genome, pair.query.genome, &pool), golden,
        "run on a pool");
    expect_golden(pipeline.run_packed(pair.target.genome, pair.query.genome),
                  golden, "run_packed");
    expect_golden(run_with_built_index(pipeline), golden, "run_with_index");
    expect_batch_golden(pipeline.params(), false, golden, "BatchScheduler");
    expect_batch_golden(pipeline.params(), true, golden,
                        "BatchScheduler streaming");
}

TEST(Golden, LastzPresetCe11Cb4)
{
    const Golden golden{"a77de2a1a776c0f6", "b6cdccec3e61894f", 42, 32273};
    const synth::SpeciesPair& pair = golden_pair();
    const WgaPipeline pipeline(WgaParams::lastz_defaults());
    expect_golden(pipeline.run(pair.target.genome, pair.query.genome),
                  golden, "run");
    expect_golden(run_with_built_index(pipeline), golden, "run_with_index");
    expect_batch_golden(pipeline.params(), false, golden, "BatchScheduler");
}

}  // namespace
}  // namespace darwin::wga
