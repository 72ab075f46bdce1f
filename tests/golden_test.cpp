/**
 * @file
 * Absolute goldens for the end-to-end pipeline.
 *
 * Every other identity test is relative: one mode of the pipeline must
 * equal another. A change that moves all modes at once passes those
 * tests unnoticed. These cases pin the output itself on fixed synthetic
 * pairs (the ones `darwin-wga synthesize --pair NAME --size 20000`
 * writes) under both presets: the FNV-1a digests of the rendered MAF
 * and chain files, the alignment count and the matched bp. ce11-cb4
 * runs through every entry point that can run a preset, with or
 * without a thread pool; the three dm6 pairs through the plain run and
 * a persisted index (save_index -> load_index -> run_with_index).
 *
 * A failing case here is a behaviour change. Re-pin only with a
 * CHANGES.md line saying what changed in the alignments and why.
 */
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "batch/scheduler.h"
#include "index/index_io.h"
#include "scratch_dir.h"
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
synth::SpeciesPair
make_golden_pair(const char* name)
{
    synth::AncestorConfig shape;
    shape.num_chromosomes = 2;
    shape.chromosome_length = 20000;
    shape.exons_per_chromosome = 20000 / 2500;
    return synth::make_species_pair(synth::find_species_pair(name), shape,
                                    1);
}

const synth::SpeciesPair&
golden_pair()
{
    static const synth::SpeciesPair pair = make_golden_pair("ce11-cb4");
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
              const char* entry_point,
              const synth::SpeciesPair& pair = golden_pair())
{
    SCOPED_TRACE(entry_point);
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

/** The target's index through a `.dwi` file: built, saved, mapped back
 *  and aligned against — the persisted-index round trip pinned
 *  absolutely. */
WgaResult
run_with_saved_index(const WgaPipeline& pipeline,
                     const synth::SpeciesPair& pair = golden_pair())
{
    static const test::ScratchDir dir("golden");
    const std::string path = dir.file("golden.dwi");
    const seq::Sequence& target = pair.target.genome.flattened();
    index::save_index(
        path,
        seed::SeedIndex(target,
                        seed::SeedPattern(pipeline.params().seed_pattern)),
        index::sequence_digest(target), target.size());
    const auto loaded = index::load_index(path);
    return pipeline.run_with_index(*loaded, target,
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
    expect_golden(run_with_saved_index(pipeline), golden,
                  "saved index run_with_index");
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
    expect_golden(run_with_saved_index(pipeline), golden,
                  "saved index run_with_index");
    expect_batch_golden(pipeline.params(), false, golden, "BatchScheduler");
}

/** One dm6 pair under both presets, through the plain run and the
 *  persisted index. */
void
expect_pair_golden(const char* name, const Golden& darwin,
                   const Golden& lastz)
{
    const synth::SpeciesPair pair = make_golden_pair(name);
    const struct {
        const char* preset;
        WgaParams params;
        const Golden& golden;
    } cases[] = {{"darwin preset", WgaParams::darwin_defaults(), darwin},
                 {"lastz preset", WgaParams::lastz_defaults(), lastz}};
    for (const auto& c : cases) {
        SCOPED_TRACE(c.preset);
        const WgaPipeline pipeline(c.params);
        expect_golden(pipeline.run(pair.target.genome, pair.query.genome),
                      c.golden, "run", pair);
        expect_golden(run_with_saved_index(pipeline, pair), c.golden,
                      "saved index run_with_index", pair);
    }
}

TEST(Golden, BothPresetsDm6Dp4)
{
    expect_pair_golden("dm6-dp4",
                       {"96fe555d911866dd", "dff75732c74c9511", 88, 50420},
                       {"cb1d55c9e3819e9d", "6e14e7eadd24e818", 67, 43328});
}

TEST(Golden, BothPresetsDm6DroYak2)
{
    expect_pair_golden("dm6-droYak2",
                       {"ce9ee598f372498e", "d11992d871a84b1d", 92, 61310},
                       {"20462351a8c80403", "c9ba1f1740217474", 86, 60678});
}

TEST(Golden, BothPresetsDm6DroSim1)
{
    expect_pair_golden("dm6-droSim1",
                       {"8d0d4da785324b38", "ea6e5305ffe1b87e", 90, 73366},
                       {"67100ba756e75cc7", "0ab5895816f69c2c", 91, 73058});
}

}  // namespace
}  // namespace darwin::wga
