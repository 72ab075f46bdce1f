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
 * runs through every way WgaPipeline::run can execute a preset: byte
 * and packed storage, with or without a thread pool, a prebuilt or a
 * persisted index (save_index -> load_index), and the batch engine.
 * The three dm6 pairs run through the plain run and a persisted index.
 * The pinned matched bp must also keep the paper's Table III ordering.
 *
 * A failing case here is a behaviour change. Re-pin only with a
 * CHANGES.md line saying what changed in the alignments and why.
 */
#include <gtest/gtest.h>

#include <iterator>
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

/** The pins of one pair under both presets. */
struct PairGoldens {
    const char* pair;
    Golden darwin;
    Golden lastz;
};

/** Every pinned pair, from the most divergent to the closest. */
const PairGoldens kGoldens[] = {
    {"ce11-cb4",
     {"8dd2807ac7c79133", "2a8fb651065c896f", 68, 41121},
     {"a77de2a1a776c0f6", "b6cdccec3e61894f", 42, 32273}},
    {"dm6-dp4",
     {"96fe555d911866dd", "dff75732c74c9511", 88, 50420},
     {"cb1d55c9e3819e9d", "6e14e7eadd24e818", 67, 43328}},
    {"dm6-droYak2",
     {"ce9ee598f372498e", "d11992d871a84b1d", 92, 61310},
     {"20462351a8c80403", "c9ba1f1740217474", 86, 60678}},
    {"dm6-droSim1",
     {"8d0d4da785324b38", "ea6e5305ffe1b87e", 90, 73366},
     {"67100ba756e75cc7", "0ab5895816f69c2c", 91, 73058}},
};

const PairGoldens&
goldens_of(const char* pair)
{
    for (const PairGoldens& goldens : kGoldens) {
        if (std::string(goldens.pair) == pair)
            return goldens;
    }
    ADD_FAILURE() << "no golden for " << pair;
    return kGoldens[0];
}

/** The same genome held 2-bit packed. */
seq::Genome
packed_copy(const seq::Genome& genome)
{
    seq::Genome packed(genome.name());
    for (std::size_t c = 0; c < genome.num_chromosomes(); ++c)
        packed.add_chromosome(
            seq::PackedSequence::pack(genome.chromosome(c)));
    return packed;
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

/** A run over an index built ahead of time from the target's storage
 *  (the serve daemon's path on a packed target). */
WgaResult
run_with_built_index(const WgaPipeline& pipeline, const seq::Genome& target,
                     const seq::Genome& query)
{
    const seed::SeedPattern pattern(pipeline.params().seed_pattern);
    const seed::SeedIndex index =
        target.packed() ? seed::SeedIndex(target.flattened_packed(), pattern)
                        : seed::SeedIndex(target.flattened(), pattern);
    return pipeline.run(target, query, {.index = &index});
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
    return pipeline.run(pair.target.genome, pair.query.genome,
                        {.index = loaded.get()});
}

/** The golden pair (by default in byte storage) twice through the batch
 *  engine on two workers (the second entry shares the first's genomes
 *  and target index); both results must match the golden. */
void
expect_batch_golden(const WgaParams& params, const Golden& golden,
                    const char* entry_point,
                    const seq::Genome& target = golden_pair().target.genome,
                    const seq::Genome& query = golden_pair().query.genome)
{
    batch::BatchOptions options;
    options.params = params;
    options.num_threads = 2;
    batch::BatchScheduler scheduler(options);
    const auto results = scheduler.run({{"golden#0", &target, &query},
                                        {"golden#1", &target, &query}});
    ASSERT_EQ(results.size(), 2u);
    for (const batch::BatchPairResult& result : results) {
        EXPECT_EQ(result.status, fault::PairStatus::Clean) << result.name;
        expect_golden(result.result, golden, entry_point);
    }
}

TEST(Golden, DarwinPresetCe11Cb4)
{
    const Golden& golden = goldens_of("ce11-cb4").darwin;
    const synth::SpeciesPair& pair = golden_pair();
    const seq::Genome& target = pair.target.genome;
    const seq::Genome& query = pair.query.genome;
    const seq::Genome packed_target = packed_copy(target);
    const seq::Genome packed_query = packed_copy(query);
    const WgaPipeline pipeline(WgaParams::darwin_defaults());
    expect_golden(pipeline.run(target, query), golden, "run");
    ThreadPool pool(2);
    expect_golden(pipeline.run(target, query, {.pool = &pool}), golden,
                  "run on a pool");
    expect_golden(pipeline.run(packed_target, packed_query), golden,
                  "packed genomes");
    expect_golden(run_with_built_index(pipeline, target, query), golden,
                  "prebuilt index");
    expect_golden(run_with_built_index(pipeline, packed_target, packed_query),
                  golden, "packed genomes, prebuilt index");
    expect_golden(run_with_saved_index(pipeline), golden, "saved index");
    expect_golden(pipeline.run(packed_target, packed_query, {.pool = &pool}),
                  golden, "packed genomes on a pool");
    expect_batch_golden(pipeline.params(), golden, "BatchScheduler");
    expect_batch_golden(pipeline.params(), golden,
                        "BatchScheduler, packed genomes", packed_target,
                        packed_query);
}

TEST(Golden, LastzPresetCe11Cb4)
{
    const Golden& golden = goldens_of("ce11-cb4").lastz;
    const synth::SpeciesPair& pair = golden_pair();
    const WgaPipeline pipeline(WgaParams::lastz_defaults());
    expect_golden(pipeline.run(pair.target.genome, pair.query.genome),
                  golden, "run");
    expect_golden(
        run_with_built_index(pipeline, pair.target.genome, pair.query.genome),
        golden, "prebuilt index");
    expect_golden(run_with_saved_index(pipeline), golden, "saved index");
    expect_batch_golden(pipeline.params(), golden, "BatchScheduler");
}

/** One dm6 pair under both presets, through the plain run and the
 *  persisted index. */
void
expect_pair_golden(const char* name)
{
    const PairGoldens& goldens = goldens_of(name);
    const synth::SpeciesPair pair = make_golden_pair(name);
    const struct {
        const char* preset;
        WgaParams params;
        const Golden& golden;
    } cases[] = {
        {"darwin preset", WgaParams::darwin_defaults(), goldens.darwin},
        {"lastz preset", WgaParams::lastz_defaults(), goldens.lastz}};
    for (const auto& c : cases) {
        SCOPED_TRACE(c.preset);
        const WgaPipeline pipeline(c.params);
        expect_golden(pipeline.run(pair.target.genome, pair.query.genome),
                      c.golden, "run", pair);
        expect_golden(run_with_saved_index(pipeline, pair), c.golden,
                      "saved index", pair);
    }
}

TEST(Golden, BothPresetsDm6Dp4)
{
    expect_pair_golden("dm6-dp4");
}

TEST(Golden, BothPresetsDm6DroYak2)
{
    expect_pair_golden("dm6-droYak2");
}

TEST(Golden, BothPresetsDm6DroSim1)
{
    expect_pair_golden("dm6-droSim1");
}

// Paper Table III: gapped filtering aligns at least as many bases as
// the ungapped baseline on every pair, and its advantage does not
// shrink as the species diverge. Read from the pins, which the cases
// above hold to the pipeline's actual output.
TEST(Golden, TableIIIOrderingHoldsOnThePins)
{
    double closer_ratio = 0.0;
    for (auto it = std::rbegin(kGoldens); it != std::rend(kGoldens); ++it) {
        SCOPED_TRACE(it->pair);
        EXPECT_GE(it->darwin.matched_bp, it->lastz.matched_bp);
        const double ratio = static_cast<double>(it->darwin.matched_bp) /
                             static_cast<double>(it->lastz.matched_bp);
        EXPECT_GE(ratio, closer_ratio);
        closer_ratio = ratio;
    }
}

}  // namespace
}  // namespace darwin::wga
