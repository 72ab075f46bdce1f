/**
 * @file
 * Tests for WgaPipeline::run's one dataflow: the batched seed+filter
 * half of a strand pass (seed_and_filter) against seed_all + filter_all
 * over the whole query, and the bit-identity of byte and packed storage.
 */
#include <gtest/gtest.h>

#include <sstream>

#include "fault/cancel.h"
#include "seed/dsoft.h"
#include "seed/seed_index.h"
#include "seq/genome.h"
#include "synth/species.h"
#include "util/thread_pool.h"
#include "wga/maf.h"
#include "wga/pipeline.h"

namespace darwin::wga {
namespace {

/** Small species pair shared by the identity tests. */
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

void
expect_identical(const WgaResult& a, const WgaResult& b)
{
    ASSERT_EQ(a.alignments.size(), b.alignments.size());
    for (std::size_t i = 0; i < a.alignments.size(); ++i) {
        EXPECT_EQ(a.alignments[i].target_start,
                  b.alignments[i].target_start);
        EXPECT_EQ(a.alignments[i].query_start,
                  b.alignments[i].query_start);
        EXPECT_EQ(a.alignments[i].score, b.alignments[i].score);
        EXPECT_EQ(a.alignments[i].query_strand,
                  b.alignments[i].query_strand);
        EXPECT_EQ(a.alignments[i].cigar.to_string(),
                  b.alignments[i].cigar.to_string());
    }
    ASSERT_EQ(a.chains.size(), b.chains.size());
    for (std::size_t i = 0; i < a.chains.size(); ++i)
        EXPECT_EQ(a.chains[i].score, b.chains[i].score);
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

// ---------------------------------------------------------------------
// seed_and_filter: batching query chunks cannot change the result.

/** What one seed+filter pass produced, heap charges included. */
struct SeedFilterOutcome {
    std::vector<FilterCandidate> candidates;
    seed::SeedingStats seeding;
    FilterStats filter;
    std::uint64_t heap_bytes = 0;
};

void
expect_same_outcome(const SeedFilterOutcome& expect,
                    const SeedFilterOutcome& got, bool compare_heap)
{
    ASSERT_EQ(got.candidates.size(), expect.candidates.size());
    for (std::size_t i = 0; i < got.candidates.size(); ++i) {
        EXPECT_EQ(got.candidates[i].anchor_t, expect.candidates[i].anchor_t);
        EXPECT_EQ(got.candidates[i].anchor_q, expect.candidates[i].anchor_q);
        EXPECT_EQ(got.candidates[i].filter_score,
                  expect.candidates[i].filter_score);
    }
    EXPECT_EQ(got.seeding.seed_lookups, expect.seeding.seed_lookups);
    EXPECT_EQ(got.seeding.seed_hits, expect.seeding.seed_hits);
    EXPECT_EQ(got.seeding.candidates, expect.seeding.candidates);
    EXPECT_EQ(got.filter.tiles, expect.filter.tiles);
    EXPECT_EQ(got.filter.cells, expect.filter.cells);
    EXPECT_EQ(got.filter.passed, expect.filter.passed);
    if (compare_heap) {
        EXPECT_EQ(got.heap_bytes, expect.heap_bytes);
    }
}

/**
 * Sweep one storage: `Sequence` is seq::Sequence or seq::PackedSequence.
 * The reference is seed_all + filter_all over the whole query; the
 * batched pass runs at 1 chunk, 3 chunks and the whole query per batch.
 * Heap charges are compared on serial runs, where every charge lands on
 * the calling thread's token.
 */
template <class Sequence>
void
expect_batches_match(const WgaParams& params, const Sequence& target,
                     const Sequence& query, seq::BaseView target_view,
                     seq::BaseView query_view)
{
    const seed::SeedIndex index(target,
                                seed::SeedPattern(params.seed_pattern));
    const FilterStage filter(params, target_view, query_view);

    SeedFilterOutcome reference;
    {
        fault::CancelToken token;
        const fault::ContextScope scope(&token, 0);
        const std::vector<seed::SeedHit> hits =
            seed::DsoftSeeder(index, params.dsoft)
                .seed_all(query, &reference.seeding);
        reference.candidates = filter.filter_all(hits, &reference.filter);
        reference.heap_bytes = token.heap_bytes_charged();
    }
    ASSERT_GT(reference.candidates.size(), 0u);
    ASSERT_GT(reference.heap_bytes, 0u);

    const std::size_t num_chunks =
        (query.size() + params.dsoft.chunk_size - 1) /
        params.dsoft.chunk_size;
    ASSERT_GT(num_chunks, 3u);
    for (const std::size_t batch : {std::size_t{1}, std::size_t{3},
                                    num_chunks}) {
        SCOPED_TRACE(testing::Message() << "batch_chunks " << batch);
        SeedFilterOutcome got;
        fault::CancelToken token;
        const fault::ContextScope scope(&token, 0);
        PipelineStats stats;
        got.candidates =
            seed_and_filter(params, index, target_view, query_view,
                            align::Strand::Forward, batch, &stats, nullptr);
        got.seeding = stats.seeding;
        got.filter = stats.filter;
        got.heap_bytes = token.heap_bytes_charged();
        expect_same_outcome(reference, got, /*compare_heap=*/true);
    }

    ThreadPool pool(2);
    SeedFilterOutcome pooled;
    PipelineStats stats;
    pooled.candidates =
        seed_and_filter(params, index, target_view, query_view,
                        align::Strand::Forward, 3, &stats, &pool);
    pooled.seeding = stats.seeding;
    pooled.filter = stats.filter;
    SCOPED_TRACE("on a pool");
    expect_same_outcome(reference, pooled, /*compare_heap=*/false);
}

TEST(SeedFilterBatches, EveryBatchSizeMatchesSeedAllPlusFilterAll)
{
    const auto pair = small_pair("ce11-cb4", 6000);
    const seq::Sequence& target = pair.target.genome.flattened();
    const seq::Sequence& query = pair.query.genome.flattened();
    const std::span<const std::uint8_t> target_bytes{target.codes().data(),
                                                     target.size()};
    const std::span<const std::uint8_t> query_bytes{query.codes().data(),
                                                    query.size()};
    const seq::PackedSequence packed_target =
        seq::PackedSequence::pack(target);
    const seq::PackedSequence packed_query = seq::PackedSequence::pack(query);

    const struct {
        const char* preset;
        WgaParams params;
    } presets[] = {{"darwin", WgaParams::darwin_defaults()},
                   {"lastz", WgaParams::lastz_defaults()}};
    for (const auto& preset : presets) {
        for (const std::size_t cap : {std::size_t{0}, std::size_t{2}}) {
            SCOPED_TRACE(testing::Message() << preset.preset
                                            << " preset, max_hits_per_chunk "
                                            << cap);
            WgaParams params = preset.params;
            params.dsoft.max_hits_per_chunk = cap;
            {
                SCOPED_TRACE("byte storage");
                expect_batches_match(params, target, query, target_bytes,
                                     query_bytes);
            }
            // Ungapped filtering reads bytes only (FilterStage).
            if (params.filter_mode == FilterMode::Gapped) {
                SCOPED_TRACE("packed storage");
                expect_batches_match(params, packed_target, packed_query,
                                     seq::BaseView(packed_target),
                                     seq::BaseView(packed_query));
            }
        }
    }
}

TEST(SeedFilterBatches, EmptyQueryYieldsNoCandidates)
{
    const auto pair = small_pair("dm6-droSim1", 4000);
    const WgaParams params = WgaParams::darwin_defaults();
    const seq::Sequence& target = pair.target.genome.flattened();
    const seed::SeedIndex index(target,
                                seed::SeedPattern(params.seed_pattern));
    const std::span<const std::uint8_t> target_bytes{target.codes().data(),
                                                     target.size()};
    PipelineStats stats;
    const auto candidates = seed_and_filter(
        params, index, target_bytes, std::span<const std::uint8_t>{},
        align::Strand::Forward, kSeedFilterBatchChunks, &stats, nullptr);
    EXPECT_TRUE(candidates.empty());
    EXPECT_EQ(stats.seeding.seed_lookups, 0u);
    EXPECT_EQ(stats.filter.tiles, 0u);
}

// ---------------------------------------------------------------------
// Byte and packed storage give one result.

TEST(PackedPipeline, PackedRunIsBitIdenticalToByteRun)
{
    const auto pair = small_pair("dm6-droSim1", 30000);
    const WgaPipeline pipeline(WgaParams::darwin_defaults());
    obs::MetricsRegistry classic_metrics, packed_metrics;
    const auto classic = pipeline.run(pair.target.genome, pair.query.genome,
                                      {.metrics = &classic_metrics});
    const auto packed =
        pipeline.run(packed_copy(pair.target.genome),
                     packed_copy(pair.query.genome),
                     {.metrics = &packed_metrics});
    expect_identical(classic, packed);

    // One strand runner serves both: the same wga.* counters and the
    // same wga.{filter,extend}.kernel gauges.
    EXPECT_EQ(classic_metrics.snapshot().counters,
              packed_metrics.snapshot().counters);
    EXPECT_EQ(classic_metrics.gauge_snapshot("wga."),
              packed_metrics.gauge_snapshot("wga."));
}

TEST(PackedPipeline, PackedGenomesRenderIdenticalMaf)
{
    // Genomes ingested as packed storage end to end: alignments and
    // MAF must match the byte-mode run exactly.
    const auto pair = small_pair("dm6-droYak2", 20000);
    const seq::Genome packed_target = packed_copy(pair.target.genome);
    const seq::Genome packed_query = packed_copy(pair.query.genome);

    const WgaPipeline pipeline(WgaParams::darwin_defaults());
    const auto classic =
        pipeline.run(pair.target.genome, pair.query.genome);
    const auto packed = pipeline.run(packed_target, packed_query);
    expect_identical(classic, packed);

    std::ostringstream maf_classic, maf_packed;
    write_maf(maf_classic, classic.alignments, pair.target.genome,
              pair.query.genome);
    write_maf(maf_packed, packed.alignments, packed_target, packed_query);
    EXPECT_EQ(maf_classic.str(), maf_packed.str());
}

TEST(PackedPipeline, RunWithIndexPackedMatchesRunPacked)
{
    const auto pair = small_pair("dm6-dp4", 15000);
    const seq::Genome packed_target = packed_copy(pair.target.genome);
    const seq::Genome packed_query = packed_copy(pair.query.genome);
    const WgaPipeline pipeline(WgaParams::darwin_defaults());
    const auto baseline = pipeline.run(packed_target, packed_query);
    const seed::SeedIndex index(
        packed_target.flattened_packed(),
        seed::SeedPattern(pipeline.params().seed_pattern));
    const auto with_index =
        pipeline.run(packed_target, packed_query, {.index = &index});
    expect_identical(baseline, with_index);
}

}  // namespace
}  // namespace darwin::wga
