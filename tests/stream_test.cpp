/**
 * @file
 * Tests for the bounded-memory dataflow: spill primitives
 * (wga/spill.h), the spill-to-disk channel (wga/bounded_stream.h),
 * sharded seed indexing (seed/sharded_index.h), and the bit-identity of
 * WgaPipeline::run across storage and streaming modes — including the
 * batch engine's streaming mode.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>

#include "batch/scheduler.h"
#include "seed/sharded_index.h"
#include "seq/genome.h"
#include "synth/species.h"
#include "util/logging.h"
#include "util/rng.h"
#include "wga/bounded_stream.h"
#include "wga/maf.h"
#include "wga/pipeline.h"
#include "wga/spill.h"

namespace darwin::wga {
namespace {

TEST(SpillFile, AppendReadReset)
{
    SpillFile file;
    const std::uint32_t a[4] = {1, 2, 3, 4};
    file.append(a, sizeof(a));
    EXPECT_EQ(file.size(), sizeof(a));
    std::uint32_t back[2] = {};
    file.read_at(2 * sizeof(std::uint32_t), back, sizeof(back));
    EXPECT_EQ(back[0], 3u);
    EXPECT_EQ(back[1], 4u);
    file.reset();
    EXPECT_EQ(file.size(), 0u);
    const std::uint32_t b[1] = {9};
    file.append(b, sizeof(b));
    std::uint32_t again = 0;
    file.read_at(0, &again, sizeof(again));
    EXPECT_EQ(again, 9u);
}

TEST(BoundedStream, SpillPreservesFifoOrder)
{
    // Window of 4, 1000 pushes with no consumer: everything past the
    // window spills, and the drain still sees strict push order.
    BoundedStream<std::uint64_t> stream(4, "", 16);
    for (std::uint64_t i = 0; i < 1000; ++i)
        ASSERT_TRUE(stream.push(i));
    stream.close();
    EXPECT_EQ(stream.pushed(), 1000u);
    EXPECT_GT(stream.spilled_items(), 0u);
    EXPECT_GE(stream.spill_episodes(), 1u);
    for (std::uint64_t i = 0; i < 1000; ++i) {
        const auto item = stream.pop();
        ASSERT_TRUE(item.has_value());
        ASSERT_EQ(*item, i);
    }
    EXPECT_FALSE(stream.pop().has_value());
}

TEST(BoundedStream, SpillEpisodesEndWhenBacklogDrains)
{
    BoundedStream<std::uint64_t> stream(2, "", 4);
    for (std::uint64_t i = 0; i < 10; ++i)
        stream.push(i);  // first episode
    std::uint64_t expect = 0;
    for (std::uint64_t i = 0; i < 10; ++i)
        EXPECT_EQ(*stream.pop(), expect++);
    // Fully drained: the stream is back in-memory, a small burst fits
    // the window without a new episode.
    stream.push(expect);
    EXPECT_EQ(*stream.pop(), expect);
    EXPECT_EQ(stream.spill_episodes(), 1u);
    stream.close();
    EXPECT_FALSE(stream.pop().has_value());
}

TEST(SortingSpillBuffer, DrainsInOrderAcrossSpilledChunks)
{
    Rng rng(404);
    SortingSpillBuffer<std::uint64_t, std::less<std::uint64_t>> buffer(8);
    std::vector<std::uint64_t> values;
    for (std::size_t i = 0; i < 500; ++i)
        values.push_back(rng.uniform(1000));
    for (const auto v : values)
        buffer.push(v);
    EXPECT_EQ(buffer.size(), values.size());
    EXPECT_GT(buffer.chunks_spilled(), 0u);
    EXPECT_GT(buffer.spilled_bytes(), 0u);

    std::sort(values.begin(), values.end());
    std::vector<std::uint64_t> drained;
    buffer.drain_sorted([&](std::uint64_t v) { drained.push_back(v); });
    EXPECT_EQ(drained, values);

    // The buffer resets after a full drain and is reusable.
    EXPECT_EQ(buffer.size(), 0u);
    buffer.push(3);
    buffer.push(1);
    drained.clear();
    buffer.drain_sorted([&](std::uint64_t v) { drained.push_back(v); });
    EXPECT_EQ(drained, (std::vector<std::uint64_t>{1, 3}));
}

TEST(ShardPlan, PartitionsBandSpaceExactly)
{
    const auto plan = seed::plan_shards(1000, 300, 64, 64);
    ASSERT_FALSE(plan.empty());
    EXPECT_EQ(plan.front().band_lo, 0u);
    for (std::size_t s = 1; s < plan.size(); ++s)
        EXPECT_EQ(plan[s].band_lo, plan[s - 1].band_hi);
    // Slices widen by the D-SOFT projection margins and clamp to the
    // target.
    for (const auto& shard : plan) {
        EXPECT_LE(shard.slice_lo,
                  shard.band_lo > 64 ? shard.band_lo - 64 : 0);
        EXPECT_LE(shard.slice_hi, 1000u);
    }
    EXPECT_THROW((void)seed::plan_shards(1000, 0, 64, 64), FatalError);
}

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

/** Every distinct seed key among `target`'s windows, ascending. */
std::vector<seed::SeedKey>
window_keys(const seq::PackedSequence& target,
            const seed::SeedPattern& pattern)
{
    std::vector<seed::SeedKey> keys;
    for (std::size_t pos = 0; pos + pattern.span() <= target.size(); ++pos) {
        if (const auto key = pattern.key_at(target, pos))
            keys.push_back(*key);
    }
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    return keys;
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

TEST(ShardedSeeding, ShardTablesAreSlicesOfTheMonolithicIndex)
{
    const auto pair = small_pair("dm6-droSim1", 20000);
    const seq::PackedSequence& target =
        pair.target.genome.flattened_packed();
    const auto params = WgaParams::darwin_defaults();
    const seed::SeedPattern pattern(params.seed_pattern);

    const seed::SeedIndex mono(target, pattern);
    const seed::ShardedSeedIndexBuilder builder(
        target, pattern, seed::SeedIndex::kDefaultMaxBucket, 6000,
        params.dsoft.chunk_size, params.dsoft.bin_size);
    ASSERT_GT(builder.num_shards(), 1u);
    EXPECT_EQ(builder.skipped_windows(), mono.skipped_windows());
    EXPECT_EQ(builder.truncated_buckets(), mono.truncated_buckets());

    // For every key of the monolithic index, a shard's lookup is the
    // monolithic lookup restricted to the shard's slice (same order,
    // same truncation), and the shard holds nothing else.
    const std::vector<seed::SeedKey> keys = window_keys(target, pattern);
    for (std::size_t s = 0; s < builder.num_shards(); ++s) {
        const auto shard = builder.build_shard(s);
        const auto& plan = builder.plan()[s];
        EXPECT_EQ(shard->skipped_windows(), mono.skipped_windows());
        EXPECT_TRUE(std::ranges::equal(shard->repeat_keys(),
                                       mono.repeat_keys()));
        std::size_t covered = 0;
        for (const seed::SeedKey key : keys) {
            std::vector<std::uint32_t> expect;
            for (const std::uint32_t position : mono.lookup(key)) {
                if (position >= plan.slice_lo && position < plan.slice_hi)
                    expect.push_back(position);
            }
            const auto got = shard->lookup(key);
            ASSERT_EQ(std::vector<std::uint32_t>(got.begin(), got.end()),
                      expect)
                << "shard " << s << " key " << key;
            covered += expect.size();
        }
        EXPECT_EQ(covered, shard->num_positions()) << "shard " << s;
    }
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

TEST(StreamingPipeline, PackedRunIsBitIdenticalToByteRun)
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

TEST(StreamingPipeline, StreamingRunIsBitIdenticalIncludingMaf)
{
    const auto pair = small_pair("ce11-cb4", 30000);
    const WgaPipeline pipeline(WgaParams::darwin_defaults());
    obs::MetricsRegistry classic_metrics;
    const auto classic = pipeline.run(pair.target.genome, pair.query.genome,
                                      {.metrics = &classic_metrics});

    // Tiny capacities force sharding, spilling, and candidate chunk
    // merges — the stress configuration must still be bit-identical.
    StreamingParams sp;
    sp.shard_bp = 7000;
    sp.hit_stream_capacity = 64;
    sp.candidate_chunk = 16;
    sp.filter_batch = 32;
    obs::MetricsRegistry metrics;
    const auto streamed = pipeline.run(pair.target.genome, pair.query.genome,
                                       {.metrics = &metrics,
                                        .streaming = &sp});
    expect_identical(classic, streamed);

    // Telemetry: the dataflow reported its residency and throughput.
    EXPECT_GT(metrics.gauge("wga.heap.hits_pushed").value(), 0);
    EXPECT_GT(metrics.gauge("wga.heap.hit_stream_bytes").value(), 0);

    // Both modes publish the same wga.* counters; only the seed lookup
    // count grows, since every shard re-scans the query.
    const auto counters_of = [](const obs::MetricsRegistry& registry) {
        const auto snapshot = registry.snapshot().counters;
        return std::map<std::string, std::uint64_t>(snapshot.begin(),
                                                    snapshot.end());
    };
    auto classic_counters = counters_of(classic_metrics);
    auto streamed_counters = counters_of(metrics);
    EXPECT_GT(streamed_counters.at("wga.seed.lookups"),
              classic_counters.at("wga.seed.lookups"));
    classic_counters.erase("wga.seed.lookups");
    streamed_counters.erase("wga.seed.lookups");
    EXPECT_EQ(classic_counters, streamed_counters);

    // And the rendered MAF matches byte for byte.
    std::ostringstream maf_classic, maf_streamed;
    write_maf(maf_classic, classic.alignments, pair.target.genome,
              pair.query.genome);
    write_maf(maf_streamed, streamed.alignments, pair.target.genome,
              pair.query.genome);
    EXPECT_EQ(maf_classic.str(), maf_streamed.str());
}

TEST(StreamingPipeline, PackedGenomesRenderIdenticalMaf)
{
    // Genomes ingested as packed storage end to end: alignments and
    // MAF must match the byte-mode run exactly.
    const auto pair = small_pair("dm6-droYak2", 20000);
    const seq::Genome packed_target = packed_copy(pair.target.genome);
    const seq::Genome packed_query = packed_copy(pair.query.genome);

    const WgaPipeline pipeline(WgaParams::darwin_defaults());
    const auto classic =
        pipeline.run(pair.target.genome, pair.query.genome);
    StreamingParams sp;
    sp.shard_bp = 9000;
    const auto streamed =
        pipeline.run(packed_target, packed_query, {.streaming = &sp});
    expect_identical(classic, streamed);

    std::ostringstream maf_classic, maf_packed;
    write_maf(maf_classic, classic.alignments, pair.target.genome,
              pair.query.genome);
    write_maf(maf_packed, streamed.alignments, packed_target,
              packed_query);
    EXPECT_EQ(maf_classic.str(), maf_packed.str());
}

TEST(StreamingPipeline, RunWithIndexPackedMatchesRunPacked)
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

TEST(StreamingPipeline, RejectsUngappedAndPerChunkCaps)
{
    const auto pair = small_pair("dm6-droSim1", 8000);
    StreamingParams sp;
    const WgaPipeline lastz(WgaParams::lastz_defaults());
    EXPECT_THROW((void)lastz.run(pair.target.genome, pair.query.genome,
                                 {.streaming = &sp}),
                 FatalError);
    auto params = WgaParams::darwin_defaults();
    params.dsoft.max_hits_per_chunk = 100;
    const WgaPipeline capped(params);
    EXPECT_THROW((void)capped.run(pair.target.genome, pair.query.genome,
                                  {.streaming = &sp}),
                 FatalError);
}

TEST(StreamingPipeline, RejectsAPrebuiltIndex)
{
    // A streaming run builds its own band shards: a prebuilt index is
    // a contradictory request, refused with a tagged error.
    const auto pair = small_pair("dm6-droSim1", 8000);
    const WgaPipeline pipeline(WgaParams::darwin_defaults());
    const seed::SeedIndex index(
        pair.target.genome.flattened(),
        seed::SeedPattern(pipeline.params().seed_pattern));
    StreamingParams sp;
    try {
        (void)pipeline.run(pair.target.genome, pair.query.genome,
                           {.index = &index, .streaming = &sp});
        FAIL() << "run accepted both a prebuilt index and streaming";
    } catch (const FatalError& e) {
        EXPECT_NE(std::string(e.what()).find("run-options"),
                  std::string::npos)
            << e.what();
    }
}

TEST(BatchStreaming, StreamingModeMatchesTheDataflowEngine)
{
    const auto pair_a = small_pair("dm6-droSim1", 15000);
    const auto pair_b = small_pair("dm6-droYak2", 15000);
    std::vector<batch::BatchJob> jobs = {
        {"a", &pair_a.target.genome, &pair_a.query.genome},
        {"b", &pair_b.target.genome, &pair_b.query.genome},
    };

    batch::BatchOptions classic;
    classic.params = WgaParams::darwin_defaults();
    classic.num_threads = 2;
    batch::BatchScheduler classic_engine(classic);
    const auto classic_results = classic_engine.run(jobs);

    batch::BatchOptions streaming = classic;
    streaming.streaming = true;
    streaming.streaming_params.shard_bp = 6000;
    streaming.streaming_params.hit_stream_capacity = 128;
    streaming.streaming_params.candidate_chunk = 64;
    batch::BatchScheduler streaming_engine(streaming);
    const auto streaming_results = streaming_engine.run(jobs);

    ASSERT_EQ(classic_results.size(), streaming_results.size());
    for (std::size_t p = 0; p < classic_results.size(); ++p) {
        EXPECT_EQ(streaming_results[p].status, fault::PairStatus::Clean);
        expect_identical(classic_results[p].result,
                         streaming_results[p].result);
    }
}

}  // namespace
}  // namespace darwin::wga
