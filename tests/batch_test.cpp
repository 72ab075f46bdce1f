/**
 * @file
 * Tests for the batch-alignment engine (src/batch/): the metrics
 * registry, and — the load-bearing property — that batch-engine output
 * is bit-identical to running each pair through the serial WgaPipeline,
 * for 1, 2, and 8 worker threads, on a 6-pair synthetic manifest.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <tuple>

#include "batch/metrics.h"
#include "batch/scheduler.h"
#include "index/index_cache.h"
#include "fault/fault_plan.h"
#include "synth/species.h"
#include "wga/pipeline.h"

namespace darwin::batch {
namespace {

TEST(Metrics, CountersAccumulateConcurrently)
{
    MetricsRegistry registry;
    Counter& counter = registry.counter("test.count");
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&counter] {
            for (int i = 0; i < 10'000; ++i)
                counter.add(1);
        });
    }
    for (auto& thread : threads)
        thread.join();
    EXPECT_EQ(counter.value(), 40'000u);
    // Same name resolves to the same metric.
    EXPECT_EQ(registry.counter("test.count").value(), 40'000u);
}

TEST(Metrics, GaugeTracksHighWater)
{
    MetricsRegistry registry;
    Gauge& gauge = registry.gauge("test.depth");
    gauge.set(3);
    gauge.set(17);
    gauge.set(5);
    EXPECT_EQ(gauge.value(), 5);
    EXPECT_EQ(gauge.high_water(), 17);
}

TEST(Metrics, HistogramAggregatesAndQuantiles)
{
    MetricsRegistry registry;
    Histogram& hist = registry.histogram("test.latency");
    for (int i = 1; i <= 100; ++i)
        hist.observe(static_cast<double>(i));
    EXPECT_EQ(hist.count(), 100u);
    EXPECT_DOUBLE_EQ(hist.sum(), 5050.0);
    EXPECT_DOUBLE_EQ(hist.min(), 1.0);
    EXPECT_DOUBLE_EQ(hist.max(), 100.0);
    EXPECT_NEAR(hist.quantile(0.5), 50.5, 1.0);
    EXPECT_NEAR(hist.quantile(0.99), 99.0, 1.1);
}

TEST(Metrics, JsonDumpContainsAllSections)
{
    MetricsRegistry registry;
    registry.counter("batch.pairs").add(6);
    registry.gauge("batch.queue.seed.depth").set(4);
    registry.histogram("batch.seed.seconds").observe(0.5);
    const std::string json = registry.to_json();
    EXPECT_NE(json.find("\"counters\""), std::string::npos);
    EXPECT_NE(json.find("\"batch.pairs\": 6"), std::string::npos);
    EXPECT_NE(json.find("\"high_water\": 4"), std::string::npos);
    EXPECT_NE(json.find("\"batch.seed.seconds\""), std::string::npos);
    EXPECT_NE(json.find("\"p50\""), std::string::npos);
}

/**
 * The shared 6-pair manifest: the paper's four species pairs plus two
 * re-seeded variants, small enough for test time but large enough that
 * every pair produces multiple alignments and chains.
 */
struct ManifestFixture {
    std::vector<synth::SpeciesPair> pairs;
    std::vector<BatchJob> jobs;
    std::vector<wga::WgaResult> serial;  ///< per-pair serial reference

    explicit ManifestFixture(bool both_strands)
    {
        synth::AncestorConfig shape;
        shape.num_chromosomes = 1;
        shape.chromosome_length = 12'000;
        shape.exons_per_chromosome = 5;

        const auto specs = synth::paper_species_pairs();
        std::uint64_t seed = 1000;
        for (const auto& spec : specs)
            pairs.push_back(synth::make_species_pair(spec, shape, ++seed));
        // Two extra entries reuse the closest and farthest specs with
        // fresh seeds, giving six distinct workloads.
        pairs.push_back(synth::make_species_pair(specs.front(), shape, 77));
        pairs.push_back(synth::make_species_pair(specs.back(), shape, 78));

        wga::WgaParams params = wga::WgaParams::darwin_defaults();
        params.align_both_strands = both_strands;
        const wga::WgaPipeline pipeline(params);
        for (std::size_t i = 0; i < pairs.size(); ++i) {
            jobs.push_back({pairs[i].spec.pair_name + "#" +
                                std::to_string(i),
                            &pairs[i].target.genome, &pairs[i].query.genome});
            serial.push_back(pipeline.run(pairs[i].target.genome,
                                          pairs[i].query.genome));
        }
    }
};

/** Forward-strand fixture, built once across all test cases. */
const ManifestFixture&
forward_fixture()
{
    static const ManifestFixture fixture(false);
    return fixture;
}

using AlignmentKey =
    std::tuple<std::uint64_t, std::uint64_t, std::uint64_t, std::uint64_t,
               int, align::Score, std::string>;

AlignmentKey
alignment_key(const align::Alignment& a)
{
    return {a.target_start, a.target_end,   a.query_start,
            a.query_end,    static_cast<int>(a.query_strand),
            a.score,        a.cigar.to_string()};
}

/** Canonically sorted view of an alignment set. */
std::vector<AlignmentKey>
canonical_alignments(const std::vector<align::Alignment>& alignments)
{
    std::vector<AlignmentKey> keys;
    keys.reserve(alignments.size());
    for (const auto& alignment : alignments)
        keys.push_back(alignment_key(alignment));
    std::sort(keys.begin(), keys.end());
    return keys;
}

using ChainKey = std::tuple<double, std::uint64_t, std::uint64_t,
                            std::uint64_t, std::uint64_t, std::uint64_t,
                            std::vector<std::size_t>>;

std::vector<ChainKey>
canonical_chains(const std::vector<chain::Chain>& chains)
{
    std::vector<ChainKey> keys;
    keys.reserve(chains.size());
    for (const auto& chain : chains) {
        keys.push_back({chain.score, chain.target_start, chain.target_end,
                        chain.query_start, chain.query_end,
                        chain.matched_bases, chain.members});
    }
    std::sort(keys.begin(), keys.end());
    return keys;
}

void
expect_identical(const wga::WgaResult& serial,
                 const wga::WgaResult& batch, const std::string& label)
{
    SCOPED_TRACE(label);
    // Bit-identical alignments in identical order (the engine preserves
    // the serial pipeline's forward-then-reverse concatenation).
    ASSERT_EQ(serial.alignments.size(), batch.alignments.size());
    for (std::size_t i = 0; i < serial.alignments.size(); ++i) {
        EXPECT_EQ(alignment_key(serial.alignments[i]),
                  alignment_key(batch.alignments[i]));
    }
    EXPECT_EQ(canonical_alignments(serial.alignments),
              canonical_alignments(batch.alignments));
    // Chains: identical scores, footprints, and member sets.
    ASSERT_EQ(serial.chains.size(), batch.chains.size());
    EXPECT_EQ(canonical_chains(serial.chains),
              canonical_chains(batch.chains));
    // Workload counters agree with the serial stages (timings aside).
    EXPECT_EQ(serial.stats.seeding.seed_lookups,
              batch.stats.seeding.seed_lookups);
    EXPECT_EQ(serial.stats.seeding.seed_hits, batch.stats.seeding.seed_hits);
    EXPECT_EQ(serial.stats.filter.tiles, batch.stats.filter.tiles);
    EXPECT_EQ(serial.stats.filter.passed, batch.stats.filter.passed);
    EXPECT_EQ(serial.stats.extend.anchors_in, batch.stats.extend.anchors_in);
    EXPECT_EQ(serial.stats.extend.alignments_out,
              batch.stats.extend.alignments_out);
}

void
run_and_compare(const ManifestFixture& fixture, bool both_strands,
                std::size_t threads)
{
    BatchOptions options;
    options.params = wga::WgaParams::darwin_defaults();
    options.params.align_both_strands = both_strands;
    options.num_threads = threads;

    MetricsRegistry metrics;
    BatchScheduler scheduler(options, &metrics);
    const auto results = scheduler.run(fixture.jobs);

    ASSERT_EQ(results.size(), fixture.jobs.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
        EXPECT_EQ(results[i].name, fixture.jobs[i].name);
        expect_identical(fixture.serial[i], results[i].result,
                         fixture.jobs[i].name + " @" +
                             std::to_string(threads) + " threads");
    }
    EXPECT_EQ(metrics.counter("batch.pairs_completed").value(),
              fixture.jobs.size());
}

TEST(BatchEngine, MatchesSerialWithOneWorker)
{
    run_and_compare(forward_fixture(), false, 1);
}

TEST(BatchEngine, MatchesSerialWithTwoWorkers)
{
    run_and_compare(forward_fixture(), false, 2);
}

TEST(BatchEngine, MatchesSerialWithEightWorkers)
{
    run_and_compare(forward_fixture(), false, 8);
}

TEST(BatchEngine, MatchesSerialBothStrands)
{
    // Separate, smaller fixture: both strand streams double the work.
    static const ManifestFixture fixture(true);
    run_and_compare(fixture, true, 4);
}

TEST(BatchEngine, MatchesSerialWithFaultLayerArmed)
{
    // The fault layer at full strength — budgets armed, a (harmless)
    // fault plan installed, probes firing in every kernel — must not
    // perturb a single bit of a healthy run.
    const auto plan =
        fault::FaultPlan::parse("wga.chain:stall:ms=1:count=0");
    fault::install_fault_plan(&plan);
    const auto& fixture = forward_fixture();
    BatchOptions options;
    options.params = wga::WgaParams::darwin_defaults();
    options.num_threads = 4;
    options.pair_budget = {3'600.0, 1ull << 40, 1ull << 40};

    MetricsRegistry metrics;
    BatchScheduler scheduler(options, &metrics);
    const auto results = scheduler.run(fixture.jobs);
    fault::install_fault_plan(nullptr);

    ASSERT_EQ(results.size(), fixture.jobs.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
        EXPECT_EQ(results[i].status, fault::PairStatus::Clean);
        expect_identical(fixture.serial[i], results[i].result,
                         fixture.jobs[i].name + " (fault layer armed)");
    }
    EXPECT_EQ(metrics.counter("batch.fault.clean").value(),
              fixture.jobs.size());
    EXPECT_EQ(metrics.counter("batch.fault.quarantined").value(), 0u);
}

TEST(BatchEngine, EmptyManifestIsEmptyResult)
{
    BatchScheduler scheduler(BatchOptions{});
    EXPECT_TRUE(scheduler.run({}).empty());
}

TEST(BatchEngine, StageCountersReconcile)
{
    const auto& fixture = forward_fixture();
    BatchOptions options;
    options.params = wga::WgaParams::darwin_defaults();
    options.num_threads = 4;
    MetricsRegistry metrics;
    BatchScheduler scheduler(options, &metrics);
    scheduler.run(fixture.jobs);

    const auto count = [&metrics](const char* name) {
        return metrics.counter(name).value();
    };
    // Every pair's pipeline publishes into the engine's registry, so the
    // wga.* counters are the serial stats summed over the manifest.
    wga::PipelineStats serial;
    for (const wga::WgaResult& result : fixture.serial)
        serial.merge(result.stats);
    EXPECT_EQ(count("wga.seed.hits"), serial.seeding.seed_hits);
    EXPECT_EQ(count("wga.filter.tiles"), serial.filter.tiles);
    EXPECT_EQ(count("wga.filter.passed"), serial.filter.passed);
    EXPECT_EQ(count("wga.extend.anchors_in"), serial.extend.anchors_in);
    EXPECT_EQ(count("wga.extend.absorbed"), serial.extend.absorbed);
    EXPECT_EQ(count("wga.extend.extended"), serial.extend.extended);
    EXPECT_EQ(count("wga.extend.matched_bases"),
              serial.extend.matched_bases);
    // Every filter tile either passes as a candidate anchor or is
    // dropped.
    EXPECT_GT(count("wga.filter.tiles"), 0u);
    EXPECT_EQ(count("wga.filter.tiles"),
              count("wga.filter.passed") + count("wga.filter.dropped"));
    // Every surviving candidate reaches extension as an anchor, where it
    // is either absorbed by an existing alignment or extended.
    EXPECT_GT(count("wga.filter.passed"), 0u);
    EXPECT_EQ(count("wga.filter.passed"), count("wga.extend.anchors_in"));
    EXPECT_EQ(count("wga.extend.anchors_in"),
              count("wga.extend.absorbed") + count("wga.extend.extended"));
    EXPECT_GT(count("wga.extend.matched_bases"), 0u);
}

/** N jobs aligning different queries against one shared target. */
struct SharedTargetFixture {
    std::vector<synth::SpeciesPair> pairs;
    std::vector<BatchJob> jobs;
    std::vector<wga::WgaResult> serial;

    SharedTargetFixture()
    {
        synth::AncestorConfig shape;
        shape.num_chromosomes = 1;
        shape.chromosome_length = 8'000;
        shape.exons_per_chromosome = 4;
        const auto spec = synth::paper_species_pairs().front();
        for (std::uint64_t seed : {501u, 502u, 503u})
            pairs.push_back(synth::make_species_pair(spec, shape, seed));

        const wga::WgaPipeline pipeline(wga::WgaParams::darwin_defaults());
        for (std::size_t i = 0; i < pairs.size(); ++i) {
            // Every job reuses pair 0's target; queries differ.
            jobs.push_back({"shared#" + std::to_string(i),
                            &pairs[0].target.genome,
                            &pairs[i].query.genome});
            serial.push_back(pipeline.run(pairs[0].target.genome,
                                          pairs[i].query.genome));
        }
    }
};

const SharedTargetFixture&
shared_target_fixture()
{
    static const SharedTargetFixture fixture;
    return fixture;
}

TEST(BatchEngine, SharedTargetBuildsIndexOnce)
{
    // With one worker the pairs prepare sequentially, so the engine must
    // build the shared target's seed index exactly once and count every
    // later acquire as a cache hit — without changing a single bit of
    // the output.
    const auto& fixture = shared_target_fixture();
    BatchOptions options;
    options.params = wga::WgaParams::darwin_defaults();
    options.num_threads = 1;

    index::IndexCache cache(4);
    options.index_cache = &cache;
    MetricsRegistry metrics;
    BatchScheduler scheduler(options, &metrics);
    const auto results = scheduler.run(fixture.jobs);

    ASSERT_EQ(results.size(), fixture.jobs.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
        expect_identical(fixture.serial[i], results[i].result,
                         fixture.jobs[i].name);
    }
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.hits(), fixture.jobs.size() - 1);
    EXPECT_EQ(metrics.counter("batch.index.cache_hits").value(),
              fixture.jobs.size() - 1);
}

TEST(BatchEngine, SharedTargetIdenticalUnderConcurrentPrepare)
{
    // With several workers the pairs race into the single-flight build;
    // however the hits land, there is exactly one resident index, one
    // acquire per pair, and bit-identical output.
    const auto& fixture = shared_target_fixture();
    BatchOptions options;
    options.params = wga::WgaParams::darwin_defaults();
    options.num_threads = 4;

    index::IndexCache cache(4);
    options.index_cache = &cache;
    MetricsRegistry metrics;
    BatchScheduler scheduler(options, &metrics);
    const auto results = scheduler.run(fixture.jobs);

    ASSERT_EQ(results.size(), fixture.jobs.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
        expect_identical(fixture.serial[i], results[i].result,
                         fixture.jobs[i].name + " (concurrent)");
    }
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(cache.hits() + cache.misses(), fixture.jobs.size());
}

TEST(BatchEngine, MetricsExposeStageLatenciesAndDepths)
{
    const auto& fixture = forward_fixture();
    BatchOptions options;
    options.params = wga::WgaParams::darwin_defaults();
    options.num_threads = 4;
    MetricsRegistry metrics;
    BatchScheduler scheduler(options, &metrics);
    scheduler.run(fixture.jobs);

    // One observation per pair (one strand each) for the filter, extend
    // and chain stages; seeding also observes each pair's index acquire.
    const std::size_t pairs = fixture.jobs.size();
    EXPECT_EQ(metrics.histogram("wga.seed.seconds").count(), 2 * pairs);
    EXPECT_EQ(metrics.histogram("wga.filter.seconds").count(), pairs);
    EXPECT_EQ(metrics.histogram("wga.extend.seconds").count(), pairs);
    EXPECT_EQ(metrics.histogram("wga.chain.seconds").count(), pairs);
    EXPECT_GT(metrics.histogram("wga.extend.seconds").sum(), 0.0);
    const std::string json = metrics.to_json();
    EXPECT_NE(json.find("wga.extend.seconds"), std::string::npos);
    EXPECT_NE(json.find("batch.pairs_completed"), std::string::npos);
}

}  // namespace
}  // namespace darwin::batch
