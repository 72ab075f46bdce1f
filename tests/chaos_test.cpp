/**
 * @file
 * Chaos tests for the fault-tolerant batch engine: a 32-pair manifest
 * driven under deterministic fault injection, cooperative budgets,
 * degraded retries, external shutdown, and FatalError escalation. The
 * load-bearing property throughout: a fault in one pair quarantines
 * only that pair, every healthy pair's output stays bit-identical to
 * the serial pipeline, and the `batch.fault.*` counters reconcile
 * (clean + degraded + quarantined + interrupted == pairs admitted).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <thread>
#include <tuple>

#include "fault/degrade.h"
#include "batch/metrics.h"
#include "batch/scheduler.h"
#include "fault/cancel.h"
#include "fault/fault_plan.h"
#include "fault/quarantine.h"
#include "synth/species.h"
#include "util/logging.h"
#include "wga/pipeline.h"

namespace darwin::batch {
namespace {

/** RAII installation of a fault plan; uninstalls even on test failure. */
struct PlanGuard {
    explicit PlanGuard(const fault::FaultPlan& plan)
    {
        fault::install_fault_plan(&plan);
    }
    ~PlanGuard() { fault::install_fault_plan(nullptr); }
    PlanGuard(const PlanGuard&) = delete;
    PlanGuard& operator=(const PlanGuard&) = delete;
};

/**
 * 32 tiny pairs cycling the paper's four species specs with distinct
 * seeds — small enough that 32 serial references are cheap, divergent
 * enough that every pair produces real alignments to compare.
 */
struct ChaosFixture {
    std::vector<synth::SpeciesPair> pairs;
    std::vector<BatchJob> jobs;
    std::vector<wga::WgaResult> serial;
    wga::WgaParams params = wga::WgaParams::darwin_defaults();

    ChaosFixture()
    {
        synth::AncestorConfig shape;
        shape.num_chromosomes = 1;
        shape.chromosome_length = 8'000;
        shape.exons_per_chromosome = 4;
        const auto specs = synth::paper_species_pairs();
        const wga::WgaPipeline pipeline(params);
        for (std::size_t i = 0; i < 32; ++i) {
            pairs.push_back(synth::make_species_pair(
                specs[i % specs.size()], shape, 9'000 + i));
        }
        for (std::size_t i = 0; i < pairs.size(); ++i) {
            jobs.push_back({pairs[i].spec.pair_name + "#" +
                                std::to_string(i),
                            &pairs[i].target.genome,
                            &pairs[i].query.genome});
            serial.push_back(pipeline.run(pairs[i].target.genome,
                                          pairs[i].query.genome));
            // The isolation tests fire probes in every stage, which
            // only exercises anything if every pair really aligns.
            EXPECT_FALSE(serial.back().alignments.empty())
                << "fixture pair " << i << " produced no alignments";
        }
    }
};

const ChaosFixture&
chaos_fixture()
{
    static const ChaosFixture fixture;
    return fixture;
}

using AlignmentKey = std::tuple<std::uint64_t, std::uint64_t,
                                std::uint64_t, std::uint64_t, int,
                                align::Score, std::string>;

AlignmentKey
alignment_key(const align::Alignment& a)
{
    return {a.target_start, a.target_end,   a.query_start,
            a.query_end,    static_cast<int>(a.query_strand),
            a.score,        a.cigar.to_string()};
}

void
expect_identical(const wga::WgaResult& expected,
                 const wga::WgaResult& actual, const std::string& label)
{
    SCOPED_TRACE(label);
    ASSERT_EQ(expected.alignments.size(), actual.alignments.size());
    for (std::size_t i = 0; i < expected.alignments.size(); ++i) {
        EXPECT_EQ(alignment_key(expected.alignments[i]),
                  alignment_key(actual.alignments[i]));
    }
    ASSERT_EQ(expected.chains.size(), actual.chains.size());
    for (std::size_t i = 0; i < expected.chains.size(); ++i) {
        EXPECT_EQ(expected.chains[i].score, actual.chains[i].score);
        EXPECT_EQ(expected.chains[i].members, actual.chains[i].members);
    }
}

BatchOptions
chaos_options(const ChaosFixture& fixture)
{
    BatchOptions options;
    options.params = fixture.params;
    options.num_threads = 4;
    return options;
}

void
expect_fault_counters_reconcile(MetricsRegistry& metrics,
                                std::size_t pairs_in)
{
    const auto count = [&metrics](const char* name) {
        return metrics.counter(name).value();
    };
    EXPECT_EQ(count("batch.fault.clean") + count("batch.fault.degraded") +
                  count("batch.fault.quarantined") +
                  count("batch.fault.interrupted"),
              pairs_in);
    EXPECT_EQ(count("batch.pairs_completed"), pairs_in);
}

/**
 * The tentpole acceptance test: seven pairs are killed at seven
 * different probe points — the engine's prepare probe, the pipeline's
 * stage-entry probes, the D-SOFT chunk loop, the filter kernels, the
 * GACT-X stripe loop, plus one simulated OOM — and
 * the other 25 pairs must come out bit-identical to the serial
 * pipeline, with the books balanced.
 */
TEST(ChaosIsolation, FaultsAcrossProbePointsQuarantineOnlyTheirPair)
{
    const auto& fixture = chaos_fixture();
    const auto plan = fault::FaultPlan::parse(
        "batch.prepare:throw:pair=0;"
        "seed.chunk:throw:pair=3;"
        "filter.tile:throw:pair=5;"
        "extend.stripe:throw:pair=9;"
        "wga.chain:throw:pair=12;"
        "filter.hit:oom:pair=15;"
        "wga.extend:throw:pair=18");
    PlanGuard guard(plan);

    // expected stage and reason per quarantined pair index
    const std::map<std::size_t, std::pair<std::string, fault::FailReason>>
        expected = {
            {0, {"prepare", fault::FailReason::Injected}},
            {3, {"seed", fault::FailReason::Injected}},
            {5, {"filter", fault::FailReason::Injected}},
            {9, {"extend", fault::FailReason::Injected}},
            {12, {"chain", fault::FailReason::Injected}},
            {15, {"filter", fault::FailReason::OutOfMemory}},
            {18, {"extend", fault::FailReason::Injected}},
        };

    BatchOptions options = chaos_options(fixture);
    // Budgets armed but generous: the fault layer is live, yet healthy
    // pairs must still match the serial pipeline bit for bit.
    options.pair_budget = {300.0, 1ull << 40, 1ull << 40};

    MetricsRegistry metrics;
    BatchScheduler scheduler(options, &metrics);
    const auto results = scheduler.run(fixture.jobs);

    ASSERT_EQ(results.size(), fixture.jobs.size());
    std::size_t quarantined = 0;
    for (std::size_t i = 0; i < results.size(); ++i) {
        const auto& result = results[i];
        EXPECT_EQ(result.name, fixture.jobs[i].name);
        const auto it = expected.find(i);
        if (it == expected.end()) {
            EXPECT_EQ(result.status, fault::PairStatus::Clean)
                << "pair " << i << " should be untouched";
            expect_identical(fixture.serial[i], result.result,
                             result.name);
            continue;
        }
        ++quarantined;
        SCOPED_TRACE(result.name);
        EXPECT_EQ(result.status, fault::PairStatus::Quarantined);
        EXPECT_TRUE(result.result.alignments.empty());
        EXPECT_EQ(result.quarantine.name, result.name);
        EXPECT_EQ(result.quarantine.pair_index, i);
        EXPECT_EQ(result.quarantine.stage, it->second.first);
        EXPECT_EQ(result.quarantine.reason, it->second.second);
        // Injected/OOM faults earn no retry.
        EXPECT_EQ(result.attempts, 1u);
        EXPECT_FALSE(result.quarantine.message.empty());
    }
    EXPECT_EQ(quarantined, expected.size());
    EXPECT_EQ(metrics.counter("batch.fault.quarantined").value(),
              expected.size());
    EXPECT_EQ(metrics.counter("batch.fault.clean").value(),
              fixture.jobs.size() - expected.size());
    EXPECT_GE(plan.injected(), 6u);  // the six throw entries all fired
    expect_fault_counters_reconcile(metrics, fixture.jobs.size());
}

/**
 * Measure the DP cells one serial run charges, by installing a scope on
 * the calling thread (pool-less runs never leave it). This is how the
 * budget tests calibrate themselves instead of hardcoding cell counts.
 */
std::uint64_t
measure_cells(const wga::WgaParams& params, const synth::SpeciesPair& pair)
{
    fault::CancelToken token;
    token.arm(fault::Budget{});  // armed, unlimited: count, never trip
    fault::ContextScope scope(&token, 0);
    const wga::WgaPipeline pipeline(params);
    pipeline.run(pair.target.genome, pair.query.genome);
    return token.cells_charged();
}

/** Cell costs of pair #1 at full and degraded parameters. */
struct Calibration {
    std::uint64_t full = 0;
    std::uint64_t degraded = 0;
    wga::WgaParams degraded_params;
};

const Calibration&
calibration()
{
    static const Calibration cal = [] {
        const auto& fixture = chaos_fixture();
        Calibration c;
        c.degraded_params =
            apply_degrade(fixture.params, DegradePolicy{});
        c.full = measure_cells(fixture.params, fixture.pairs[1]);
        c.degraded = measure_cells(c.degraded_params, fixture.pairs[1]);
        return c;
    }();
    return cal;
}

TEST(ChaosBudgets, CellOverrunEarnsOneDegradedRetry)
{
    const auto& fixture = chaos_fixture();
    const auto& cal = calibration();
    ASSERT_GT(cal.full, 0u);
    ASSERT_LT(cal.degraded, cal.full)
        << "degraded parameters must shrink the workload";
    if (cal.full < cal.degraded + cal.degraded / 4) {
        GTEST_SKIP() << "full/degraded cell costs too close to separate "
                        "with a budget (" << cal.full << " vs "
                     << cal.degraded << ")";
    }
    // A budget the full attempt blows through but the degraded retry
    // fits under, with margin on both sides.
    BatchOptions options = chaos_options(fixture);
    options.pair_budget.max_cells =
        cal.degraded + (cal.full - cal.degraded) / 2;

    MetricsRegistry metrics;
    BatchScheduler scheduler(options, &metrics);
    const auto results = scheduler.run({fixture.jobs[1]});

    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].status, fault::PairStatus::Degraded);
    EXPECT_EQ(results[0].attempts, 2u);
    // The degraded result is the *serial* result at degraded parameters
    // — the retry changes knobs, never correctness.
    const wga::WgaPipeline degraded_pipeline(cal.degraded_params);
    const auto reference = degraded_pipeline.run(
        fixture.pairs[1].target.genome, fixture.pairs[1].query.genome);
    expect_identical(reference, results[0].result, results[0].name);
    EXPECT_EQ(metrics.counter("batch.fault.budget_overruns").value(), 1u);
    EXPECT_EQ(metrics.counter("batch.fault.retries").value(), 1u);
    EXPECT_EQ(metrics.counter("batch.fault.degraded").value(), 1u);
    expect_fault_counters_reconcile(metrics, 1);
}

TEST(ChaosBudgets, ExhaustedRetryQuarantinesWithCellsReason)
{
    const auto& fixture = chaos_fixture();
    const auto& cal = calibration();
    ASSERT_GT(cal.degraded, 8u);
    // Too tight even for the degraded retry.
    BatchOptions options = chaos_options(fixture);
    options.pair_budget.max_cells = cal.degraded / 2;

    MetricsRegistry metrics;
    BatchScheduler scheduler(options, &metrics);
    const auto results = scheduler.run({fixture.jobs[1]});

    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].status, fault::PairStatus::Quarantined);
    EXPECT_EQ(results[0].attempts, 2u);
    EXPECT_EQ(results[0].quarantine.reason, fault::FailReason::Cells);
    EXPECT_NE(results[0].quarantine.message.find("cell budget"),
              std::string::npos)
        << results[0].quarantine.message;
    EXPECT_GT(results[0].quarantine.cells_charged,
              options.pair_budget.max_cells);
    EXPECT_EQ(metrics.counter("batch.fault.budget_overruns").value(), 2u);
    EXPECT_EQ(metrics.counter("batch.fault.retries").value(), 1u);
    expect_fault_counters_reconcile(metrics, 1);
}

TEST(ChaosBudgets, NoRetryQuarantinesOnFirstOverrun)
{
    const auto& fixture = chaos_fixture();
    const auto& cal = calibration();
    ASSERT_GT(cal.degraded, 8u);
    BatchOptions options = chaos_options(fixture);
    options.pair_budget.max_cells = cal.degraded / 2;
    options.degraded_retry = false;

    MetricsRegistry metrics;
    BatchScheduler scheduler(options, &metrics);
    const auto results = scheduler.run({fixture.jobs[1]});

    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].status, fault::PairStatus::Quarantined);
    EXPECT_EQ(results[0].attempts, 1u);
    EXPECT_EQ(metrics.counter("batch.fault.retries").value(), 0u);
    expect_fault_counters_reconcile(metrics, 1);
}

TEST(ChaosBudgets, StalledPairTripsWallBudget)
{
    const auto& fixture = chaos_fixture();
    // The wall budget sits well above the pair's natural runtime, and
    // every filter.hit visit sleeps half of it — so only the stalls can
    // blow the deadline, and the poll that observes the overrun is in
    // the filter stage. Single job, single worker keeps that trip point
    // deterministic (wall clocks are shared, so a multi-pair manifest
    // would let one pair's stall burn its neighbors' budgets too).
    const auto plan =
        fault::FaultPlan::parse("filter.hit:stall:ms=1000:count=0");
    PlanGuard guard(plan);

    BatchOptions options = chaos_options(fixture);
    options.pair_budget.wall_seconds = 2.0;
    options.degraded_retry = false;
    options.num_threads = 1;

    MetricsRegistry metrics;
    BatchScheduler scheduler(options, &metrics);
    const auto results = scheduler.run({fixture.jobs[1]});

    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].status, fault::PairStatus::Quarantined);
    EXPECT_EQ(results[0].quarantine.reason, fault::FailReason::WallTime);
    EXPECT_EQ(results[0].quarantine.stage, "filter");
    EXPECT_EQ(results[0].attempts, 1u);
    EXPECT_GT(results[0].quarantine.elapsed_seconds, 0.0);
    expect_fault_counters_reconcile(metrics, 1);
}

TEST(ChaosShutdown, RequestedShutdownInterruptsInFlightPairs)
{
    const auto& fixture = chaos_fixture();
    // Slow every pair's prepare and stage entries so the run is still
    // mid-flight when the shutdown flag lands.
    const auto plan = fault::FaultPlan::parse(
        "batch.*:stall:ms=30:count=0;wga.*:stall:ms=30:count=0");
    PlanGuard guard(plan);
    fault::clear_shutdown();

    BatchOptions options = chaos_options(fixture);
    const std::vector<BatchJob> jobs(fixture.jobs.begin(),
                                     fixture.jobs.begin() + 8);
    MetricsRegistry metrics;
    BatchScheduler scheduler(options, &metrics);

    std::vector<BatchPairResult> results;
    std::thread runner(
        [&] { results = scheduler.run(jobs); });
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    fault::request_shutdown();
    runner.join();
    fault::clear_shutdown();

    ASSERT_EQ(results.size(), jobs.size());
    std::size_t interrupted = 0;
    for (const auto& result : results) {
        if (result.status == fault::PairStatus::Interrupted) {
            ++interrupted;
            EXPECT_TRUE(result.result.alignments.empty());
            EXPECT_EQ(result.quarantine.reason,
                      fault::FailReason::Interrupted);
        }
    }
    EXPECT_GT(interrupted, 0u) << "shutdown landed after the run ended";
    EXPECT_EQ(metrics.counter("batch.fault.interrupted").value(),
              interrupted);
    expect_fault_counters_reconcile(metrics, jobs.size());
}

TEST(ChaosFatal, FatalErrorEscapesIsolationWithPairAttached)
{
    const auto& fixture = chaos_fixture();
    BatchOptions options = chaos_options(fixture);
    options.num_threads = 2;
    options.on_pair_complete = [](const BatchPairResult&) {
        throw FatalError("cannot write output directory");
    };
    BatchScheduler scheduler(options);
    const std::vector<BatchJob> jobs(fixture.jobs.begin(),
                                     fixture.jobs.begin() + 4);
    try {
        scheduler.run(jobs);
        FAIL() << "a FatalError from on_pair_complete must abort the run";
    } catch (const FatalError& error) {
        const std::string what = error.what();
        EXPECT_NE(what.find("on_pair_complete"), std::string::npos)
            << what;
        EXPECT_NE(what.find("pair '"), std::string::npos) << what;
        EXPECT_NE(what.find("cannot write output directory"),
                  std::string::npos)
            << what;
    }
}

}  // namespace
}  // namespace darwin::batch
