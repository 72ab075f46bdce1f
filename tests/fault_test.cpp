/**
 * @file
 * Unit tests for the fault-tolerance layer (src/fault/ and the batch
 * pieces that ride on it): CancelToken budgets, ContextScope threading,
 * deterministic FaultPlan parsing/firing, degraded-retry parameters,
 * the checkpoint journal, hardened manifest/FASTA ingestion, the
 * WorkQueue/ThreadPool behavior under thrown faults, and seeded
 * mutation fuzzing of the FASTA reader and the DARWIN_FAULT parser.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "batch/checkpoint.h"
#include "fault/degrade.h"
#include "batch/manifest.h"
#include "fault/cancel.h"
#include "fault/fault_plan.h"
#include "fault/quarantine.h"
#include "seq/fasta.h"
#include "util/logging.h"
#include "util/strings.h"
#include "util/thread_pool.h"
#include "util/work_queue.h"

#include "fuzz_driver.h"

namespace darwin {
namespace {

// ---------------------------------------------------------------- tokens

TEST(CancelToken, UnarmedTokenNeverTrips)
{
    fault::CancelToken token;
    EXPECT_FALSE(token.armed());
    token.charge_cells(1'000'000'000);
    token.charge_heap_bytes(1'000'000'000);
    EXPECT_EQ(token.exceeded(), fault::CancelReason::None);
    EXPECT_NO_THROW(token.poll("test.probe"));
}

TEST(CancelToken, CellBudgetTripsAndReportsProbe)
{
    fault::CancelToken token;
    token.arm({0.0, 100, 0});
    token.charge_cells(99);
    EXPECT_NO_THROW(token.poll("test.probe"));
    token.charge_cells(2);
    EXPECT_EQ(token.exceeded(), fault::CancelReason::Cells);
    try {
        token.poll("test.probe");
        FAIL() << "poll should have thrown";
    } catch (const fault::CancelledError& error) {
        EXPECT_EQ(error.reason(), fault::CancelReason::Cells);
        EXPECT_EQ(error.probe(), "test.probe");
        EXPECT_NE(std::string(error.what()).find("test.probe"),
                  std::string::npos);
    }
}

TEST(CancelToken, HeapBudgetTrips)
{
    fault::CancelToken token;
    token.arm({0.0, 0, 1024});
    token.charge_heap_bytes(1025);
    EXPECT_EQ(token.exceeded(), fault::CancelReason::HeapBytes);
}

TEST(CancelToken, WallDeadlineTrips)
{
    fault::CancelToken token;
    token.arm({0.02, 0, 0});
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    EXPECT_EQ(token.exceeded(), fault::CancelReason::WallTime);
}

TEST(CancelToken, ZeroBudgetsMeanUnlimited)
{
    fault::CancelToken token;
    token.arm(fault::Budget{});
    EXPECT_TRUE(fault::Budget{}.unlimited());
    token.charge_cells(1ull << 60);
    EXPECT_EQ(token.exceeded(), fault::CancelReason::None);
}

TEST(CancelToken, CancelIsStickyUntilRearm)
{
    fault::CancelToken token;
    token.cancel(fault::CancelReason::External);
    EXPECT_EQ(token.exceeded(), fault::CancelReason::External);
    EXPECT_THROW(token.poll("p"), fault::CancelledError);
    // arm() starts a fresh attempt: cancellation and charges reset.
    token.arm({0.0, 100, 0});
    EXPECT_EQ(token.exceeded(), fault::CancelReason::None);
    EXPECT_EQ(token.cells_charged(), 0u);
}

TEST(ContextScope, InstallsAndNests)
{
    EXPECT_EQ(fault::current_token(), nullptr);
    EXPECT_EQ(fault::current_pair(), fault::kNoPair);
    fault::CancelToken outer_token, inner_token;
    {
        fault::ContextScope outer(&outer_token, 4);
        EXPECT_EQ(fault::current_token(), &outer_token);
        EXPECT_EQ(fault::current_pair(), 4u);
        {
            fault::ContextScope inner(&inner_token, 7);
            EXPECT_EQ(fault::current_token(), &inner_token);
            EXPECT_EQ(fault::current_pair(), 7u);
        }
        EXPECT_EQ(fault::current_token(), &outer_token);
        EXPECT_EQ(fault::current_pair(), 4u);
    }
    EXPECT_EQ(fault::current_token(), nullptr);
}

TEST(ContextScope, FreeFunctionsChargeTheInstalledToken)
{
    fault::CancelToken token;
    token.arm({0.0, 100, 0});
    // Without a scope: all no-ops.
    fault::charge_cells(1'000'000);
    EXPECT_NO_THROW(fault::poll("test.free"));
    EXPECT_EQ(token.cells_charged(), 0u);
    {
        fault::ContextScope scope(&token, 0);
        fault::charge_cells(150);
        fault::charge_heap_bytes(42);
        EXPECT_EQ(token.cells_charged(), 150u);
        EXPECT_EQ(token.heap_bytes_charged(), 42u);
        EXPECT_THROW(fault::poll("test.free"), fault::CancelledError);
    }
}

TEST(Shutdown, FlagIsSetAndCleared)
{
    EXPECT_FALSE(fault::shutdown_requested());
    fault::request_shutdown();
    EXPECT_TRUE(fault::shutdown_requested());
    fault::clear_shutdown();
    EXPECT_FALSE(fault::shutdown_requested());
}

// ------------------------------------------------------------ fault plan

TEST(FaultPlan, EmptySpecParsesEmpty)
{
    EXPECT_TRUE(fault::FaultPlan::parse("").empty());
    EXPECT_TRUE(fault::FaultPlan::parse("  ").empty());
}

TEST(FaultPlan, RejectsMalformedSpecs)
{
    EXPECT_THROW(fault::FaultPlan::parse("probe-only"), FatalError);
    EXPECT_THROW(fault::FaultPlan::parse("p:unknown-kind"), FatalError);
    EXPECT_THROW(fault::FaultPlan::parse("p:throw:bogus=1"), FatalError);
    EXPECT_THROW(fault::FaultPlan::parse("p:throw:pair"), FatalError);
    EXPECT_THROW(fault::FaultPlan::parse(":throw"), FatalError);
}

TEST(FaultPlan, ParsesKindsAndKeys)
{
    const auto plan = fault::FaultPlan::parse(
        "filter.tile:throw:pair=3;extend.*:stall:ms=7:count=0;"
        "seed.chunk:oom:after=2:p=0.5:seed=9");
    ASSERT_EQ(plan.num_entries(), 3u);
    const auto specs = plan.specs();
    EXPECT_EQ(specs[0].probe, "filter.tile");
    EXPECT_EQ(specs[0].kind, fault::FaultKind::Throw);
    EXPECT_EQ(specs[0].pair, 3u);
    EXPECT_EQ(specs[1].kind, fault::FaultKind::Stall);
    EXPECT_EQ(specs[1].stall_ms, 7u);
    EXPECT_EQ(specs[1].count, 0u);
    EXPECT_EQ(specs[2].kind, fault::FaultKind::Oom);
    EXPECT_EQ(specs[2].after, 2u);
    EXPECT_DOUBLE_EQ(specs[2].probability, 0.5);
    EXPECT_EQ(specs[2].seed, 9u);
}

TEST(FaultPlan, ThrowFiresOncePerPairByDefault)
{
    const auto plan = fault::FaultPlan::parse("p.x:throw");
    EXPECT_THROW(plan.fire("p.x", 0), fault::InjectedFault);
    EXPECT_NO_THROW(plan.fire("p.x", 0));  // count=1 consumed for pair 0
    EXPECT_THROW(plan.fire("p.x", 1), fault::InjectedFault);  // fresh pair
    EXPECT_NO_THROW(plan.fire("p.y", 0));  // different probe
    EXPECT_EQ(plan.injected(), 2u);
}

TEST(FaultPlan, PairScopeAndAfterSkip)
{
    const auto plan = fault::FaultPlan::parse("p.x:throw:pair=2:after=2");
    EXPECT_NO_THROW(plan.fire("p.x", 0));  // wrong pair
    EXPECT_NO_THROW(plan.fire("p.x", 2));  // visit 1 skipped
    EXPECT_NO_THROW(plan.fire("p.x", 2));  // visit 2 skipped
    EXPECT_THROW(plan.fire("p.x", 2), fault::InjectedFault);  // visit 3
}

TEST(FaultPlan, PrefixProbesMatch)
{
    const auto plan = fault::FaultPlan::parse("filter.*:throw:count=0");
    EXPECT_THROW(plan.fire("filter.tile", 0), fault::InjectedFault);
    EXPECT_THROW(plan.fire("filter.hit", 0), fault::InjectedFault);
    EXPECT_NO_THROW(plan.fire("extend.tile", 0));
}

TEST(FaultPlan, OomThrowsBadAlloc)
{
    const auto plan = fault::FaultPlan::parse("p.x:oom");
    EXPECT_THROW(plan.fire("p.x", 0), std::bad_alloc);
}

TEST(FaultPlan, StallSleeps)
{
    const auto plan = fault::FaultPlan::parse("p.x:stall:ms=30");
    const auto start = std::chrono::steady_clock::now();
    plan.fire("p.x", 0);
    const auto elapsed = std::chrono::steady_clock::now() - start;
    EXPECT_GE(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                  .count(),
              25);
}

TEST(FaultPlan, ProbabilityIsDeterministic)
{
    const std::string spec = "p.x:throw:count=0:p=0.4:seed=11";
    const auto fire_pattern = [&spec] {
        const auto plan = fault::FaultPlan::parse(spec);
        std::vector<bool> fired;
        for (std::size_t visit = 0; visit < 200; ++visit) {
            try {
                plan.fire("p.x", 3);
                fired.push_back(false);
            } catch (const fault::InjectedFault&) {
                fired.push_back(true);
            }
        }
        return fired;
    };
    const auto first = fire_pattern();
    const auto second = fire_pattern();
    EXPECT_EQ(first, second);  // same plan -> same visits fault
    const auto fires =
        static_cast<std::size_t>(std::count(first.begin(), first.end(), true));
    EXPECT_GT(fires, 40u);  // ~80 expected at p=0.4
    EXPECT_LT(fires, 120u);
    // A different seed faults a different visit pattern.
    const auto plan2 =
        fault::FaultPlan::parse("p.x:throw:count=0:p=0.4:seed=12");
    std::vector<bool> other;
    for (std::size_t visit = 0; visit < 200; ++visit) {
        try {
            plan2.fire("p.x", 3);
            other.push_back(false);
        } catch (const fault::InjectedFault&) {
            other.push_back(true);
        }
    }
    EXPECT_NE(first, other);
}

TEST(FaultPlan, InstallationRoutesThroughPoll)
{
    EXPECT_EQ(fault::active_fault_plan(), nullptr);
    const auto plan = fault::FaultPlan::parse("probe.a:throw");
    fault::install_fault_plan(&plan);
    EXPECT_EQ(fault::active_fault_plan(), &plan);
    EXPECT_THROW(fault::poll("probe.a"), fault::InjectedFault);
    EXPECT_NO_THROW(fault::poll("probe.a"));  // count=1 consumed (kNoPair)
    fault::install_fault_plan(nullptr);
    EXPECT_EQ(fault::active_fault_plan(), nullptr);
    EXPECT_NO_THROW(fault::poll("probe.a"));
}

// -------------------------------------------------------------- taxonomy

TEST(Quarantine, ReasonTaxonomy)
{
    EXPECT_TRUE(fault::is_budget_overrun(fault::FailReason::WallTime));
    EXPECT_TRUE(fault::is_budget_overrun(fault::FailReason::Cells));
    EXPECT_TRUE(fault::is_budget_overrun(fault::FailReason::HeapBytes));
    EXPECT_FALSE(fault::is_budget_overrun(fault::FailReason::Injected));
    EXPECT_FALSE(fault::is_budget_overrun(fault::FailReason::OutOfMemory));
    EXPECT_EQ(fault::fail_reason_from_cancel(fault::CancelReason::WallTime),
              fault::FailReason::WallTime);
    EXPECT_EQ(fault::fail_reason_from_cancel(fault::CancelReason::External),
              fault::FailReason::Interrupted);
    EXPECT_STREQ(fault::pair_status_name(fault::PairStatus::Quarantined),
                 "quarantined");
    EXPECT_STREQ(fault::fail_reason_name(fault::FailReason::OutOfMemory),
                 "oom");
}

TEST(Quarantine, ReportJsonIsMachineReadable)
{
    fault::QuarantineRecord record;
    record.pair_index = 3;
    record.name = "dm6-dp4";
    record.stage = "extend";
    record.reason = fault::FailReason::Cells;
    record.message = "cell budget 100 exceeded";
    record.attempts = 2;
    record.cells_charged = 123;
    const std::string json = fault::quarantine_report_json({record});
    EXPECT_NE(json.find("\"name\": \"dm6-dp4\""), std::string::npos);
    EXPECT_NE(json.find("\"stage\": \"extend\""), std::string::npos);
    EXPECT_NE(json.find("\"reason\": \"cells\""), std::string::npos);
    EXPECT_NE(json.find("\"attempts\": 2"), std::string::npos);
    EXPECT_EQ(fault::quarantine_report_json({}), "[\n]\n");
}

// --------------------------------------------------------------- degrade

TEST(Degrade, NarrowsBandXdropAndSeedCap)
{
    wga::WgaParams params = wga::WgaParams::darwin_defaults();
    params.filter_band = 32;
    params.gactx.ydrop = 9430;
    params.ungapped_xdrop = 910;
    const fault::DegradePolicy policy;
    const wga::WgaParams degraded = fault::apply_degrade(params, policy);
    EXPECT_EQ(degraded.filter_band, 16u);
    EXPECT_EQ(degraded.gactx.ydrop, 4715);
    EXPECT_EQ(degraded.ungapped_xdrop, 455);
    EXPECT_EQ(degraded.dsoft.max_hits_per_chunk, 256u);
    // Unrelated knobs are untouched.
    EXPECT_EQ(degraded.filter_threshold, params.filter_threshold);
    EXPECT_EQ(degraded.gactx.tile_size, params.gactx.tile_size);
}

TEST(Degrade, FloorsApplyAndExistingCapWins)
{
    wga::WgaParams params = wga::WgaParams::darwin_defaults();
    params.filter_band = 10;
    params.gactx.ydrop = 150;
    params.ungapped_xdrop = 120;
    params.dsoft.max_hits_per_chunk = 64;  // already tighter than policy
    const wga::WgaParams degraded =
        fault::apply_degrade(params, fault::DegradePolicy{});
    EXPECT_EQ(degraded.filter_band, 8u);     // floored, not 5
    EXPECT_EQ(degraded.gactx.ydrop, 100);    // floored, not 75
    EXPECT_EQ(degraded.ungapped_xdrop, 100);
    EXPECT_EQ(degraded.dsoft.max_hits_per_chunk, 64u);
}

// ------------------------------------------------------------ checkpoint

TEST(Checkpoint, FingerprintIsStableHex)
{
    const std::string fp = batch::config_fingerprint("preset=darwin;v=1");
    EXPECT_EQ(fp.size(), 16u);
    EXPECT_EQ(fp, batch::config_fingerprint("preset=darwin;v=1"));
    EXPECT_NE(fp, batch::config_fingerprint("preset=lastz;v=1"));
}

TEST(Checkpoint, Fnv1a64MatchesReferenceVectors)
{
    // The journal fingerprint depends on these exact values never
    // changing — FNV-1a 64-bit reference vectors.
    EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ull);
    EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cull);
    EXPECT_EQ(fnv1a64("foobar"), 0x85944171f73967e8ull);
}

TEST(Checkpoint, AtomicWriteLeavesNoTempFile)
{
    const std::string dir = ::testing::TempDir();
    const std::string path = dir + "/atomic_test.txt";
    batch::write_file_atomic(path, "hello\n");
    std::ifstream in(path);
    std::string content((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
    EXPECT_EQ(content, "hello\n");
    EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
    batch::write_file_atomic(path, "replaced\n");  // overwrite is atomic too
    std::ifstream again(path);
    std::string content2((std::istreambuf_iterator<char>(again)),
                         std::istreambuf_iterator<char>());
    EXPECT_EQ(content2, "replaced\n");
    std::filesystem::remove(path);
}

TEST(Checkpoint, JournalRoundTripsThroughResume)
{
    const std::string path = ::testing::TempDir() + "/journal_rt.jsonl";
    const std::string fp = batch::config_fingerprint("cfg-a");
    {
        auto journal = batch::CheckpointJournal::create(path, fp);
        journal.record({"pair-one", fault::PairStatus::Clean, "",
                        "pair-one.maf"});
        journal.record({"pair-two", fault::PairStatus::Quarantined,
                        "injected", ""});
        journal.record({"pair-three", fault::PairStatus::Degraded, "",
                        "pair-three.maf"});
        journal.close();
    }
    auto resumed = batch::CheckpointJournal::resume(path, fp);
    EXPECT_TRUE(resumed.completed("pair-one"));
    EXPECT_TRUE(resumed.completed("pair-two"));
    EXPECT_TRUE(resumed.completed("pair-three"));
    EXPECT_FALSE(resumed.completed("pair-four"));
    ASSERT_EQ(resumed.resumed().size(), 3u);
    EXPECT_EQ(resumed.resumed()[0].pair, "pair-one");
    EXPECT_EQ(resumed.resumed()[0].status, fault::PairStatus::Clean);
    EXPECT_EQ(resumed.resumed()[0].output, "pair-one.maf");
    EXPECT_EQ(resumed.resumed()[1].status, fault::PairStatus::Quarantined);
    EXPECT_EQ(resumed.resumed()[1].reason, "injected");
    // Appending after resume still works.
    resumed.record({"pair-four", fault::PairStatus::Clean, "",
                    "pair-four.maf"});
    resumed.close();
    auto resumed2 = batch::CheckpointJournal::resume(path, fp);
    EXPECT_EQ(resumed2.resumed().size(), 4u);
    std::filesystem::remove(path);
}

TEST(Checkpoint, ResumeDropsATornLastLineButRefusesAMalformedOne)
{
    const std::string path = ::testing::TempDir() + "/journal_torn.jsonl";
    const std::string fp = batch::config_fingerprint("cfg-torn");
    const auto slurp = [&path] {
        std::ifstream in(path, std::ios::binary);
        return std::string((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    };
    {
        auto journal = batch::CheckpointJournal::create(path, fp);
        journal.record({"p0", fault::PairStatus::Clean, "", "p0.maf"});
        journal.close();
    }
    const std::string intact = slurp();
    // A crash mid-append leaves a fragment without its newline: the
    // pair was never journaled, so resume drops the fragment and cuts
    // it off before appending.
    std::ofstream(path, std::ios::app) << "{\"pair\":\"p1\",\"sta";
    {
        auto resumed = batch::CheckpointJournal::resume(path, fp);
        EXPECT_TRUE(resumed.completed("p0"));
        EXPECT_FALSE(resumed.completed("p1"));
        ASSERT_EQ(resumed.resumed().size(), 1u);
        resumed.record({"p1", fault::PairStatus::Clean, "", "p1.maf"});
        resumed.close();
    }
    EXPECT_EQ(slurp(), intact + "{\"pair\":\"p1\",\"status\":\"clean\","
                                "\"output\":\"p1.maf\"}\n");
    EXPECT_EQ(batch::CheckpointJournal::resume(path, fp).resumed().size(),
              2u);

    // A record that lost only its newline is whole: kept, and the next
    // record starts on a line of its own.
    std::ofstream(path, std::ios::app)
        << "{\"pair\":\"p2\",\"status\":\"degraded\"}";
    {
        auto resumed = batch::CheckpointJournal::resume(path, fp);
        EXPECT_TRUE(resumed.completed("p2"));
        resumed.record({"p3", fault::PairStatus::Clean, "", ""});
        resumed.close();
    }
    EXPECT_EQ(batch::CheckpointJournal::resume(path, fp).resumed().size(),
              4u);

    // A malformed line that did get its newline is not a torn append.
    std::ofstream(path, std::ios::app) << "{\"pair\":\"p4\",\"sta\n";
    try {
        batch::CheckpointJournal::resume(path, fp);
        FAIL() << "resume should refuse a malformed complete line";
    } catch (const FatalError& error) {
        EXPECT_NE(std::string(error.what()).find(path + ":6:"),
                  std::string::npos)
            << error.what();
    }
    std::filesystem::remove(path);
}

TEST(Checkpoint, ResumeRefusesIncompatibleConfig)
{
    const std::string path = ::testing::TempDir() + "/journal_mismatch.jsonl";
    {
        auto journal = batch::CheckpointJournal::create(
            path, batch::config_fingerprint("cfg-a"));
        journal.close();
    }
    try {
        batch::CheckpointJournal::resume(path,
                                         batch::config_fingerprint("cfg-b"));
        FAIL() << "resume should refuse a mismatched fingerprint";
    } catch (const FatalError& error) {
        const std::string what = error.what();
        EXPECT_NE(what.find("incompatible"), std::string::npos);
        EXPECT_NE(what.find(batch::config_fingerprint("cfg-a")),
                  std::string::npos);
        EXPECT_NE(what.find(batch::config_fingerprint("cfg-b")),
                  std::string::npos);
    }
    std::filesystem::remove(path);
}

TEST(Checkpoint, ResumeWithoutJournalExplainsItself)
{
    try {
        batch::CheckpointJournal::resume(
            ::testing::TempDir() + "/no_such_journal.jsonl", "fp");
        FAIL() << "resume should fail without a journal";
    } catch (const FatalError& error) {
        EXPECT_NE(std::string(error.what()).find("--resume"),
                  std::string::npos);
    }
}

// -------------------------------------------------------------- manifest

TEST(Manifest, ParsesCommentsAndBlankLines)
{
    const auto pairs = batch::parse_manifest(
        "# header comment\n"
        "\n"
        "ce11-cb4 t1.fa q1.fa\n"
        "  dm6-dp4\tt2.fa\tq2.fa  \n",
        "pairs.tsv");
    ASSERT_EQ(pairs.size(), 2u);
    EXPECT_EQ(pairs[0].name, "ce11-cb4");
    EXPECT_EQ(pairs[0].target_path, "t1.fa");
    EXPECT_EQ(pairs[0].query_path, "q1.fa");
    EXPECT_EQ(pairs[0].line, 3u);
    EXPECT_EQ(pairs[1].name, "dm6-dp4");
    EXPECT_EQ(pairs[1].line, 4u);
}

void
expect_manifest_error(const std::string& text, const std::string& fragment,
                      const std::string& line_tag)
{
    try {
        batch::parse_manifest(text, "pairs.tsv");
        FAIL() << "expected FatalError for: " << text;
    } catch (const FatalError& error) {
        const std::string what = error.what();
        EXPECT_NE(what.find("pairs.tsv"), std::string::npos) << what;
        EXPECT_NE(what.find(fragment), std::string::npos) << what;
        if (!line_tag.empty()) {
            EXPECT_NE(what.find(line_tag), std::string::npos) << what;
        }
    }
}

TEST(Manifest, RejectsMalformedLines)
{
    expect_manifest_error("p1 only-two\n", "needs", ":1:");
    expect_manifest_error("p1 t.fa q.fa extra\n", "extra field", ":1:");
    expect_manifest_error("bad/name t.fa q.fa\n", "not usable", ":1:");
    expect_manifest_error("p1 t.fa q.fa\n\np1 t2.fa q2.fa\n", "duplicate",
                          ":3:");
    expect_manifest_error("# only comments\n", "no entries", "");
}

TEST(Manifest, ValidPairNames)
{
    EXPECT_TRUE(batch::valid_pair_name("ce11-cb4"));
    EXPECT_TRUE(batch::valid_pair_name("a.b_c-9"));
    EXPECT_FALSE(batch::valid_pair_name(""));
    EXPECT_FALSE(batch::valid_pair_name("a b"));
    EXPECT_FALSE(batch::valid_pair_name("a/b"));
    EXPECT_FALSE(batch::valid_pair_name("a\"b"));
}

TEST(Manifest, ValidatesGenomesAreNonEmpty)
{
    batch::ManifestPair pair;
    pair.name = "p1";
    pair.target_path = "t.fa";
    pair.query_path = "q.fa";
    seq::Genome empty;
    seq::Genome full;
    full.add_chromosome(seq::Sequence("chr1", "ACGTACGT"));
    try {
        batch::validate_pair_genomes(pair, empty, full);
        FAIL() << "empty target must be fatal";
    } catch (const FatalError& error) {
        const std::string what = error.what();
        EXPECT_NE(what.find("p1"), std::string::npos);
        EXPECT_NE(what.find("t.fa"), std::string::npos);
    }
    EXPECT_THROW(batch::validate_pair_genomes(pair, full, empty), FatalError);
    EXPECT_NO_THROW(batch::validate_pair_genomes(pair, full, full));
}

// ----------------------------------------------------- FASTA ingestion

/** Parse FASTA text through one sink of the tokenizer. */
seq::Genome
parse_fasta_text(const std::string& text, const std::string& where,
                 seq::GenomeStorage storage)
{
    return seq::parse_fasta(
        {reinterpret_cast<const std::uint8_t*>(text.data()), text.size()},
        where, storage);
}

/** The FatalError message `storage`'s sink gives on `text`. */
std::string
fasta_error(const std::string& text, seq::GenomeStorage storage)
{
    try {
        parse_fasta_text(text, "input.fa", storage);
    } catch (const FatalError& error) {
        return error.what();
    }
    ADD_FAILURE() << "expected FatalError for: " << text;
    return "";
}

/** Both sinks reject `text` with the same message, which names the
 *  file, `fragment` and `line_tag`. */
void
expect_fasta_error(const std::string& text, const std::string& fragment,
                   const std::string& line_tag)
{
    const std::string what = fasta_error(text, seq::GenomeStorage::Bytes);
    EXPECT_EQ(fasta_error(text, seq::GenomeStorage::Packed), what);
    EXPECT_NE(what.find("input.fa"), std::string::npos) << what;
    EXPECT_NE(what.find(fragment), std::string::npos) << what;
    if (!line_tag.empty()) {
        EXPECT_NE(what.find(line_tag), std::string::npos) << what;
    }
}

TEST(FastaHardening, EmptyAndTruncatedRecordsAreFatal)
{
    expect_fasta_error(">r1\n", "no sequence data", ":1:");
    expect_fasta_error(">r1\n>r2\nACGT\n", "no sequence data", ":1:");
    expect_fasta_error("ACGT\n>r1\nACGT\n", "before first", ":1:");
    expect_fasta_error(">\nACGT\n", "empty record name", ":1:");
    expect_fasta_error(";only a comment\n\r\n", "no records", "");
}

TEST(FastaHardening, NonNucleotideBytesAreFatalWithPosition)
{
    // 'E' is a letter but not an IUPAC nucleotide code — a classic sign
    // of protein FASTA or a corrupt download.
    expect_fasta_error(">r1\nACGT\nACETG\n", "IUPAC", ":3:");
    // A digit is not even a letter.
    expect_fasta_error(">r1\nAC1T\n", "invalid character", ":2:");
}

TEST(FastaHardening, IupacAmbiguityCodesStillParse)
{
    for (const auto storage :
         {seq::GenomeStorage::Bytes, seq::GenomeStorage::Packed}) {
        const auto genome = parse_fasta_text(">r1\nACGTNRYSWKMBDHVacgtn\n",
                                             "input.fa", storage);
        ASSERT_EQ(genome.num_chromosomes(), 1u);
        EXPECT_EQ(genome.chromosome_length(0), 20u);
    }
}

// ------------------------------------------- queues/pools under faults

TEST(WorkQueueFaults, NoTaskLossWhenConsumersThrow)
{
    WorkQueue<int> queue(8);
    constexpr int kItems = 2'000;
    std::atomic<int> processed{0};
    std::atomic<int> faulted{0};

    std::vector<std::thread> consumers;
    for (int c = 0; c < 4; ++c) {
        consumers.emplace_back([&] {
            while (auto item = queue.pop()) {
                try {
                    if (*item % 13 == 0)
                        throw std::runtime_error("injected consumer fault");
                    processed.fetch_add(1);
                } catch (const std::runtime_error&) {
                    faulted.fetch_add(1);
                }
            }
        });
    }
    std::vector<std::thread> producers;
    for (int p = 0; p < 2; ++p) {
        producers.emplace_back([&, p] {
            for (int i = p; i < kItems; i += 2)
                ASSERT_TRUE(queue.push(i));
        });
    }
    for (auto& producer : producers)
        producer.join();
    queue.close();
    for (auto& consumer : consumers)
        consumer.join();
    // Every accepted item was observed exactly once, thrown or not.
    EXPECT_EQ(processed.load() + faulted.load(), kItems);
    EXPECT_GT(faulted.load(), 0);
    EXPECT_EQ(queue.size(), 0u);
}

TEST(WorkQueueFaults, CloseUnblocksProducersWithoutLoss)
{
    WorkQueue<int> queue(2);
    ASSERT_TRUE(queue.push(1));
    ASSERT_TRUE(queue.push(2));
    std::thread producer([&] {
        int item = 3;
        // Blocks on the full queue until close(), then reports refusal.
        EXPECT_FALSE(queue.push(item));
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    queue.close();
    producer.join();
    // The two accepted items drain; the refused item is gone.
    EXPECT_TRUE(queue.pop().has_value());
    EXPECT_TRUE(queue.pop().has_value());
    EXPECT_FALSE(queue.pop().has_value());
}

TEST(ThreadPoolFaults, ParallelForPropagatesAndPoolSurvives)
{
    ThreadPool pool(4);
    std::atomic<int> ran{0};
    EXPECT_THROW(
        pool.parallel_for(0, 100,
                          [&](std::size_t i) {
                              ran.fetch_add(1);
                              if (i == 37)
                                  throw std::runtime_error("injected");
                          }),
        std::runtime_error);
    // The pool is not poisoned: later work still runs to completion.
    std::atomic<int> after{0};
    pool.parallel_for(0, 50, [&](std::size_t) { after.fetch_add(1); });
    EXPECT_EQ(after.load(), 50);
    pool.wait_idle();
}

TEST(ThreadPoolFaults, InjectedFaultPlanPropagatesThroughPool)
{
    const auto plan = fault::FaultPlan::parse("pool.task:throw:after=10");
    fault::install_fault_plan(&plan);
    ThreadPool pool(4);
    try {
        EXPECT_THROW(pool.parallel_for(
                         0, 64, [&](std::size_t) { fault::poll("pool.task"); }),
                     fault::InjectedFault);
    } catch (...) {
        fault::install_fault_plan(nullptr);
        throw;
    }
    fault::install_fault_plan(nullptr);
    // Pool drains cleanly afterward.
    std::atomic<int> after{0};
    pool.parallel_for(0, 8, [&](std::size_t) { after.fetch_add(1); });
    EXPECT_EQ(after.load(), 8);
}

// ------------------------------------------------------------ fuzzing
// Seeded mutation fuzzing (fuzz_driver.h) of three text readers: FASTA
// ingestion (through both of the tokenizer's sinks), batch manifests
// and DARWIN_FAULT specs. Each mutant gives a value or a FatalError,
// nothing else.

constexpr int kFuzzIterations = 20000;

/** FASTA mutations: a header line, a stray character, a CR or a blank
 *  line at a random point. */
const std::vector<test::Mutation> kFastaMutations = {
    [](std::string& text, Rng& rng) {
        static const char* const kHeaders[] = {">", ">r\n", "\n>x y\n",
                                               "\n>\n", "\n;c\n"};
        text.insert(test::cut_point(text, rng), kHeaders[rng.uniform(5)]);
    },
    [](std::string& text, Rng& rng) {
        static const char kChars[] = "ACGTNRYKMacgtn-*0 \t\r\v\x80";
        text.insert(test::cut_point(text, rng), 1,
                    kChars[rng.uniform(sizeof kChars - 1)]);
    },
};

/** Every chromosome of `genome` as (name, decoded codes). */
std::vector<std::pair<std::string, std::vector<std::uint8_t>>>
fasta_records(const seq::Genome& genome)
{
    std::vector<std::pair<std::string, std::vector<std::uint8_t>>> records;
    for (std::size_t i = 0; i < genome.num_chromosomes(); ++i) {
        records.emplace_back(
            genome.chromosome_name(i),
            genome.packed()
                ? genome.packed_chromosome(i).decode(
                      0, genome.chromosome_length(i))
                : genome.chromosome(i).codes());
    }
    return records;
}

TEST(FastaFuzz, RecordsRoundTripOrAFatalError)
{
    const std::vector<std::string> seeds = {
        ">chr1 description\nACGTNacgtn\nRYKMSWBDHV\n;comment\n>chr2\nTTGA\n",
        ">s\r\nACGT\r\nAC\r\n\r\n>t\tx\nG\n",
    };
    const std::size_t accepted = test::fuzz<FatalError>(
        seeds, 0xfa57a, kFuzzIterations, kFastaMutations,
        [](const std::string& text) {
            // The packed sink must give the byte sink's records, or the
            // same error.
            std::string packed_error;
            std::vector<std::pair<std::string, std::vector<std::uint8_t>>>
                packed;
            try {
                packed = fasta_records(parse_fasta_text(
                    text, "fuzz", seq::GenomeStorage::Packed));
            } catch (const FatalError& error) {
                packed_error = error.what();
            }
            seq::Genome genome;
            try {
                genome = parse_fasta_text(text, "fuzz",
                                          seq::GenomeStorage::Bytes);
            } catch (const FatalError& error) {
                EXPECT_EQ(packed_error, error.what()) << text;
                throw;
            }
            EXPECT_EQ(packed_error, "") << text;
            const auto records = fasta_records(genome);
            EXPECT_EQ(packed, records) << text;
            // What was read writes back and reads the same.
            std::ostringstream out;
            seq::write_fasta(out, genome.chromosomes());
            EXPECT_EQ(fasta_records(parse_fasta_text(
                          out.str(), "fuzz", seq::GenomeStorage::Bytes)),
                      records)
                << text;
        });
    EXPECT_GT(accepted, 0u);
    EXPECT_LT(accepted, static_cast<std::size_t>(kFuzzIterations));
}

/** Fault-spec mutations: an odd number in place of the next digit run,
 *  and a separator or key at a random point. */
const std::vector<test::Mutation> kFaultSpecMutations = {
    [](std::string& text, Rng& rng) {
        static const char* const kNumbers[] = {
            "18446744073709551616", "-1", "1e999", "nan", "", "0x10",
            "4294967296", "0.5", "inf"};
        std::size_t begin =
            text.find_first_of("0123456789", test::cut_point(text, rng));
        if (begin == std::string::npos)
            begin = test::cut_point(text, rng);
        std::size_t end = text.find_first_not_of("0123456789.", begin);
        if (end == std::string::npos)
            end = text.size();
        text.replace(begin, end - begin, kNumbers[rng.uniform(9)]);
    },
    [](std::string& text, Rng& rng) {
        static const char* const kTokens[] = {";", ":", "=", "*", " ",
                                              ":pair=", ":p=", ":ms=",
                                              "stall", "oom"};
        text.insert(test::cut_point(text, rng), kTokens[rng.uniform(10)]);
    },
};

TEST(FaultSpecFuzz, PlanOrAFatalError)
{
    const std::vector<std::string> seeds = {
        "filter.tile:throw:pair=0;extend.stripe:throw:pair=2",
        "wga.*:stall:ms=100:count=0; batch.prepare:oom:after=3",
        "seed.chunk:throw:p=0.25:seed=7:count=2",
    };
    const std::size_t accepted = test::fuzz<FatalError>(
        seeds, 0xfa017, kFuzzIterations, kFaultSpecMutations,
        [](const std::string& spec) {
            const auto plan = fault::FaultPlan::parse(spec);
            EXPECT_EQ(plan.specs().size(), plan.num_entries()) << spec;
        });
    EXPECT_GT(accepted, 0u);
    EXPECT_LT(accepted, static_cast<std::size_t>(kFuzzIterations));
}

/** Manifest mutations: a field separator, a comment mark or an odd
 *  byte at a random point, or a copy of a line (a duplicate name). */
const std::vector<test::Mutation> kManifestMutations = {
    [](std::string& text, Rng& rng) {
        static const char kChars[] = " \t\r\n\v#/\"\0\x80";
        text.insert(test::cut_point(text, rng), 1,
                    kChars[rng.uniform(sizeof kChars - 1)]);
    },
    [](std::string& text, Rng& rng) {
        const std::size_t begin = text.rfind('\n', test::cut_point(text, rng));
        const std::size_t from = begin == std::string::npos ? 0 : begin + 1;
        const std::size_t to = text.find('\n', from);
        text += "\n" + text.substr(from, to == std::string::npos
                                             ? std::string::npos
                                             : to - from);
    },
};

/** The whitespace-separated fields of `line`, as `istream >>` reads
 *  them. */
std::vector<std::string>
manifest_fields(const std::string& line)
{
    std::vector<std::string> fields;
    std::size_t pos = 0;
    while (pos < line.size()) {
        while (pos < line.size() &&
               std::isspace(static_cast<unsigned char>(line[pos])))
            ++pos;
        std::size_t end = pos;
        while (end < line.size() &&
               !std::isspace(static_cast<unsigned char>(line[end])))
            ++end;
        if (end > pos)
            fields.push_back(line.substr(pos, end - pos));
        pos = end;
    }
    return fields;
}

TEST(ManifestFuzz, PairsMatchTheirLinesOrAFatalError)
{
    const std::vector<std::string> seeds = {
        "# header comment\n\nce11-cb4 t1.fa q1.fa\n"
        "  dm6-dp4\tt2.fa\tq2.fa  \n",
        "p1 a/t.fa b/q.fa\r\np.2_x t.fa q.fa\n# tail\n",
    };
    const std::size_t accepted = test::fuzz<FatalError>(
        seeds, 0xfa5e1, kFuzzIterations, kManifestMutations,
        [](const std::string& text) {
            const auto pairs = batch::parse_manifest(text, "fuzz.tsv");
            std::vector<std::string> lines;
            std::istringstream in(text);
            for (std::string line; std::getline(in, line);)
                lines.push_back(line);
            std::set<std::string> names;
            for (const auto& pair : pairs) {
                ASSERT_GE(pair.line, 1u) << text;
                ASSERT_LE(pair.line, lines.size()) << text;
                const std::vector<std::string> expected = {
                    pair.name, pair.target_path, pair.query_path};
                EXPECT_EQ(manifest_fields(lines[pair.line - 1]), expected)
                    << text;
                EXPECT_TRUE(batch::valid_pair_name(pair.name)) << text;
                EXPECT_TRUE(names.insert(pair.name).second) << text;
            }
            EXPECT_FALSE(pairs.empty()) << text;
        });
    EXPECT_GT(accepted, 0u);
    EXPECT_LT(accepted, static_cast<std::size_t>(kFuzzIterations));
}

}  // namespace
}  // namespace darwin
