/**
 * @file
 * `darwin-wga-batch` — many-pair whole-genome alignment.
 *
 * Runs a manifest of (target, query) genome pairs through the batch
 * engine (src/batch/): --threads workers each align one whole pair at
 * a time (seed -> filter -> extend -> chain), and pairs sharing a
 * target share one seed index. Per-pair results are bit-identical to
 * the serial `darwin-wga align` pipeline.
 *
 * Manifest file: one pair per line, `name target.fa query.fa`
 * (whitespace-separated; '#' starts a comment). Alternatively,
 * --pairs synthesizes the paper's species pairs in-process (Fig. 8
 * phylogenetic sweep style).
 *
 *   darwin-wga-batch --manifest pairs.tsv --outdir out --threads 8
 *   darwin-wga-batch --pairs ce11-cb4,dm6-dp4,dm6-droYak2,dm6-droSim1 \
 *       --size 200000 --outdir sweep
 *
 * Fault tolerance (see DESIGN.md "Fault tolerance & degradation"):
 * a crash or budget overrun in one pair quarantines only that pair;
 * --pair-timeout/--pair-max-cells/--pair-max-heap-mb bound each pair,
 * with one degraded retry before quarantine (disable with --no-retry).
 * Every terminal pair is journaled to <outdir>/journal.jsonl, outputs
 * are written atomically, and --resume skips already-finished pairs.
 * --fault-inject (or the DARWIN_FAULT env var) deterministically
 * injects faults at named probe points for chaos testing. SIGINT/
 * SIGTERM shut the run down cooperatively so the journal, metrics, and
 * trace all land on disk.
 *
 * Outputs per pair: <outdir>/<name>.maf and <outdir>/<name>.chain, plus
 * <outdir>/metrics.json, and <outdir>/quarantine.json describing any
 * quarantined pairs.
 */
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <unordered_map>

#include "batch/checkpoint.h"
#include "batch/manifest.h"
#include "batch/scheduler.h"
#include "chain/chain_metrics.h"
#include "fault/fault_plan.h"
#include "obs_support.h"
#include "seq/fasta.h"
#include "signal_support.h"
#include "synth/species.h"
#include "util/args.h"
#include "util/logging.h"
#include "util/strings.h"
#include "util/timer.h"
#include "wga/chain_io.h"
#include "wga/maf.h"

using namespace darwin;

namespace {

/** A manifest entry plus ownership of any loaded/synthesized genomes. */
struct ManifestEntry {
    std::string name;
    seq::Genome target;
    seq::Genome query;
};

/** Pending pair names (resume-filtered), before any genome I/O. */
struct PendingPlan {
    std::vector<batch::ManifestPair> manifest;  ///< empty in --pairs mode
    std::vector<std::string> synth_names;       ///< empty in manifest mode
    std::size_t skipped = 0;  ///< journaled pairs we will not rerun
};

/**
 * The canonical config string behind the journal fingerprint: exactly
 * the knobs that shape output bytes (preset, strands, seeds, budgets,
 * fault plan, and the pair list itself). Scheduling knobs — threads,
 * shard size, queue capacity — are deliberately excluded, so a resume
 * may use a different machine shape.
 */
std::string
canonical_config(const ArgParser& args)
{
    std::string out = strprintf(
        "v1;preset=%s;both-strands=%d;no-transitions=%d;"
        "timeout=%s;max-cells=%lld;max-heap-mb=%lld;retry=%d;fault=%s",
        args.get("preset").c_str(), args.get_flag("both-strands") ? 1 : 0,
        args.get_flag("no-transitions") ? 1 : 0,
        args.get("pair-timeout").c_str(),
        static_cast<long long>(args.get_int("pair-max-cells")),
        static_cast<long long>(args.get_int("pair-max-heap-mb")),
        args.get_flag("no-retry") ? 0 : 1,
        args.get("fault-inject").c_str());
    if (!args.get("manifest").empty()) {
        out += ";manifest=";
        for (const auto& pair :
             batch::read_manifest_file(args.get("manifest"))) {
            out += strprintf("%s,%s,%s|", pair.name.c_str(),
                             pair.target_path.c_str(),
                             pair.query_path.c_str());
        }
    } else {
        out += strprintf(";synth=%s;size=%lld;chromosomes=%lld;"
                         "exon-every=%lld;seed=%lld",
                         args.get("pairs").c_str(),
                         static_cast<long long>(args.get_int("size")),
                         static_cast<long long>(args.get_int("chromosomes")),
                         static_cast<long long>(args.get_int("exon-every")),
                         static_cast<long long>(args.get_int("seed")));
    }
    return out;
}

/** Decide what still needs to run, before paying any FASTA/synth cost. */
PendingPlan
plan_pending(const ArgParser& args, const batch::CheckpointJournal& journal)
{
    PendingPlan plan;
    if (!args.get("manifest").empty()) {
        for (auto& pair : batch::read_manifest_file(args.get("manifest"))) {
            if (journal.completed(pair.name))
                ++plan.skipped;
            else
                plan.manifest.push_back(std::move(pair));
        }
        return plan;
    }
    if (args.get("pairs").empty())
        fatal("batch: provide --manifest or --pairs");
    std::size_t listed = 0;
    for (const std::string& raw : split(args.get("pairs"), ',')) {
        const std::string name = trim(raw);
        if (name.empty())
            continue;
        ++listed;
        if (journal.completed(name))
            ++plan.skipped;
        else
            plan.synth_names.push_back(name);
    }
    if (listed == 0)
        fatal("batch: --pairs produced no entries");
    return plan;
}

/** Load/synthesize genomes for the pending pairs only. */
std::vector<ManifestEntry>
load_pending(const ArgParser& args, const PendingPlan& plan)
{
    std::vector<ManifestEntry> entries;
    for (const batch::ManifestPair& pair : plan.manifest) {
        ManifestEntry entry;
        entry.name = pair.name;
        entry.target = seq::read_genome(pair.target_path);
        entry.query = seq::read_genome(pair.query_path);
        batch::validate_pair_genomes(pair, entry.target, entry.query);
        entries.push_back(std::move(entry));
    }
    if (!plan.synth_names.empty()) {
        synth::AncestorConfig shape;
        shape.num_chromosomes = args.get_uint("chromosomes");
        shape.chromosome_length = args.get_uint("size");
        shape.exons_per_chromosome =
            shape.chromosome_length /
            args.get_uint("exon-every");
        const auto seed = args.get_uint("seed");
        for (const std::string& name : plan.synth_names) {
            auto pair = synth::make_species_pair(
                synth::find_species_pair(name), shape, seed);
            ManifestEntry entry;
            entry.name = name;
            entry.target = std::move(pair.target.genome);
            entry.query = std::move(pair.query.genome);
            entries.push_back(std::move(entry));
        }
    }
    return entries;
}

const char*
status_tag(fault::PairStatus status)
{
    switch (status) {
      case fault::PairStatus::Clean:
        return "";
      case fault::PairStatus::Degraded:
        return "  [degraded]";
      case fault::PairStatus::Quarantined:
        return "  [QUARANTINED]";
      case fault::PairStatus::Interrupted:
        return "  [interrupted]";
    }
    return "";
}

}  // namespace

int
main(int argc, char** argv)
{
    ArgParser args("darwin-wga-batch: batch whole-genome alignment over "
                   "a manifest of genome pairs.");
    args.add_option("manifest", "",
                    "manifest file: one 'name target.fa query.fa' per line");
    args.add_option("pairs", "",
                    "alternative: comma-separated synthetic paper pairs "
                    "(ce11-cb4,dm6-dp4,dm6-droYak2,dm6-droSim1)");
    args.add_option("size", "200000", "synthetic chromosome length (bp)");
    args.add_option("chromosomes", "1", "synthetic chromosomes per genome");
    args.add_option("exon-every", "2500", "one planted exon per N bp");
    args.add_option("seed", "1", "synthetic generator seed");
    args.add_option("outdir", "batch_out", "output directory");
    args.add_option("threads", "0",
                    "worker threads, one pair each (0 = all cores)");
    args.add_option("preset", "darwin",
                    "parameter preset: darwin | lastz");
    args.add_flag("both-strands", "also align the reverse complement");
    args.add_flag("no-transitions", "disable 1-transition seeds");
    args.add_option("pair-timeout", "0",
                    "wall-clock budget per pair in seconds (0 = unlimited)");
    args.add_option("pair-max-cells", "0",
                    "DP-cell budget per pair (0 = unlimited)");
    args.add_option("pair-max-heap-mb", "0",
                    "estimated heap budget per pair in MiB (0 = unlimited)");
    args.add_flag("no-retry",
                  "quarantine budget overruns immediately instead of "
                  "retrying once with degraded parameters");
    args.add_option("fault-inject", "",
                    "deterministic fault-injection spec (see DESIGN.md; "
                    "overrides $DARWIN_FAULT)");
    args.add_flag("resume",
                  "skip pairs already journaled in <outdir>/journal.jsonl "
                  "(refuses a journal from an incompatible config)");
    tools::add_obs_options(args);
    if (!args.parse(argc, argv))
        return 1;

    init_log_level_from_env();
    try {
        const std::filesystem::path outdir(args.get("outdir"));
        std::filesystem::create_directories(outdir);

        const std::string fingerprint =
            batch::config_fingerprint(canonical_config(args));
        const std::string journal_path =
            (outdir / "journal.jsonl").string();
        batch::CheckpointJournal journal =
            args.get_flag("resume")
                ? batch::CheckpointJournal::resume(journal_path, fingerprint)
                : batch::CheckpointJournal::create(journal_path,
                                                   fingerprint);
        const PendingPlan plan = plan_pending(args, journal);
        if (plan.skipped > 0) {
            inform(strprintf("resume: skipping %zu completed pair%s from %s",
                             plan.skipped, plan.skipped == 1 ? "" : "s",
                             journal_path.c_str()));
        }
        const std::vector<ManifestEntry> entries = load_pending(args, plan);
        if (entries.empty()) {
            std::printf("all %zu pairs already completed; nothing to do\n",
                        plan.skipped);
            return 0;
        }

        // Fault injection: --fault-inject wins over $DARWIN_FAULT.
        fault::FaultPlan fault_plan =
            !args.get("fault-inject").empty()
                ? fault::FaultPlan::parse(args.get("fault-inject"))
                : fault::FaultPlan::from_env();
        if (!fault_plan.empty()) {
            warn(strprintf("fault injection active: %zu entr%s",
                           fault_plan.num_entries(),
                           fault_plan.num_entries() == 1 ? "y" : "ies"));
            fault::install_fault_plan(&fault_plan);
        }

        batch::BatchOptions options;
        options.params = args.get("preset") == "lastz"
                             ? wga::WgaParams::lastz_defaults()
                             : wga::WgaParams::darwin_defaults();
        options.params.align_both_strands = args.get_flag("both-strands");
        if (args.get_flag("no-transitions"))
            options.params.dsoft.transitions = false;
        options.num_threads = args.get_uint("threads");
        options.pair_budget.wall_seconds = args.get_double("pair-timeout");
        options.pair_budget.max_cells = args.get_uint("pair-max-cells");
        options.pair_budget.max_heap_bytes =
            args.get_uint("pair-max-heap-mb") *
            (1ull << 20);
        options.degraded_retry = !args.get_flag("no-retry");

        std::vector<batch::BatchJob> jobs;
        std::unordered_map<std::string, const ManifestEntry*> by_name;
        jobs.reserve(entries.size());
        for (const ManifestEntry& entry : entries) {
            jobs.push_back({entry.name, &entry.target, &entry.query});
            by_name[entry.name] = &entry;
        }
        inform(strprintf("batch: %zu pairs", jobs.size()));

        batch::MetricsRegistry metrics;
        tools::ObsSetup obs_setup(args, metrics);
        obs::ProgressOptions progress;
        progress.done_counter = "batch.pairs_completed";
        progress.total_counter = "batch.pairs";
        progress.label = "batch";
        obs_setup.start_progress(progress);

        // Stream outputs as pairs finish: atomic write, then journal —
        // so a journaled pair always has its final bytes on disk.
        options.on_pair_complete =
            [&](const batch::BatchPairResult& pair_result) {
                batch::JournalEntry entry;
                entry.pair = pair_result.name;
                entry.status = pair_result.status;
                switch (pair_result.status) {
                  case fault::PairStatus::Clean:
                  case fault::PairStatus::Degraded: {
                    const ManifestEntry& genomes =
                        *by_name.at(pair_result.name);
                    const std::string comment =
                        pair_result.status == fault::PairStatus::Degraded
                            ? strprintf("degraded=true attempts=%u "
                                        "(budget-overrun retry with "
                                        "narrowed parameters)",
                                        pair_result.attempts)
                            : "";
                    std::ostringstream maf;
                    wga::write_maf(maf, pair_result.result.alignments,
                                   genomes.target, genomes.query, comment);
                    batch::write_file_atomic(
                        (outdir / (pair_result.name + ".maf")).string(),
                        maf.str());
                    std::ostringstream chains;
                    wga::write_chains(chains, pair_result.result,
                                      genomes.target, genomes.query);
                    batch::write_file_atomic(
                        (outdir / (pair_result.name + ".chain")).string(),
                        chains.str());
                    entry.output = pair_result.name + ".maf";
                    journal.record(entry);
                    break;
                  }
                  case fault::PairStatus::Quarantined:
                    entry.reason =
                        fault::fail_reason_name(pair_result.quarantine.reason);
                    journal.record(entry);
                    break;
                  case fault::PairStatus::Interrupted:
                    // Not journaled: the pair reruns on --resume.
                    break;
                }
            };

        // Ctrl-C / SIGTERM: flip the cooperative shutdown flag; if the
        // pipeline doesn't unwind within the grace period, the watchdog
        // flushes observability + journal state and exits 130.
        tools::SignalGuard signals([&] {
            obs_setup.finish();
            journal.close();
            std::ofstream metrics_out(outdir / "metrics.json");
            if (metrics_out)
                metrics.write_json(metrics_out);
        });

        batch::BatchScheduler scheduler(options, &metrics);
        Timer timer;
        const auto results = scheduler.run(jobs);
        const double seconds = timer.seconds();
        obs_setup.finish();

        std::vector<fault::QuarantineRecord> quarantined;
        std::size_t clean = 0, degraded = 0, interrupted = 0;
        for (const auto& pair_result : results) {
            switch (pair_result.status) {
              case fault::PairStatus::Clean:
                ++clean;
                break;
              case fault::PairStatus::Degraded:
                ++degraded;
                break;
              case fault::PairStatus::Quarantined:
                quarantined.push_back(pair_result.quarantine);
                break;
              case fault::PairStatus::Interrupted:
                ++interrupted;
                break;
            }
            if (pair_result.status == fault::PairStatus::Clean ||
                pair_result.status == fault::PairStatus::Degraded) {
                const auto summary =
                    chain::summarize_chains(pair_result.result.chains);
                std::printf("%-16s alignments %6zu  chains %5zu  "
                            "matched bp %s%s\n",
                            pair_result.name.c_str(),
                            pair_result.result.alignments.size(),
                            pair_result.result.chains.size(),
                            with_commas(summary.total_matched_bases).c_str(),
                            status_tag(pair_result.status));
            } else {
                std::printf("%-16s %s: %s (%s stage)\n",
                            pair_result.name.c_str(),
                            fault::pair_status_name(pair_result.status),
                            fault::fail_reason_name(
                                pair_result.quarantine.reason),
                            pair_result.quarantine.stage.c_str());
            }
        }
        fault::write_quarantine_json((outdir / "quarantine.json").string(),
                                     quarantined);

        std::ofstream metrics_out(outdir / "metrics.json");
        metrics.write_json(metrics_out);
        journal.close();
        fault::install_fault_plan(nullptr);
        std::printf("finished %zu pairs in %.2fs (%zu clean, %zu degraded, "
                    "%zu quarantined, %zu interrupted); wrote %s/*.maf, "
                    "*.chain, journal.jsonl, metrics.json\n",
                    results.size(), seconds, clean, degraded,
                    quarantined.size(), interrupted,
                    outdir.string().c_str());
        if (signals.interrupted() || interrupted > 0) {
            std::fprintf(stderr,
                         "interrupted: rerun with --resume to finish the "
                         "remaining pairs\n");
            return 130;
        }
        return 0;
    } catch (const FatalError& error) {
        std::fprintf(stderr, "error: %s\n", error.what());
        return 1;
    }
}
