/**
 * @file
 * `darwin-wga` — the command-line aligner a downstream user runs.
 *
 * Subcommands:
 *   align        FASTA target + query -> MAF alignments + chain report
 *   synthesize   generate a synthetic species pair as FASTA (+ BED-like
 *                exon annotations), for testing and benchmarking
 *   shuffle      dinucleotide-preserving genome shuffle (FPR null model)
 *
 *   darwin-wga align --target t.fa --query q.fa --out out.maf
 *   darwin-wga align --target t.fa --query q.fa --preset lastz
 *   darwin-wga synthesize --pair ce11-cb4 --size 500000 --prefix wk
 *   darwin-wga shuffle --in t.fa --out t_shuffled.fa --seed 7
 */
#include <cstdio>
#include <fstream>

#include "chain/chain_metrics.h"
#include "obs_support.h"
#include "signal_support.h"
#include "wga/chain_io.h"
#include "seq/fasta.h"
#include "seq/packed_io.h"
#include "seq/shuffle.h"
#include "synth/species.h"
#include "util/args.h"
#include "util/logging.h"
#include "util/strings.h"
#include "util/thread_pool.h"
#include "wga/maf.h"
#include "wga/pipeline.h"

using namespace darwin;

namespace {

int
cmd_align(int argc, char** argv)
{
    ArgParser args("darwin-wga align: whole genome alignment of two "
                   "FASTA genomes.");
    args.add_option("target", "", "target genome FASTA (required)");
    args.add_option("query", "", "query genome FASTA (required)");
    args.add_option("out", "out.maf", "output MAF path");
    args.add_option("chains", "", "also write UCSC .chain output here");
    args.add_option("preset", "darwin",
                    "parameter preset: darwin (gapped filtering) | "
                    "lastz (ungapped filtering)");
    args.add_option("hf", "0", "override filter threshold Hf (0 = preset)");
    args.add_option("he", "0",
                    "override extension threshold He (0 = preset)");
    args.add_option("band", "0", "override filter band B (0 = preset)");
    args.add_option("threads", "0", "worker threads (0 = all cores)");
    args.add_flag("no-transitions", "disable 1-transition seeds");
    args.add_flag("packed",
                  "ingest FASTA straight into 2-bit storage (cached in "
                  "a .2bit sidecar next to the input) and align over "
                  "packed words; output is bit-identical. Gapped "
                  "(darwin) preset only");
    tools::add_obs_options(args);
    if (!args.parse(argc, argv))
        return 1;
    if (args.get("target").empty() || args.get("query").empty()) {
        std::fprintf(stderr, "align: --target and --query are required\n");
        return 1;
    }

    wga::WgaParams params = args.get("preset") == "lastz"
                                ? wga::WgaParams::lastz_defaults()
                                : wga::WgaParams::darwin_defaults();
    if (args.get_int("hf") > 0)
        params.filter_threshold =
            static_cast<align::Score>(args.get_int("hf"));
    if (args.get_int("he") > 0)
        params.extension_threshold =
            static_cast<align::Score>(args.get_int("he"));
    if (args.get_int("band") > 0)
        params.filter_band = args.get_uint("band");
    if (args.get_flag("no-transitions"))
        params.dsoft.transitions = false;
    const std::uint64_t threads = args.get_uint("threads");

    const bool packed = args.get_flag("packed");
    const auto target = packed
                            ? seq::read_genome_packed(args.get("target"))
                            : seq::read_genome(args.get("target"));
    const auto query = packed
                           ? seq::read_genome_packed(args.get("query"))
                           : seq::read_genome(args.get("query"));
    inform(strprintf("target: %zu chromosomes, %zu bp",
                     target.num_chromosomes(), target.total_length()));
    inform(strprintf("query:  %zu chromosomes, %zu bp",
                     query.num_chromosomes(), query.total_length()));

    obs::MetricsRegistry metrics_registry;
    tools::ObsSetup obs_setup(args, metrics_registry);
    obs::ProgressOptions progress;
    progress.done_counter = "wga.extend.alignments";
    progress.label = "align";
    obs_setup.start_progress(progress);

    // Ctrl-C / SIGTERM: the serial pipeline has no per-pair cancellation
    // to unwind through, so after a short grace the watchdog flushes the
    // partial metrics/trace and exits 130 instead of dropping them.
    tools::SignalGuard signals([&] { obs_setup.finish(); }, 2.0);

    ThreadPool pool(threads);
    const wga::WgaPipeline pipeline(params);
    // Storage follows the genomes, so --packed ingestion aligns over
    // 2-bit words.
    const wga::WgaResult result = pipeline.run(
        target, query, {.pool = &pool, .metrics = &metrics_registry});
    obs_setup.finish();
    if (signals.interrupted())
        return 130;

    wga::write_maf_file(args.get("out"), result.alignments, target, query);
    if (!args.get("chains").empty()) {
        wga::write_chains_file(args.get("chains"), result, target, query);
        std::printf("wrote %s\n", args.get("chains").c_str());
    }
    const auto metrics = chain::summarize_chains(result.chains);
    std::printf("alignments: %zu   chains: %zu   matched bp: %s\n",
                result.alignments.size(), result.chains.size(),
                with_commas(metrics.total_matched_bases).c_str());
    std::printf("top-10 chain score: %.0f\n", metrics.top_k_score);
    std::printf("stage seconds: seed %.1f, filter %.1f, extend %.1f, "
                "chain %.1f\n",
                result.stats.seed_seconds, result.stats.filter_seconds,
                result.stats.extend_seconds, result.stats.chain_seconds);
    std::printf("workload: %s seed lookups, %s filter tiles, %s "
                "extension tiles\n",
                with_commas(result.stats.seeding.seed_lookups).c_str(),
                with_commas(result.stats.filter.tiles).c_str(),
                with_commas(result.stats.extend.extension.tiles).c_str());
    std::printf("wrote %s\n", args.get("out").c_str());
    return 0;
}

void
write_exons(const std::string& path, const synth::AnnotatedGenome& genome)
{
    std::ofstream out(path);
    if (!out)
        fatal("synthesize: cannot write " + path);
    for (std::size_t c = 0; c < genome.annotations.size(); ++c) {
        for (const auto& ann : genome.annotations[c]) {
            if (ann.kind != synth::AnnotationKind::Exon)
                continue;
            out << genome.genome.chromosome(c).name() << '\t'
                << ann.interval.start << '\t' << ann.interval.end << '\t'
                << ann.name << '\n';
        }
    }
}

int
cmd_synthesize(int argc, char** argv)
{
    ArgParser args("darwin-wga synthesize: generate a synthetic species "
                   "pair (FASTA + exon BED).");
    args.add_option("pair", "ce11-cb4",
                    "paper pair: ce11-cb4 | dm6-dp4 | dm6-droYak2 | "
                    "dm6-droSim1");
    args.add_option("size", "500000", "chromosome length (bp)");
    args.add_option("chromosomes", "2", "chromosomes per genome");
    args.add_option("exon-every", "2500", "one planted exon per N bp");
    args.add_option("seed", "1", "generator seed");
    args.add_option("prefix", "pair", "output file prefix");
    if (!args.parse(argc, argv))
        return 1;

    synth::AncestorConfig shape;
    shape.num_chromosomes = args.get_uint("chromosomes");
    shape.chromosome_length = args.get_uint("size");
    shape.exons_per_chromosome =
        shape.chromosome_length /
        args.get_uint("exon-every");
    const auto pair = synth::make_species_pair(
        synth::find_species_pair(args.get("pair")), shape,
        args.get_uint("seed"));

    const std::string prefix = args.get("prefix");
    seq::write_genome_file(prefix + "_target.fa", pair.target.genome);
    seq::write_genome_file(prefix + "_query.fa", pair.query.genome);
    write_exons(prefix + "_target_exons.bed", pair.target);
    write_exons(prefix + "_query_exons.bed", pair.query);
    std::printf("wrote %s_target.fa (%zu bp), %s_query.fa (%zu bp), and "
                "exon BED files (%zu exons)\n",
                prefix.c_str(), pair.target.genome.total_length(),
                prefix.c_str(), pair.query.genome.total_length(),
                pair.target.total_exons());
    return 0;
}

int
cmd_shuffle(int argc, char** argv)
{
    ArgParser args("darwin-wga shuffle: dinucleotide-preserving genome "
                   "shuffle (the FPR null model).");
    args.add_option("in", "", "input FASTA (required)");
    args.add_option("out", "shuffled.fa", "output FASTA");
    args.add_option("seed", "1", "shuffle seed");
    if (!args.parse(argc, argv))
        return 1;
    if (args.get("in").empty()) {
        std::fprintf(stderr, "shuffle: --in is required\n");
        return 1;
    }
    const auto genome = seq::read_genome(args.get("in"));
    Rng rng(args.get_uint("seed"));
    const auto shuffled = seq::shuffle_genome(genome, rng);
    seq::write_genome_file(args.get("out"), shuffled);
    std::printf("wrote %s (%zu chromosomes, 2-mer counts preserved)\n",
                args.get("out").c_str(), shuffled.num_chromosomes());
    return 0;
}

}  // namespace

int
main(int argc, char** argv)
{
    if (argc < 2) {
        std::fprintf(stderr,
                     "usage: darwin-wga <align|synthesize|shuffle> "
                     "[options]\n  run a subcommand with --help for its "
                     "options\n");
        return 1;
    }
    const std::string command = argv[1];
    init_log_level_from_env();
    try {
        if (command == "align")
            return cmd_align(argc - 1, argv + 1);
        if (command == "synthesize")
            return cmd_synthesize(argc - 1, argv + 1);
        if (command == "shuffle")
            return cmd_shuffle(argc - 1, argv + 1);
    } catch (const FatalError& error) {
        std::fprintf(stderr, "error: %s\n", error.what());
        return 1;
    }
    std::fprintf(stderr, "unknown subcommand '%s'\n", command.c_str());
    return 1;
}
