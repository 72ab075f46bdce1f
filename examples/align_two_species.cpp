/**
 * @file
 * Full comparison workflow: align one of the paper's species pairs with
 * both Darwin-WGA (gapped filtering) and the LASTZ-like baseline
 * (ungapped filtering), report the Table III sensitivity metrics, and
 * emit MAF files for both.
 *
 *   $ ./examples/align_two_species --pair ce11-cb4 --size 200000
 *   $ ./examples/align_two_species --target t.fa --query q.fa
 *
 * When --target/--query FASTA files are given they are aligned directly
 * (no ground-truth exon metric in that case).
 */
#include <cstdio>

#include "eval/exon_eval.h"
#include "eval/sensitivity.h"
#include "seq/fasta.h"
#include "synth/species.h"
#include "util/args.h"
#include "util/strings.h"
#include "util/thread_pool.h"
#include "wga/maf.h"
#include "wga/pipeline.h"

using namespace darwin;

int
main(int argc, char** argv)
{
    ArgParser args(
        "Align a species pair with Darwin-WGA and the LASTZ-like "
        "baseline; report sensitivity metrics.");
    args.add_option("pair", "dm6-dp4",
                    "paper pair: ce11-cb4 | dm6-dp4 | dm6-droYak2 | "
                    "dm6-droSim1");
    args.add_option("size", "150000", "chromosome length (bp) per genome");
    args.add_option("chromosomes", "1", "chromosomes per genome");
    args.add_option("seed", "42", "workload generator seed");
    args.add_option("target", "", "FASTA path (overrides --pair)");
    args.add_option("query", "", "FASTA path (with --target)");
    args.add_option("threads", "0", "worker threads (0 = all cores)");
    if (!args.parse(argc, argv))
        return 1;

    ThreadPool pool(args.get_uint("threads"));

    seq::Genome target, query;
    std::vector<eval::FlatExon> exons;
    if (!args.get("target").empty()) {
        target = seq::read_genome(args.get("target"));
        query = seq::read_genome(args.get("query"));
    } else {
        synth::AncestorConfig shape;
        shape.num_chromosomes = args.get_uint("chromosomes");
        shape.chromosome_length = args.get_uint("size");
        shape.exons_per_chromosome = shape.chromosome_length / 2500;
        const auto pair = synth::make_species_pair(
            synth::find_species_pair(args.get("pair")), shape,
            args.get_uint("seed"));
        target = pair.target.genome;
        query = pair.query.genome;
        exons = eval::flatten_exons(pair.target, pair.query);
        std::printf("pair %s: %zu planted orthologous exons\n",
                    args.get("pair").c_str(), exons.size());
    }

    const wga::WgaPipeline darwin_wga(wga::WgaParams::darwin_defaults());
    const wga::WgaPipeline lastz_like(wga::WgaParams::lastz_defaults());

    std::printf("running Darwin-WGA (gapped filtering)...\n");
    const auto darwin_result = darwin_wga.run(target, query, {.pool = &pool});
    std::printf("running LASTZ-like baseline (ungapped filtering)...\n");
    const auto lastz_result = lastz_like.run(target, query, {.pool = &pool});

    const auto ds = eval::summarize(darwin_result);
    const auto ls = eval::summarize(lastz_result);
    std::printf("\n%-14s %12s %12s %9s\n", "metric", "LASTZ-like",
                "Darwin-WGA", "gain");
    std::printf("%-14s %12.0f %12.0f %+8.2f%%\n", "top-10 score",
                ls.chains.top_k_score, ds.chains.top_k_score,
                eval::improvement_percent(ls.chains.top_k_score,
                                          ds.chains.top_k_score));
    std::printf("%-14s %12s %12s %8.2fx\n", "matched bp",
                with_commas(ls.chains.total_matched_bases).c_str(),
                with_commas(ds.chains.total_matched_bases).c_str(),
                eval::improvement_ratio(
                    static_cast<double>(ls.chains.total_matched_bases),
                    static_cast<double>(ds.chains.total_matched_bases)));
    if (!exons.empty()) {
        const auto de = eval::count_recovered_exons(exons, darwin_result);
        const auto le = eval::count_recovered_exons(exons, lastz_result);
        std::printf("%-14s %12zu %12zu %+8.2f%%\n", "exons found",
                    le.recovered, de.recovered,
                    eval::improvement_percent(
                        static_cast<double>(le.recovered),
                        static_cast<double>(de.recovered)));
    }
    std::printf("\nruntimes: darwin=%.1fs (seed %.1f / filter %.1f / "
                "extend %.1f), lastz-like=%.1fs\n",
                darwin_result.stats.total_seconds(),
                darwin_result.stats.seed_seconds,
                darwin_result.stats.filter_seconds,
                darwin_result.stats.extend_seconds,
                lastz_result.stats.total_seconds());

    wga::write_maf_file("darwin_wga.maf", darwin_result.alignments, target,
                        query);
    wga::write_maf_file("lastz_like.maf", lastz_result.alignments, target,
                        query);
    std::printf("wrote darwin_wga.maf and lastz_like.maf\n");
    return 0;
}
