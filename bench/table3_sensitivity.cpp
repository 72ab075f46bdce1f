/**
 * @file
 * Table III reproduction: sensitivity of Darwin-WGA vs the LASTZ-like
 * baseline on the four species pairs — top-10 chain score improvement,
 * matched base-pairs (and their ratio), and exon recovery counts.
 *
 * Paper reference values (100 Mbp genomes, TBLASTX exon oracle):
 *   ce11-cb4      +5.73%   3.12x   +2.70%
 *   dm6-dp4       +1.86%   1.42x   +0.41%
 *   dm6-droYak2   +0.05%   1.41x   +0.09%
 *   dm6-droSim1   +0.03%   1.25x   +0.20%
 * We reproduce the *shape*: Darwin-WGA never loses, and the gains grow
 * with phylogenetic distance.
 */
#include "bench_common.h"

#include "eval/exon_eval.h"
#include "eval/sensitivity.h"

using namespace darwin;

int
main(int argc, char** argv)
{
    ArgParser args("Table III: sensitivity comparison across the four "
                   "species pairs.");
    bench::add_workload_options(args);
    if (!args.parse(argc, argv))
        return 1;

    ThreadPool pool;
    const wga::WgaPipeline darwin_wga(wga::WgaParams::darwin_defaults());
    const wga::WgaPipeline lastz_like(wga::WgaParams::lastz_defaults());

    std::printf("Table III: sensitivity of Darwin-WGA vs LASTZ-like "
                "baseline (size=%lld bp/genome, seed=%lld)\n\n",
                static_cast<long long>(args.get_int("size")),
                static_cast<long long>(args.get_int("seed")));
    std::printf("%-14s %13s | %12s %12s %7s | %6s %6s %6s %9s\n",
                "Species pair", "top-10 gain", "LASTZ match", "DWGA match",
                "ratio", "exons", "LASTZ", "DWGA", "exon gain");
    bench::rule();

    for (const auto& spec : synth::paper_species_pairs()) {
        const auto pair = bench::make_bench_pair(spec.pair_name, args);
        const auto exons = eval::flatten_exons(pair.target, pair.query);

        const auto lastz_result =
            lastz_like.run(pair.target.genome, pair.query.genome,
                           {.pool = &pool});
        const auto darwin_result =
            darwin_wga.run(pair.target.genome, pair.query.genome,
                           {.pool = &pool});

        const auto ls = eval::summarize(lastz_result);
        const auto ds = eval::summarize(darwin_result);
        const auto le = eval::count_recovered_exons(exons, lastz_result);
        const auto de = eval::count_recovered_exons(exons, darwin_result);

        std::printf(
            "%-14s %+12.2f%% | %12s %12s %6.2fx | %6zu %6zu %6zu %+8.2f%%\n",
            spec.pair_name.c_str(),
            eval::improvement_percent(ls.chains.top_k_score,
                                      ds.chains.top_k_score),
            with_commas(ls.chains.total_matched_bases).c_str(),
            with_commas(ds.chains.total_matched_bases).c_str(),
            eval::improvement_ratio(
                static_cast<double>(ls.chains.total_matched_bases),
                static_cast<double>(ds.chains.total_matched_bases)),
            exons.size(), le.recovered, de.recovered,
            eval::improvement_percent(static_cast<double>(le.recovered),
                                      static_cast<double>(de.recovered)));
    }
    std::printf(
        "\npaper: ce11-cb4 +5.73%% / 3.12x / +2.70%% ; dm6-dp4 +1.86%% / "
        "1.42x / +0.41%% ;\n       dm6-droYak2 +0.05%% / 1.41x / +0.09%% ; "
        "dm6-droSim1 +0.03%% / 1.25x / +0.20%%\n");
    return 0;
}
