/**
 * @file
 * Figure 8 reproduction: phylogenetic distances (substitutions/site)
 * between the species pairs, estimated from aligned columns of the top
 * chains with the Jukes-Cantor correction (the paper uses PHAST on its
 * real alignments).
 *
 * Paper tree (pairwise path lengths, approximate): ce11-cb4 is by far
 * the most diverged pair; dm6-droSim1 the closest; dm6-droYak2 and
 * dm6-dp4 in between.
 */
#include "bench_common.h"

#include "synth/distance.h"

using namespace darwin;

int
main(int argc, char** argv)
{
    ArgParser args("Figure 8: estimated phylogenetic distances of the "
                   "four pairs.");
    bench::add_workload_options(args);
    if (!args.parse(argc, argv))
        return 1;

    ThreadPool pool;
    const wga::WgaPipeline pipeline(wga::WgaParams::darwin_defaults());

    std::printf("Figure 8: Jukes-Cantor distance over aligned columns of "
                "the top-10 chains (size=%lld bp/genome)\n\n",
                static_cast<long long>(args.get_int("size")));
    std::printf("%-14s %12s %12s %14s %16s\n", "Species pair",
                "matches", "mismatches", "JC distance",
                "neutral (model)");
    bench::rule(75);

    for (const auto& spec : synth::paper_species_pairs()) {
        const auto pair = bench::make_bench_pair(spec.pair_name, args);
        const auto result =
            pipeline.run(pair.target.genome, pair.query.genome,
                         {.pool = &pool});

        synth::AlignedColumnCounts counts;
        const std::size_t top = std::min<std::size_t>(10,
                                                      result.chains.size());
        for (std::size_t c = 0; c < top; ++c) {
            for (const std::size_t idx : result.chains[c].members) {
                const auto& cigar = result.alignments[idx].cigar;
                counts.matches += cigar.matches();
                counts.mismatches += cigar.mismatches();
            }
        }
        std::printf("%-14s %12s %12s %14.3f %16.2f\n",
                    spec.pair_name.c_str(),
                    with_commas(counts.matches).c_str(),
                    with_commas(counts.mismatches).c_str(),
                    synth::jukes_cantor_distance(counts), spec.distance);
    }
    std::printf("\nnote: aligned columns oversample conserved islands, "
                "so the JC estimate sits well below the neutral model "
                "rate — as in real WGAs, where PHAST distances describe "
                "alignable sequence only.\n");
    return 0;
}
