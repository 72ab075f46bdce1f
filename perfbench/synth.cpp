/**
 * @file
 * perfbench-synth — the benchmark's input generator.
 *
 * Writes a paper species-pair analogue like `darwin-wga synthesize`
 * (same ancestor model and branch parameters), with one difference: the
 * ancestor comes from --ancestor-seed and only the two branch
 * evolutions come from --seed. A workload thus keeps one genome
 * structure — islands, exons, paralogous repeat families, whose copy
 * counts swing the alignment work by 2x between ancestors — and each
 * seed gives a fresh pair of descendants of it.
 *
 *   perfbench-synth --pair ce11-cb4 --size 30000 --ancestor-seed 1
 *                   --seed 7 --prefix p
 *   -> p_target.fa, p_query.fa
 */
#include <cstdio>

#include "seq/fasta.h"
#include "synth/evolver.h"
#include "synth/markov_source.h"
#include "synth/species.h"
#include "util/args.h"
#include "util/logging.h"
#include "util/rng.h"

using namespace darwin;

int
main(int argc, char** argv)
{
    ArgParser args("perfbench-synth: species-pair analogue with a fixed "
                   "ancestor and seeded branches.");
    args.add_option("pair", "ce11-cb4",
                    "ce11-cb4 | dm6-dp4 | dm6-droYak2 | dm6-droSim1");
    args.add_option("size", "30000", "ancestor chromosome length (bp)");
    args.add_option("ancestor-seed", "1", "seed of the shared ancestor");
    args.add_option("seed", "1", "seed of the two branch evolutions");
    args.add_option("prefix", "pair", "output file prefix");
    if (!args.parse(argc, argv))
        return 1;
    try {
        const synth::SpeciesPairSpec spec =
            synth::find_species_pair(args.get("pair"));
        synth::AncestorConfig config;
        // Two chromosomes and one exon per 2500 bp, as the CLI defaults.
        config.num_chromosomes = 2;
        config.chromosome_length =
            static_cast<std::size_t>(args.get_int("size"));
        config.exons_per_chromosome = config.chromosome_length / 2500;
        config.island_sub_factor_min = spec.island_sub_factor_min;
        config.island_sub_factor_max = spec.island_sub_factor_max;
        config.island_indel_factor_min = spec.island_indel_factor_min;
        config.island_indel_factor_max = spec.island_indel_factor_max;
        Rng ancestor_rng(
            static_cast<std::uint64_t>(args.get_int("ancestor-seed")));
        const synth::AnnotatedGenome ancestor = synth::make_ancestor(
            spec.pair_name + "_anc", config,
            synth::MarkovSource::genome_like(), ancestor_rng);

        synth::BranchParams branch;
        branch.substitutions_per_site = spec.distance / 2.0;
        branch.indel_rate_per_site = spec.indel_rate_per_site / 2.0;
        branch.long_indel_fraction = 0.04;
        Rng rng(static_cast<std::uint64_t>(args.get_int("seed")));
        Rng target_rng = rng.fork();
        Rng query_rng = rng.fork();
        const std::string prefix = args.get("prefix");
        seq::write_genome_file(
            prefix + "_target.fa",
            synth::evolve_genome(ancestor, spec.target_name, branch,
                                 target_rng)
                .genome);
        seq::write_genome_file(
            prefix + "_query.fa",
            synth::evolve_genome(ancestor, spec.query_name, branch,
                                 query_rng)
                .genome);
    } catch (const FatalError& error) {
        std::fprintf(stderr, "error: %s\n", error.what());
        return 1;
    }
    return 0;
}
