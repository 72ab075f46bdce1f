/**
 * @file
 * Quickstart: synthesize a pair of related genomes, align them with the
 * Darwin-WGA pipeline, and inspect the resulting chains.
 *
 *   $ ./examples/quickstart
 *
 * This touches the three layers a typical user needs:
 *   1. darwin::synth  — make reproducible test genomes (or load FASTA
 *      with darwin::seq::read_genome),
 *   2. darwin::wga    — run the seed/filter/extend/chain pipeline,
 *   3. results        — alignments, chains, and per-stage statistics.
 */
#include <cstdio>

#include "synth/species.h"
#include "util/strings.h"
#include "util/thread_pool.h"
#include "wga/maf.h"
#include "wga/pipeline.h"

int
main()
{
    using namespace darwin;

    // 1. Build a synthetic species pair modeled on dm6 vs D. simulans
    //    (the closest pair in the paper's evaluation). Same seed -> same
    //    genomes, always.
    synth::AncestorConfig shape;
    shape.num_chromosomes = 1;
    shape.chromosome_length = 100'000;
    shape.exons_per_chromosome = 40;
    const synth::SpeciesPair pair = synth::make_species_pair(
        synth::find_species_pair("dm6-droSim1"), shape, /*seed=*/1);

    std::printf("target %s: %zu bp, query %s: %zu bp\n",
                pair.target.genome.name().c_str(),
                pair.target.genome.total_length(),
                pair.query.genome.name().c_str(),
                pair.query.genome.total_length());

    // 2. Run Darwin-WGA with the paper's default parameters.
    const wga::WgaPipeline pipeline(wga::WgaParams::darwin_defaults());
    ThreadPool pool;
    const wga::WgaResult result =
        pipeline.run(pair.target.genome, pair.query.genome, {.pool = &pool});

    // 3. Look at what came out.
    std::printf("\npipeline: %zu alignments, %zu chains\n",
                result.alignments.size(), result.chains.size());
    std::printf("workload: %s seed lookups, %s filter tiles, "
                "%s extension tiles\n",
                with_commas(result.stats.seeding.seed_lookups).c_str(),
                with_commas(result.stats.filter.tiles).c_str(),
                with_commas(result.stats.extend.extension.tiles).c_str());

    std::printf("\ntop chains:\n");
    const std::size_t show = std::min<std::size_t>(5, result.chains.size());
    for (std::size_t i = 0; i < show; ++i) {
        const auto& chain = result.chains[i];
        std::printf("  #%zu score=%.0f blocks=%zu matched=%s "
                    "t[%llu,%llu)\n",
                    i + 1, chain.score, chain.size(),
                    with_commas(chain.matched_bases).c_str(),
                    static_cast<unsigned long long>(chain.target_start),
                    static_cast<unsigned long long>(chain.target_end));
    }

    // Write the raw alignments as MAF for genome-browser style tooling.
    wga::write_maf_file("quickstart.maf", result.alignments,
                        pair.target.genome, pair.query.genome);
    std::printf("\nwrote quickstart.maf\n");
    return 0;
}
