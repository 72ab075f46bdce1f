/**
 * @file
 * Parameter sweep: how the gapped-filter threshold Hf, the band width B,
 * and transition seeding trade sensitivity against filter workload.
 *
 * Section VI-B of the paper discusses exactly this dial: Hf = 3000
 * (LASTZ's default) admits too much noise (1.48% FPR), Hf = 4000 keeps
 * the sensitivity gain at 0.0007% FPR. This example reproduces the
 * sweep on a synthetic pair so users can pick their own operating point.
 *
 *   $ ./examples/sensitivity_sweep --pair dm6-dp4 --size 100000
 */
#include <cstdio>

#include "eval/sensitivity.h"
#include "synth/species.h"
#include "util/args.h"
#include "util/strings.h"
#include "util/thread_pool.h"
#include "wga/pipeline.h"

using namespace darwin;

namespace {

struct SweepRow {
    std::string label;
    wga::WgaParams params;
};

void
run_row(const SweepRow& row, const seq::Genome& target,
        const seq::Genome& query, ThreadPool& pool)
{
    const wga::WgaPipeline pipeline(row.params);
    const auto result = pipeline.run(target, query, {.pool = &pool});
    const auto summary = eval::summarize(result);
    std::printf("%-26s %10s %8llu %10s %12s\n", row.label.c_str(),
                with_commas(result.stats.filter.tiles).c_str(),
                static_cast<unsigned long long>(
                    result.stats.filter.passed),
                with_commas(result.alignments.size()).c_str(),
                with_commas(summary.chains.total_matched_bases).c_str());
}

}  // namespace

int
main(int argc, char** argv)
{
    ArgParser args("Sweep filter parameters and report sensitivity.");
    args.add_option("pair", "dm6-dp4", "paper species pair");
    args.add_option("size", "100000", "chromosome length (bp)");
    args.add_option("seed", "7", "workload generator seed");
    args.add_option("threads", "0", "worker threads (0 = all cores)");
    if (!args.parse(argc, argv))
        return 1;

    synth::AncestorConfig shape;
    shape.num_chromosomes = 1;
    shape.chromosome_length = args.get_uint("size");
    shape.exons_per_chromosome = shape.chromosome_length / 2500;
    const auto pair = synth::make_species_pair(
        synth::find_species_pair(args.get("pair")), shape,
        args.get_uint("seed"));
    ThreadPool pool(args.get_uint("threads"));

    std::printf("%-26s %10s %8s %10s %12s\n", "configuration",
                "filt.tiles", "passed", "alignments", "matched bp");

    std::vector<SweepRow> rows;
    for (const align::Score hf : {3000, 3500, 4000, 5000, 6000}) {
        SweepRow row;
        row.label = strprintf("gapped Hf=%d", hf);
        row.params = wga::WgaParams::darwin_defaults();
        row.params.filter_threshold = hf;
        rows.push_back(row);
    }
    for (const std::size_t band : {8u, 16u, 32u, 64u}) {
        SweepRow row;
        row.label = strprintf("gapped band B=%zu", band);
        row.params = wga::WgaParams::darwin_defaults();
        row.params.filter_band = band;
        rows.push_back(row);
    }
    {
        SweepRow row;
        row.label = "gapped, no transitions";
        row.params = wga::WgaParams::darwin_defaults();
        row.params.dsoft.transitions = false;
        rows.push_back(row);
        SweepRow lastz;
        lastz.label = "ungapped (LASTZ-like)";
        lastz.params = wga::WgaParams::lastz_defaults();
        rows.push_back(lastz);
    }

    for (const auto& row : rows)
        run_row(row, pair.target.genome, pair.query.genome, pool);
    return 0;
}
