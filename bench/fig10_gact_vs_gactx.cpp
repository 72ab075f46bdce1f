/**
 * @file
 * Figure 10 reproduction: GACT vs GACT-X at equal traceback memory.
 *
 * The same anchors (from the Darwin-WGA seeding + gapped filtering of a
 * distant pair) are extended with
 *   - GACT at 512 KB, 1 MB and 2 MB traceback memory (tile sizes ~1023,
 *     1447, 2047 — the full-matrix pointer store dictates the tile), and
 *   - GACT-X at its default (1920 bp tile in 1 MB).
 * Reported, normalized to GACT-X: matched base-pairs in the resulting
 * alignments (alignment quality) and throughput (aligned bp per second
 * in software, plus modeled hardware cycles per aligned bp).
 *
 * Paper: at 1 MB GACT reaches only 0.56x the matched bp and 0.66x the
 * throughput of GACT-X; even at 2 MB it stays below 1x on both.
 */
#include "bench_common.h"

#include "align/gact.h"
#include "hw/gactx_array.h"
#include "util/timer.h"

using namespace darwin;

namespace {

struct EngineResult {
    std::string label;
    std::uint64_t matched = 0;
    double seconds = 0.0;
    std::uint64_t aligned_bp = 0;
    std::uint64_t hw_cycles = 0;

    double
    bp_per_second() const
    {
        return seconds > 0 ? static_cast<double>(aligned_bp) / seconds
                           : 0.0;
    }
};

EngineResult
run_engine(const std::string& label, const align::TileAligner& aligner,
           const wga::WgaParams& params,
           std::span<const std::uint8_t> target,
           std::span<const std::uint8_t> query,
           const std::vector<wga::FilterCandidate>& candidates,
           std::size_t npe)
{
    EngineResult out;
    out.label = label;
    wga::ExtendStage stage(params, target, query);
    wga::ExtendStats stats;
    Timer timer;
    const auto alignments = stage.extend_all(candidates, aligner, &stats);
    out.seconds = timer.seconds();
    for (const auto& alignment : alignments) {
        out.matched += alignment.matched_bases();
        out.aligned_bp += alignment.target_span();
    }
    // Hardware cycles: GACT-X reports stripe columns; GACT computes the
    // full tile, ideal wavefront = cells/npe, plus the traceback walk.
    if (stats.extension.stripe_columns > 0) {
        out.hw_cycles = hw::GactXArrayModel::workload_cycles(
            stats.extension, npe);
    } else {
        out.hw_cycles = stats.extension.cells / npe +
                        stats.extension.traceback_ops +
                        stats.extension.tiles * hw::kTileSetupCycles;
    }
    return out;
}

}  // namespace

int
main(int argc, char** argv)
{
    ArgParser args("Figure 10: GACT vs GACT-X quality and throughput vs "
                   "traceback memory.");
    bench::add_workload_options(args);
    args.add_option("anchors", "200", "max anchors to extend");
    if (!args.parse(argc, argv))
        return 1;

    ThreadPool pool;
    const auto params = wga::WgaParams::darwin_defaults();

    // Fig. 10's workload is cross-species WGA "where gaps are fewer but
    // tend to be long" (§VI-D): evolve a distant pair whose indel length
    // distribution has a strong multi-kilobase tail, so that tile size
    // (i.e., traceback memory) limits which gaps an engine can bridge.
    synth::AncestorConfig shape;
    shape.num_chromosomes = args.get_uint("chromosomes");
    shape.chromosome_length = args.get_uint("size");
    shape.exons_per_chromosome = shape.chromosome_length / 2500;
    shape.island_mean_length = 1500;  // long islands host long gaps
    const auto spec = synth::find_species_pair("ce11-cb4");
    Rng rng(args.get_uint("seed"));
    const auto ancestor = synth::make_ancestor(
        "fig10_anc", shape, synth::MarkovSource::genome_like(), rng);
    synth::BranchParams branch;
    branch.substitutions_per_site = spec.distance / 2.0;
    branch.indel_rate_per_site = spec.indel_rate_per_site / 2.0;
    branch.long_indel_fraction = 0.05;
    branch.long_indel_max = 2500;
    Rng t_rng = rng.fork();
    Rng q_rng = rng.fork();
    synth::SpeciesPair pair;
    pair.target = synth::evolve_genome(ancestor, "fig10_t", branch, t_rng);
    pair.query = synth::evolve_genome(ancestor, "fig10_q", branch, q_rng);

    const auto& target = pair.target.genome.flattened();
    const auto& query = pair.query.genome.flattened();
    const std::span<const std::uint8_t> ts{target.codes().data(),
                                           target.size()};
    const std::span<const std::uint8_t> qs{query.codes().data(),
                                           query.size()};

    // Derive anchors exactly as the Darwin-WGA pipeline does.
    const seed::SeedPattern pattern(params.seed_pattern);
    const seed::SeedIndex index(target, pattern);
    const seed::DsoftSeeder seeder(index, params.dsoft);
    const auto hits = seeder.seed_all(query, nullptr, &pool);
    const wga::FilterStage filter(params, ts, qs);
    auto candidates = filter.filter_all(hits, nullptr, &pool);
    const auto max_anchors = args.get_uint("anchors");
    if (candidates.size() > max_anchors)
        candidates.resize(max_anchors);
    std::printf("Figure 10: GACT vs GACT-X on %zu shared anchors "
                "(ce11-cb4 analogue, %lld bp/genome)\n\n",
                candidates.size(),
                static_cast<long long>(args.get_int("size")));

    std::vector<EngineResult> results;

    const align::GactXTileAligner gactx(params.gactx);
    results.push_back(run_engine("GACT-X (1MB, tile 1920)", gactx, params,
                                 ts, qs, candidates,
                                 params.gactx.num_pe));

    for (const std::uint64_t kb : {512ULL, 1024ULL, 2048ULL}) {
        align::GactParams gact_params;
        gact_params.scoring = params.scoring;
        gact_params.traceback_bytes = kb << 10;
        gact_params.overlap = params.gactx.overlap;
        const align::GactTileAligner gact(gact_params);
        results.push_back(run_engine(
            strprintf("GACT (%lluKB, tile %zu)",
                      static_cast<unsigned long long>(kb),
                      gact.tile_size()),
            gact, params, ts, qs, candidates, params.gactx.num_pe));
    }

    const auto& base = results.front();
    std::printf("%-26s %12s %9s %13s %9s %12s\n", "Engine", "matched bp",
                "quality", "sw bp/s", "sw thr.", "hw cycles/bp");
    bench::rule(90);
    for (const auto& result : results) {
        const double quality =
            base.matched ? static_cast<double>(result.matched) /
                               static_cast<double>(base.matched)
                         : 0.0;
        const double sw_thr =
            base.bp_per_second() > 0
                ? result.bp_per_second() / base.bp_per_second()
                : 0.0;
        const double base_cpb =
            base.aligned_bp
                ? static_cast<double>(base.hw_cycles) /
                      static_cast<double>(base.aligned_bp)
                : 0.0;
        const double cpb =
            result.aligned_bp
                ? static_cast<double>(result.hw_cycles) /
                      static_cast<double>(result.aligned_bp)
                : 0.0;
        std::printf("%-26s %12s %8.2fx %13s %8.2fx %9.1f (%4.2fx)\n",
                    result.label.c_str(),
                    with_commas(result.matched).c_str(), quality,
                    si_magnitude(result.bp_per_second()).c_str(), sw_thr,
                    cpb, base_cpb > 0 ? base_cpb / cpb : 0.0);
    }
    std::printf("\npaper (normalized to GACT-X): GACT@1MB quality 0.56x, "
                "throughput 0.66x; GACT@2MB still < 1x on both\n");
    return 0;
}
