/**
 * @file
 * §VI-B noise analysis reproduction: false positive rate against a
 * dinucleotide-preserving shuffle of the target genome.
 *
 * Paper: Darwin-WGA at Hf=4000 has FPR 0.0007% (1,334 of 180.8M matched
 * bp are against the shuffled target); LASTZ 0.0002%; dropping Hf to
 * LASTZ's 3000 explodes the FPR to 1.48% — which is why 4000 is the
 * default.
 */
#include "bench_common.h"

#include "eval/fpr.h"

using namespace darwin;

namespace {

void
run_config(const char* label, const wga::WgaParams& params,
           const synth::SpeciesPair& pair, std::size_t repeats,
           std::uint64_t seed, ThreadPool& pool)
{
    const wga::WgaPipeline pipeline(params);
    const auto result = eval::noise_analysis(
        pipeline, pair.target.genome, pair.query.genome, repeats, seed,
        &pool);
    std::printf("%-24s %14s %16.1f %11.4f%%\n", label,
                with_commas(result.real_matched_bases).c_str(),
                result.shuffled_matched_bases_mean,
                result.rate() * 100.0);
}

}  // namespace

int
main(int argc, char** argv)
{
    ArgParser args("Noise analysis: FPR against a 2-mer-preserving "
                   "shuffled target.");
    bench::add_workload_options(args);
    args.add_option("repeats", "2", "shuffled-genome repetitions");
    if (!args.parse(argc, argv))
        return 1;

    ThreadPool pool;
    const auto pair = bench::make_bench_pair("ce11-cb4", args);
    const auto repeats = args.get_uint("repeats");
    const auto seed = args.get_uint("seed");

    std::printf("Noise analysis on ce11-cb4 analogue (size=%lld bp, %zu "
                "shuffle repeats)\n\n",
                static_cast<long long>(args.get_int("size")), repeats);
    std::printf("%-24s %14s %16s %12s\n", "Configuration", "real match",
                "shuffled match", "FPR");
    bench::rule(72);

    run_config("Darwin-WGA (Hf=4000)", wga::WgaParams::darwin_defaults(),
               pair, repeats, seed + 1, pool);
    run_config("LASTZ-like (ungapped)", wga::WgaParams::lastz_defaults(),
               pair, repeats, seed + 2, pool);
    auto loose = wga::WgaParams::darwin_defaults();
    loose.filter_threshold = 3000;
    loose.extension_threshold = 3000;
    run_config("Darwin-WGA (Hf=3000)", loose, pair, repeats, seed + 3,
               pool);

    std::printf("\npaper: Darwin-WGA 0.0007%%, LASTZ 0.0002%%, Darwin-WGA "
                "at Hf=3000: 1.48%%\n");
    return 0;
}
