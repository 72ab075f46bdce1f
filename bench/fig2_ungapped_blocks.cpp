/**
 * @file
 * Figure 2 reproduction: distribution of ungapped alignment block sizes
 * in the top-10 chains for a closely related pair vs a distant pair.
 *
 * The paper plots human-chimp (indels every ~641 bp on average) against
 * human-mouse (every ~31 bp), with LASTZ's ungapped-filter requirement
 * (~30 bp of matches) marked: for distant pairs most blocks fall below
 * it. Our analogues are dm6-droSim1 (close) and ce11-cb4 (distant).
 */
#include "bench_common.h"

#include "eval/block_stats.h"

using namespace darwin;

namespace {

void
run_pair(const char* pair_name, const char* role, const ArgParser& args,
         ThreadPool& pool)
{
    const auto pair = bench::make_bench_pair(pair_name, args);
    const wga::WgaPipeline pipeline(wga::WgaParams::darwin_defaults());
    const auto result =
        pipeline.run(pair.target.genome, pair.query.genome, {.pool = &pool});
    const auto stats = eval::collect_block_stats(result, 10);

    std::printf("%s (%s): %zu ungapped blocks in the top-10 chains\n",
                pair_name, role, stats.lengths.size());
    std::printf("  mean block length: %.1f bp (paper: chimp ~641, mouse "
                "~31)\n",
                stats.mean_length);
    std::printf("  fraction below the ~30 bp ungapped-filter line: "
                "%.1f%%\n", stats.fraction_below_30bp * 100.0);
    std::printf("  log2-binned histogram:\n%s\n",
                stats.histogram.render(46).c_str());
}

}  // namespace

int
main(int argc, char** argv)
{
    ArgParser args("Figure 2: ungapped block-size distribution, close vs "
                   "distant pair.");
    bench::add_workload_options(args);
    if (!args.parse(argc, argv))
        return 1;

    ThreadPool pool;
    std::printf("Figure 2: ungapped alignment block sizes from the "
                "top-10 chains (size=%lld bp/genome)\n\n",
                static_cast<long long>(args.get_int("size")));
    run_pair("dm6-droSim1", "close pair, chimp-like", args, pool);
    run_pair("ce11-cb4", "distant pair, mouse-like", args, pool);
    std::printf("expected shape: the distant pair's distribution shifts "
                "far left, with a large fraction of blocks below the "
                "ungapped filter line — those alignments are invisible "
                "to LASTZ's filter.\n");
    return 0;
}
