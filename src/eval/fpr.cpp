#include "eval/fpr.h"

#include "chain/chain_metrics.h"
#include "seq/shuffle.h"

namespace darwin::eval {

FprResult
noise_analysis(const wga::WgaPipeline& pipeline, const seq::Genome& target,
               const seq::Genome& query, std::size_t repeats,
               std::uint64_t seed, ThreadPool* pool)
{
    FprResult out;
    out.repeats = repeats;

    const wga::WgaResult real = pipeline.run(target, query, {.pool = pool});
    out.real_matched_bases =
        chain::summarize_chains(real.chains).total_matched_bases;

    Rng rng(seed);
    std::uint64_t total_shuffled = 0;
    for (std::size_t r = 0; r < repeats; ++r) {
        const seq::Genome shuffled = seq::shuffle_genome(target, rng);
        const wga::WgaResult null_run =
            pipeline.run(shuffled, query, {.pool = pool});
        total_shuffled +=
            chain::summarize_chains(null_run.chains).total_matched_bases;
    }
    out.shuffled_matched_bases_mean =
        repeats ? static_cast<double>(total_shuffled) /
                      static_cast<double>(repeats)
                : 0.0;
    return out;
}

}  // namespace darwin::eval
