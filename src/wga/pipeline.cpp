#include "wga/pipeline.h"

#include <algorithm>
#include <memory>

#include "align/kernels/kernel_registry.h"
#include "fault/cancel.h"
#include "obs/trace.h"
#include "seed/dsoft.h"
#include "seed/seed_index.h"
#include "util/logging.h"
#include "util/strings.h"
#include "util/timer.h"

namespace darwin::wga {

void
PipelineStats::merge(const PipelineStats& other)
{
    seeding.merge(other.seeding);
    filter.merge(other.filter);
    extend.merge(other.extend);
    seed_seconds += other.seed_seconds;
    filter_seconds += other.filter_seconds;
    extend_seconds += other.extend_seconds;
    chain_seconds += other.chain_seconds;
}

void
publish_pipeline_stats(obs::MetricsRegistry& metrics,
                       const PipelineStats& stats,
                       const std::string& prefix)
{
    const auto name = [&prefix](const char* leaf) { return prefix + leaf; };
    metrics.counter(name(".seed.lookups")).add(stats.seeding.seed_lookups);
    metrics.counter(name(".seed.hits")).add(stats.seeding.seed_hits);
    metrics.counter(name(".seed.candidates")).add(stats.seeding.candidates);
    metrics.counter(name(".filter.tiles")).add(stats.filter.tiles);
    metrics.counter(name(".filter.cells")).add(stats.filter.cells);
    metrics.counter(name(".filter.passed")).add(stats.filter.passed);
    metrics.counter(name(".filter.dropped"))
        .add(stats.filter.tiles - stats.filter.passed);
    metrics.counter(name(".extend.anchors_in")).add(stats.extend.anchors_in);
    metrics.counter(name(".extend.absorbed")).add(stats.extend.absorbed);
    metrics.counter(name(".extend.extended")).add(stats.extend.extended);
    metrics.counter(name(".extend.duplicates")).add(stats.extend.duplicates);
    metrics.counter(name(".extend.alignments"))
        .add(stats.extend.alignments_out);
    metrics.counter(name(".extend.matched_bases"))
        .add(stats.extend.matched_bases);
    metrics.counter(name(".extend.tiles")).add(stats.extend.extension.tiles);
    metrics.counter(name(".extend.cells")).add(stats.extend.extension.cells);
    metrics.counter(name(".extend.traceback_ops"))
        .add(stats.extend.extension.traceback_ops);
    metrics.counter(name(".extend.stripes"))
        .add(stats.extend.extension.stripes);
    metrics.counter(name(".extend.xdrop_terminations"))
        .add(stats.extend.extension.xdrop_terminations);
    if (stats.seed_seconds > 0.0)
        metrics.histogram(name(".seed.seconds")).observe(stats.seed_seconds);
    if (stats.filter_seconds > 0.0)
        metrics.histogram(name(".filter.seconds"))
            .observe(stats.filter_seconds);
    if (stats.extend_seconds > 0.0)
        metrics.histogram(name(".extend.seconds"))
            .observe(stats.extend_seconds);
    if (stats.chain_seconds > 0.0)
        metrics.histogram(name(".chain.seconds"))
            .observe(stats.chain_seconds);
}

WgaPipeline::WgaPipeline(WgaParams params, chain::ChainParams chain_params)
    : params_(std::move(params)), chain_params_(std::move(chain_params))
{
}

namespace {

/** The filter/extension view of a byte-per-base sequence... */
seq::BaseView
base_view(const seq::Sequence& sequence)
{
    return std::span<const std::uint8_t>{sequence.codes().data(),
                                         sequence.size()};
}

/** ...and of a 2-bit packed one (decoded one tile window at a time). */
seq::BaseView
base_view(const seq::PackedSequence& sequence)
{
    return seq::BaseView(sequence);
}

/** Merge a stage's stats fragment into *stats and, with a registry,
 *  publish it, so a progress reporter watching the registry sees
 *  per-stage movement mid-run. */
void
commit_stage(const PipelineStats& stage, PipelineStats* stats,
             obs::MetricsRegistry* metrics)
{
    stats->merge(stage);
    if (metrics != nullptr)
        publish_pipeline_stats(*metrics, stage);
}

/** Mark the thread as inside `stage` for one seed+filter batch. Only
 *  the first batch visits the stage's probe, so a strand pass visits
 *  "wga.seed" and "wga.filter" once each whatever its batch count. */
void
enter_batch_stage(bool first_batch, const char* stage, const char* probe)
{
    if (first_batch)
        fault::enter_stage(stage, probe);
    else
        fault::set_stage(stage);
}

/**
 * Seed -> filter -> extend one query orientation. Both sequences are
 * read through seq::BaseView, so byte and packed runs give
 * bit-identical results. Each stage commits its stats fragment as it
 * completes; extension starts with fault::enter_stage (marker plus its
 * "wga.extend" probe).
 */
std::vector<align::Alignment>
run_one_strand(const WgaParams& params, const seed::SeedIndex& index,
               seq::BaseView target, seq::BaseView query,
               align::Strand strand, PipelineStats* stats, ThreadPool* pool,
               obs::MetricsRegistry* metrics)
{
    PipelineStats seed_filter;
    const std::vector<FilterCandidate> candidates =
        seed_and_filter(params, index, target, query, strand,
                        kSeedFilterBatchChunks, &seed_filter, pool);
    commit_stage(seed_filter, stats, metrics);

    Timer timer;
    std::vector<align::Alignment> alignments;
    {
        fault::enter_stage("extend", "wga.extend");
        obs::ScopedSpan span("extend", "wga");
        span.arg("strand", strand == align::Strand::Reverse ? 1 : 0);
        PipelineStats stage;
        const align::GactXTileAligner aligner(params.gactx);
        ExtendStage extend(params, target, query);
        alignments =
            extend.extend_all(candidates, aligner, &stage.extend, pool);
        stage.extend_seconds = timer.seconds();
        span.arg("alignments", static_cast<std::int64_t>(alignments.size()));
        commit_stage(stage, stats, metrics);
    }

    for (auto& alignment : alignments)
        alignment.query_strand = strand;
    return alignments;
}

}  // namespace

std::vector<FilterCandidate>
seed_and_filter(const WgaParams& params, const seed::SeedIndex& index,
                seq::BaseView target, seq::BaseView query,
                align::Strand strand, std::size_t batch_chunks,
                PipelineStats* stats, ThreadPool* pool)
{
    require(batch_chunks > 0, "seed_and_filter: batch_chunks must be > 0");
    const std::int64_t strand_arg =
        strand == align::Strand::Reverse ? 1 : 0;
    const seed::DsoftSeeder seeder(index, params.dsoft);
    const FilterStage filter(params, target, query);
    const std::size_t chunk_size = params.dsoft.chunk_size;
    const std::size_t num_chunks =
        (query.size() + chunk_size - 1) / chunk_size;

    std::vector<FilterCandidate> candidates;
    std::vector<std::vector<seed::SeedHit>> chunk_hits;
    std::vector<seed::SeedingStats> chunk_stats;
    std::vector<seed::SeedHit> hits;
    std::uint64_t total_hits = 0;
    // An empty query still runs one (empty) batch, so both stages are
    // entered and traced once.
    std::size_t first = 0;
    do {
        const std::size_t last = std::min(num_chunks, first + batch_chunks);
        const bool first_batch = first == 0;

        Timer timer;
        {
            enter_batch_stage(first_batch, "seed", "wga.seed");
            obs::ScopedSpan span("seed", "wga");
            span.arg("strand", strand_arg);
            span.arg("chunk", static_cast<std::int64_t>(first));
            chunk_hits.assign(last - first, {});
            chunk_stats.assign(last - first, {});
            const auto seed_one = [&](std::size_t c) {
                const std::size_t begin = (first + c) * chunk_size;
                chunk_hits[c] = seeder.seed_chunk(
                    query, begin, std::min(query.size(), begin + chunk_size),
                    &chunk_stats[c]);
            };
            if (pool != nullptr) {
                pool->parallel_for(0, last - first, seed_one);
            } else {
                for (std::size_t c = 0; c < last - first; ++c)
                    seed_one(c);
            }
            hits.clear();
            for (std::size_t c = 0; c < last - first; ++c) {
                stats->seeding.merge(chunk_stats[c]);
                hits.insert(hits.end(), chunk_hits[c].begin(),
                            chunk_hits[c].end());
            }
            total_hits += hits.size();
            stats->seed_seconds += timer.seconds();
            span.arg("hits", static_cast<std::int64_t>(hits.size()));
        }

        timer.reset();
        {
            enter_batch_stage(first_batch, "filter", "wga.filter");
            obs::ScopedSpan span("filter", "wga");
            span.arg("strand", strand_arg);
            span.arg("chunk", static_cast<std::int64_t>(first));
            const std::size_t before = candidates.size();
            for (const auto& slot :
                 filter.filter_hits(hits, &stats->filter, pool)) {
                if (slot)
                    candidates.push_back(*slot);
            }
            stats->filter_seconds += timer.seconds();
            span.arg("candidates",
                     static_cast<std::int64_t>(candidates.size() - before));
        }
        first = last;
    } while (first < num_chunks);

    std::sort(candidates.begin(), candidates.end(), CandidateOrder{});
    debug(strprintf("seeding(%s): %llu candidate hits, %zu passed the filter",
                    strand == align::Strand::Reverse ? "-" : "+",
                    static_cast<unsigned long long>(total_hits),
                    candidates.size()));
    return candidates;
}

WgaResult
WgaPipeline::run(const seq::Genome& target, const seq::Genome& query,
                 const RunOptions& options) const
{
    if (target.packed() && params_.filter_mode == FilterMode::Gapped)
        return run_impl(target.flattened_packed(), query.flattened_packed(),
                        options);
    return run_impl(target.flattened(), query.flattened(), options);
}

template <class Sequence>
WgaResult
WgaPipeline::run_impl(const Sequence& target, const Sequence& query,
                      const RunOptions& options) const
{
    if (options.index != nullptr &&
        options.index->pattern().pattern() != params_.seed_pattern)
        fatal(strprintf("index seed shape %s does not match the "
                        "pipeline's %s",
                        options.index->pattern().pattern().c_str(),
                        params_.seed_pattern.c_str()));
    obs::MetricsRegistry* metrics = options.metrics;

    // Umbrella span over the whole run: per-request dumps group the
    // index/seed/filter/extend/chain children under one "pipeline" row,
    // and the span carries the workload size for at-a-glance triage.
    obs::ScopedSpan pipeline_span("pipeline", "wga");
    pipeline_span.arg("target_bases",
                      static_cast<std::int64_t>(target.size()));
    pipeline_span.arg("query_bases",
                      static_cast<std::int64_t>(query.size()));

    if (metrics != nullptr) {
        // Which kernel implementation the filter and extension stages
        // dispatch to (id: 0 scalar, 1 sse42, 2 avx2, 3 avx512). All
        // kernels are bit-identical, so every other wga.* value is
        // kernel-invariant.
        const int kernel_id =
            align::kernels::KernelRegistry::instance().active().id;
        metrics->gauge("wga.filter.kernel").set(kernel_id);
        metrics->gauge("wga.extend.kernel").set(kernel_id);
    }

    WgaResult result;
    const seed::SeedIndex* index = options.index;
    std::unique_ptr<seed::SeedIndex> built;
    if (index == nullptr) {
        // The build is accounted as seeding time (Table V).
        Timer timer;
        obs::ScopedSpan span("index", "wga");
        built = std::make_unique<seed::SeedIndex>(
            target, seed::SeedPattern(params_.seed_pattern));
        index = built.get();
        PipelineStats stage;
        stage.seed_seconds = timer.seconds();
        commit_stage(stage, &result.stats, metrics);
    }

    // Coordinates of the reverse pass stay in reverse-complement space
    // (the MAF '-' strand convention).
    const std::size_t num_strands = params_.align_both_strands ? 2 : 1;
    Sequence query_rc;
    if (num_strands == 2)
        query_rc = query.reverse_complement();

    std::vector<std::vector<align::Alignment>> per_strand(num_strands);
    std::vector<PipelineStats> strand_stats(num_strands);
    const auto run_strand = [&](std::size_t s) {
        per_strand[s] = run_one_strand(
            params_, *index, base_view(target),
            base_view(s == 0 ? query : query_rc),
            s == 0 ? align::Strand::Forward : align::Strand::Reverse,
            &strand_stats[s], options.pool, metrics);
    };
    if (options.pool != nullptr && num_strands == 2) {
        // The strand passes are independent: run them as two concurrent
        // streams over the shared pool. Their inner parallel_for calls
        // nest safely because waiting callers help drain the pool queue.
        options.pool->parallel_for(0, num_strands, run_strand, 1);
    } else {
        for (std::size_t s = 0; s < num_strands; ++s)
            run_strand(s);
    }
    for (std::size_t s = 0; s < num_strands; ++s) {
        result.stats.merge(strand_stats[s]);
        result.alignments.insert(
            result.alignments.end(),
            std::make_move_iterator(per_strand[s].begin()),
            std::make_move_iterator(per_strand[s].end()));
    }

    Timer timer;
    fault::enter_stage("chain", "wga.chain");
    obs::ScopedSpan span("chain", "wga");
    result.chains = chain::chain_alignments(result.alignments, chain_params_);
    PipelineStats stage;
    stage.chain_seconds = timer.seconds();
    result.stats.chain_seconds = stage.chain_seconds;
    span.arg("chains", static_cast<std::int64_t>(result.chains.size()));
    if (metrics != nullptr)
        publish_pipeline_stats(*metrics, stage);
    return result;
}

}  // namespace darwin::wga
