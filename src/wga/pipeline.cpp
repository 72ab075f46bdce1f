#include "wga/pipeline.h"

#include "align/kernels/kernel_registry.h"
#include "fault/cancel.h"
#include "obs/trace.h"
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

/** Seed -> filter -> extend one query orientation against the index.
 *  `Sequence` is seq::Sequence or seq::PackedSequence: seeding reads
 *  the query in that storage, and the filter and extension stages read
 *  both sequences through seq::BaseView, so byte and packed runs give
 *  bit-identical results. Each stage starts with fault::enter_stage
 *  (marker plus its "wga.<stage>" probe), and merges its stats fragment
 *  into *stats as it completes and (when a registry is given) publishes
 *  it, so a progress reporter watching the registry sees per-stage
 *  movement mid-run. */
template <class Sequence>
std::vector<align::Alignment>
run_one_strand(const WgaParams& params, const seed::SeedIndex& index,
               seq::BaseView target, const Sequence& query,
               align::Strand strand, PipelineStats* stats, ThreadPool* pool,
               obs::MetricsRegistry* metrics)
{
    const seq::BaseView query_view = base_view(query);
    const std::int64_t strand_arg =
        strand == align::Strand::Reverse ? 1 : 0;
    Timer timer;

    std::vector<seed::SeedHit> hits;
    {
        fault::enter_stage("seed", "wga.seed");
        obs::ScopedSpan span("seed", "wga");
        span.arg("strand", strand_arg);
        PipelineStats stage;
        const seed::DsoftSeeder seeder(index, params.dsoft);
        hits = seeder.seed_all(query, &stage.seeding, pool);
        stage.seed_seconds = timer.seconds();
        span.arg("hits", static_cast<std::int64_t>(hits.size()));
        stats->merge(stage);
        if (metrics)
            publish_pipeline_stats(*metrics, stage);
    }
    debug(strprintf("seeding(%s): %zu candidate hits",
                    strand == align::Strand::Reverse ? "-" : "+",
                    hits.size()));

    timer.reset();
    std::vector<FilterCandidate> candidates;
    {
        fault::enter_stage("filter", "wga.filter");
        obs::ScopedSpan span("filter", "wga");
        span.arg("strand", strand_arg);
        PipelineStats stage;
        const FilterStage filter(params, target, query_view);
        candidates = filter.filter_all(hits, &stage.filter, pool);
        stage.filter_seconds = timer.seconds();
        span.arg("candidates", static_cast<std::int64_t>(candidates.size()));
        stats->merge(stage);
        if (metrics)
            publish_pipeline_stats(*metrics, stage);
    }

    timer.reset();
    std::vector<align::Alignment> alignments;
    {
        fault::enter_stage("extend", "wga.extend");
        obs::ScopedSpan span("extend", "wga");
        span.arg("strand", strand_arg);
        PipelineStats stage;
        const align::GactXTileAligner aligner(params.gactx);
        ExtendStage extend(params, target, query_view);
        alignments =
            extend.extend_all(candidates, aligner, &stage.extend, pool);
        stage.extend_seconds = timer.seconds();
        span.arg("alignments", static_cast<std::int64_t>(alignments.size()));
        stats->merge(stage);
        if (metrics)
            publish_pipeline_stats(*metrics, stage);
    }

    for (auto& alignment : alignments)
        alignment.query_strand = strand;
    return alignments;
}

}  // namespace

WgaResult
WgaPipeline::run(const seq::Genome& target, const seq::Genome& query,
                 ThreadPool* pool, obs::MetricsRegistry* metrics) const
{
    return run_building_index(target.flattened(), query.flattened(), pool,
                              metrics);
}

WgaResult
WgaPipeline::run_sequences(const seq::Sequence& target,
                           const seq::Sequence& query, ThreadPool* pool,
                           obs::MetricsRegistry* metrics) const
{
    return run_building_index(target, query, pool, metrics);
}

WgaResult
WgaPipeline::run_packed(const seq::Genome& target, const seq::Genome& query,
                        ThreadPool* pool,
                        obs::MetricsRegistry* metrics) const
{
    return run_building_index(target.flattened_packed(),
                              query.flattened_packed(), pool, metrics);
}

WgaResult
WgaPipeline::run_with_index(const seed::SeedIndex& index,
                            const seq::Sequence& target,
                            const seq::Sequence& query, ThreadPool* pool,
                            obs::MetricsRegistry* metrics) const
{
    return run_impl(index, target, query, WgaResult{}, pool, metrics);
}

WgaResult
WgaPipeline::run_with_index_packed(const seed::SeedIndex& index,
                                   const seq::PackedSequence& target,
                                   const seq::PackedSequence& query,
                                   ThreadPool* pool,
                                   obs::MetricsRegistry* metrics) const
{
    return run_impl(index, target, query, WgaResult{}, pool, metrics);
}

template <class Sequence>
WgaResult
WgaPipeline::run_building_index(const Sequence& target,
                                const Sequence& query, ThreadPool* pool,
                                obs::MetricsRegistry* metrics) const
{
    WgaResult result;
    Timer timer;
    std::unique_ptr<seed::SeedIndex> index;
    {
        obs::ScopedSpan span("index", "wga");
        const seed::SeedPattern pattern(params_.seed_pattern);
        index = std::make_unique<seed::SeedIndex>(target, pattern);
        // Index construction is accounted as seeding time (Table V).
        PipelineStats stage;
        stage.seed_seconds = timer.seconds();
        result.stats.merge(stage);
        if (metrics)
            publish_pipeline_stats(*metrics, stage);
    }
    return run_impl(*index, target, query, std::move(result), pool,
                    metrics);
}

template <class Sequence>
WgaResult
WgaPipeline::run_impl(const seed::SeedIndex& index, const Sequence& target,
                      const Sequence& query, WgaResult result,
                      ThreadPool* pool,
                      obs::MetricsRegistry* metrics) const
{
    if (index.pattern().pattern() != params_.seed_pattern)
        fatal(strprintf("index seed shape %s does not match the "
                        "pipeline's %s",
                        index.pattern().pattern().c_str(),
                        params_.seed_pattern.c_str()));

    // Umbrella span over the whole run: per-request dumps group the
    // seed/filter/extend/chain children under one "pipeline" row, and
    // the span carries the workload size for at-a-glance triage.
    obs::ScopedSpan pipeline_span("pipeline", "wga");
    pipeline_span.arg("target_bases",
                      static_cast<std::int64_t>(target.size()));
    pipeline_span.arg("query_bases",
                      static_cast<std::int64_t>(query.size()));

    if (metrics != nullptr)
        publish_kernel_gauges(*metrics);

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
            params_, index, base_view(target), s == 0 ? query : query_rc,
            s == 0 ? align::Strand::Forward : align::Strand::Reverse,
            &strand_stats[s], pool, metrics);
    };
    if (pool != nullptr && num_strands == 2) {
        // The strand passes are independent: run them as two concurrent
        // streams over the shared pool. Their inner parallel_for calls
        // nest safely because waiting callers help drain the pool queue.
        pool->parallel_for(0, num_strands, run_strand, 1);
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

    run_chain(result, metrics);
    return result;
}

void
WgaPipeline::publish_kernel_gauges(obs::MetricsRegistry& metrics)
{
    // Which kernel implementation the filter and extension stages
    // dispatch to (id: 0 scalar, 1 sse42, 2 avx2). All kernels are
    // bit-identical, so every other wga.* value is kernel-invariant.
    const int kernel_id =
        align::kernels::KernelRegistry::instance().active().id;
    metrics.gauge("wga.filter.kernel").set(kernel_id);
    metrics.gauge("wga.extend.kernel").set(kernel_id);
}

void
WgaPipeline::run_chain(WgaResult& result, obs::MetricsRegistry* metrics) const
{
    Timer timer;
    fault::enter_stage("chain", "wga.chain");
    obs::ScopedSpan span("chain", "wga");
    result.chains = chain::chain_alignments(result.alignments, chain_params_);
    PipelineStats stage;
    stage.chain_seconds = timer.seconds();
    result.stats.chain_seconds = stage.chain_seconds;
    span.arg("chains", static_cast<std::int64_t>(result.chains.size()));
    if (metrics)
        publish_pipeline_stats(*metrics, stage);
}

}  // namespace darwin::wga
