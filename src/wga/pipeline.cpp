#include "wga/pipeline.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <thread>

#include "align/kernels/kernel_registry.h"
#include "fault/cancel.h"
#include "obs/trace.h"
#include "seed/seed_index.h"
#include "seed/sharded_index.h"
#include "util/logging.h"
#include "util/strings.h"
#include "util/timer.h"
#include "wga/bounded_stream.h"
#include "wga/spill.h"

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

/** Residency and spill telemetry of a streaming run, summed over its
 *  strands (the wga.heap.* gauges). */
struct StreamTelemetry {
    std::uint64_t hit_stream_bytes = 0;
    std::uint64_t candidate_buffer_bytes = 0;
    std::uint64_t hits_pushed = 0;
    std::uint64_t hits_spilled = 0;
    std::uint64_t spill_episodes = 0;
    std::uint64_t candidates = 0;
    std::uint64_t candidate_spilled_bytes = 0;
};

/** Where a strand pass gets its seed hits: the whole-target index, or
 *  the band shards of a streaming run. Exactly one is set. */
struct HitSource {
    const seed::SeedIndex* index = nullptr;
    const seed::ShardedSeedIndexBuilder* shards = nullptr;
};

/**
 * The band-sharded hit source: a producer thread seeds the query shard
 * by shard, one shard table resident at a time, into a bounded hit
 * channel that spills to disk while the filter lags. The producer runs
 * under the caller's cancellation context, so budget overruns and
 * injected faults fire on it too, and records the strand's "seed"
 * span. Destruction closes the channel and joins the producer, so a
 * failing consumer never leaves it blocked.
 */
class ShardedHits {
  public:
    ShardedHits(const WgaParams& params, const StreamingParams& streaming,
                const seed::ShardedSeedIndexBuilder& shards,
                seq::BaseView query, std::int64_t strand_arg)
        : hits_(streaming.hit_stream_capacity, streaming.spill_dir)
    {
        fault::CancelToken* token = fault::current_token();
        const std::size_t pair_index = fault::current_pair();
        producer_ = std::thread([=, this, &params, &shards] {
            const fault::ContextScope scope(token, pair_index);
            produce(params, shards, query, strand_arg);
        });
    }

    ~ShardedHits()
    {
        hits_.close();
        if (producer_.joinable())
            producer_.join();
    }

    ShardedHits(const ShardedHits&) = delete;
    ShardedHits& operator=(const ShardedHits&) = delete;

    /** Refill `batch` with up to `n` hits; false once drained. */
    bool
    next(std::vector<seed::SeedHit>& batch, std::size_t n)
    {
        batch.clear();
        while (batch.size() < n) {
            const std::optional<seed::SeedHit> hit = hits_.pop();
            if (!hit)
                break;
            batch.push_back(*hit);
        }
        return !batch.empty();
    }

    /** Join the producer and return its seeding stats (seed_seconds is
     *  its wall clock, which overlaps filtering); rethrows a producer
     *  failure. */
    PipelineStats
    finish(StreamTelemetry* telemetry)
    {
        producer_.join();
        if (error_) {
            // The producer's stage marker lived on its own thread.
            fault::set_stage("seed");
            std::rethrow_exception(error_);
        }
        telemetry->hit_stream_bytes += hits_.resident_bytes();
        telemetry->hits_pushed += hits_.pushed();
        telemetry->hits_spilled += hits_.spilled_items();
        telemetry->spill_episodes += hits_.spill_episodes();
        return stage_;
    }

  private:
    void
    produce(const WgaParams& params,
            const seed::ShardedSeedIndexBuilder& shards, seq::BaseView query,
            std::int64_t strand_arg)
    {
        obs::ScopedSpan span("seed", "wga");
        span.arg("strand", strand_arg);
        span.arg("shards", static_cast<std::int64_t>(shards.num_shards()));
        Timer timer;
        try {
            fault::enter_stage("seed", "wga.seed");
            const std::size_t chunk = params.dsoft.chunk_size;
            bool open = true;
            // Chunk hit vectors are transient here (drained into the
            // channel and freed), so instead of the cumulative per-chunk
            // charge retaining callers pay, charge one chunk's high-water.
            std::size_t chunk_hits_high_water = 0;
            for (std::size_t s = 0; open && s < shards.num_shards(); ++s) {
                const seed::ShardPlan& plan = shards.plan()[s];
                const std::shared_ptr<const seed::SeedIndex> shard =
                    shards.build_shard(s);
                const seed::DsoftSeeder seeder(*shard, params.dsoft,
                                               plan.band_lo, plan.band_hi);
                for (std::size_t begin = 0; open && begin < query.size();
                     begin += chunk) {
                    const std::vector<seed::SeedHit> chunk_hits =
                        seeder.seed_chunk(
                            query, begin, std::min(query.size(), begin + chunk),
                            &stage_.seeding, /*charge_heap=*/false);
                    if (chunk_hits.size() > chunk_hits_high_water) {
                        fault::charge_heap_bytes(
                            (chunk_hits.size() - chunk_hits_high_water) *
                            sizeof(seed::SeedHit));
                        chunk_hits_high_water = chunk_hits.size();
                    }
                    for (const seed::SeedHit& hit : chunk_hits) {
                        if (!hits_.push(hit)) {
                            open = false;  // the consumer closed the channel
                            break;
                        }
                    }
                }
            }
        } catch (...) {
            error_ = std::current_exception();
        }
        stage_.seed_seconds = timer.seconds();
        span.arg("hits", static_cast<std::int64_t>(hits_.pushed()));
        span.arg("hits_spilled",
                 static_cast<std::int64_t>(hits_.spilled_items()));
        hits_.close();
    }

    BoundedStream<seed::SeedHit> hits_;
    PipelineStats stage_;
    std::exception_ptr error_;
    std::thread producer_;
};

/**
 * Where passing candidates wait for extension: in RAM a vector sorted
 * once; streaming a SortingSpillBuffer, whose merged drain yields the
 * same CandidateOrder with O(candidate_chunk) residency. Extension
 * pulls them through next() either way.
 */
class CandidateSink {
  public:
    explicit CandidateSink(const StreamingParams* streaming)
    {
        if (streaming == nullptr)
            return;
        spilled_.emplace(streaming->candidate_chunk, CandidateOrder{},
                         streaming->spill_dir);
        buffer_bytes_ = streaming->candidate_chunk * sizeof(FilterCandidate);
        fault::charge_heap_bytes(buffer_bytes_);
    }

    void
    push(const FilterCandidate& candidate)
    {
        if (spilled_)
            spilled_->push(candidate);
        else
            in_ram_.push_back(candidate);
    }

    std::size_t
    size() const
    {
        return spilled_ ? spilled_->size() : in_ram_.size();
    }

    /** Stop accepting candidates; next() then yields them in order. */
    void
    seal(StreamTelemetry* telemetry)
    {
        if (!spilled_) {
            std::sort(in_ram_.begin(), in_ram_.end(), CandidateOrder{});
            return;
        }
        telemetry->candidate_buffer_bytes += buffer_bytes_;
        telemetry->candidates += spilled_->size();
        telemetry->candidate_spilled_bytes += spilled_->spilled_bytes();
        drain_.emplace(spilled_->drain());
    }

    std::optional<FilterCandidate>
    next()
    {
        if (drain_)
            return drain_->next();
        if (cursor_ >= in_ram_.size())
            return std::nullopt;
        return in_ram_[cursor_++];
    }

  private:
    using SpillBuffer = SortingSpillBuffer<FilterCandidate, CandidateOrder>;

    std::vector<FilterCandidate> in_ram_;
    std::size_t cursor_ = 0;
    std::optional<SpillBuffer> spilled_;
    std::optional<SpillBuffer::Drain> drain_;
    std::size_t buffer_bytes_ = 0;
};

/**
 * Seed -> filter -> extend one query orientation. `Sequence` is
 * seq::Sequence or seq::PackedSequence: in-RAM seeding reads the query
 * in that storage, and everything else reads both sequences through
 * seq::BaseView, so byte and packed runs give bit-identical results.
 * The hit source decides the filter's input: one seed_all batch
 * filtered by one parallel_for, or ShardedHits drained filter_batch
 * hits at a time while the producer seeds. Each stage starts with
 * fault::enter_stage (marker plus its "wga.<stage>" probe) and commits
 * its stats fragment as it completes.
 */
template <class Sequence>
std::vector<align::Alignment>
run_one_strand(const WgaParams& params, const HitSource& source,
               const StreamingParams* streaming, seq::BaseView target,
               const Sequence& query, align::Strand strand,
               PipelineStats* stats, StreamTelemetry* telemetry,
               ThreadPool* pool, obs::MetricsRegistry* metrics)
{
    const seq::BaseView query_view = base_view(query);
    const std::int64_t strand_arg =
        strand == align::Strand::Reverse ? 1 : 0;
    Timer timer;

    std::vector<seed::SeedHit> hits;
    std::optional<ShardedHits> sharded;
    if (source.index != nullptr) {
        fault::enter_stage("seed", "wga.seed");
        obs::ScopedSpan span("seed", "wga");
        span.arg("strand", strand_arg);
        PipelineStats stage;
        const seed::DsoftSeeder seeder(*source.index, params.dsoft);
        hits = seeder.seed_all(query, &stage.seeding, pool);
        stage.seed_seconds = timer.seconds();
        span.arg("hits", static_cast<std::int64_t>(hits.size()));
        commit_stage(stage, stats, metrics);
        debug(strprintf("seeding(%s): %zu candidate hits",
                        strand == align::Strand::Reverse ? "-" : "+",
                        hits.size()));
    } else {
        sharded.emplace(params, *streaming, *source.shards, query_view,
                        strand_arg);
    }

    timer.reset();
    CandidateSink candidates(streaming);
    {
        fault::enter_stage("filter", "wga.filter");
        obs::ScopedSpan span("filter", "wga");
        span.arg("strand", strand_arg);
        PipelineStats stage;
        const FilterStage filter(params, target, query_view);
        const auto filter_batch = [&](const std::vector<seed::SeedHit>& batch) {
            for (const auto& slot : filter.filter_hits(batch, &stage.filter,
                                                       pool)) {
                if (slot)
                    candidates.push(*slot);
            }
        };
        if (sharded) {
            std::vector<seed::SeedHit> batch;
            while (sharded->next(batch, streaming->filter_batch))
                filter_batch(batch);
        } else {
            filter_batch(hits);
        }
        candidates.seal(telemetry);
        stage.filter_seconds = timer.seconds();
        span.arg("candidates", static_cast<std::int64_t>(candidates.size()));
        commit_stage(stage, stats, metrics);
    }
    if (sharded)
        commit_stage(sharded->finish(telemetry), stats, metrics);

    timer.reset();
    std::vector<align::Alignment> alignments;
    {
        fault::enter_stage("extend", "wga.extend");
        obs::ScopedSpan span("extend", "wga");
        span.arg("strand", strand_arg);
        PipelineStats stage;
        const align::GactXTileAligner aligner(params.gactx);
        ExtendStage extend(params, target, query_view);
        alignments = extend.extend_stream(
            [&candidates] { return candidates.next(); }, aligner,
            &stage.extend, pool);
        stage.extend_seconds = timer.seconds();
        span.arg("alignments", static_cast<std::int64_t>(alignments.size()));
        commit_stage(stage, stats, metrics);
    }

    for (auto& alignment : alignments)
        alignment.query_strand = strand;
    return alignments;
}

/** The wga.heap.* gauges: the streaming dataflow's fixed residency
 *  (the capacities charged against the heap budget) plus what overflowed
 *  to disk, which is deliberately uncharged (the escape valve). */
void
publish_heap_gauges(obs::MetricsRegistry& metrics,
                    const StreamTelemetry& telemetry)
{
    const auto set = [&metrics](const char* name, std::uint64_t value) {
        metrics.gauge(name).set(static_cast<std::int64_t>(value));
    };
    set("wga.heap.hit_stream_bytes", telemetry.hit_stream_bytes);
    set("wga.heap.candidate_buffer_bytes", telemetry.candidate_buffer_bytes);
    set("wga.heap.hits_pushed", telemetry.hits_pushed);
    set("wga.heap.hits_spilled", telemetry.hits_spilled);
    set("wga.heap.spill_episodes", telemetry.spill_episodes);
    set("wga.heap.candidates", telemetry.candidates);
    set("wga.heap.spilled_bytes",
        telemetry.hits_spilled * sizeof(seed::SeedHit) +
            telemetry.candidate_spilled_bytes);
    if (const fault::CancelToken* token = fault::current_token())
        set("wga.heap.charged_bytes", token->heap_bytes_charged());
}

}  // namespace

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
    const StreamingParams* streaming = options.streaming;
    if (streaming != nullptr) {
        if (options.index != nullptr)
            fatal("run-options: a streaming run builds its own band "
                  "shards and takes no prebuilt index");
        if (params_.filter_mode != FilterMode::Gapped)
            fatal("streaming: ungapped (LASTZ) filtering is not supported "
                  "(its unbounded diagonal scans are not band-sharded)");
        if (params_.dsoft.max_hits_per_chunk != 0)
            fatal("streaming: dsoft.max_hits_per_chunk must be 0 (the "
                  "per-chunk cap is defined over whole query chunks, "
                  "which band sharding splits)");
    }
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
    HitSource source{options.index, nullptr};
    std::unique_ptr<seed::SeedIndex> built;
    std::unique_ptr<seed::ShardedSeedIndexBuilder> shards;
    if (source.index == nullptr) {
        // The build, or the sharded builder's global counting pass, is
        // accounted as seeding time (Table V).
        Timer timer;
        obs::ScopedSpan span("index", "wga");
        const seed::SeedPattern pattern(params_.seed_pattern);
        if (streaming != nullptr) {
            shards = std::make_unique<seed::ShardedSeedIndexBuilder>(
                base_view(target), pattern,
                seed::SeedIndex::kDefaultMaxBucket, streaming->shard_bp,
                params_.dsoft.chunk_size, params_.dsoft.bin_size);
            span.arg("shards",
                     static_cast<std::int64_t>(shards->num_shards()));
            source.shards = shards.get();
        } else {
            built = std::make_unique<seed::SeedIndex>(target, pattern);
            source.index = built.get();
        }
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
    StreamTelemetry telemetry;
    const auto run_strand = [&](std::size_t s) {
        per_strand[s] = run_one_strand(
            params_, source, streaming, base_view(target),
            s == 0 ? query : query_rc,
            s == 0 ? align::Strand::Forward : align::Strand::Reverse,
            &strand_stats[s], &telemetry, options.pool, metrics);
    };
    if (options.pool != nullptr && num_strands == 2 && streaming == nullptr) {
        // The strand passes are independent: run them as two concurrent
        // streams over the shared pool. Their inner parallel_for calls
        // nest safely because waiting callers help drain the pool queue.
        // Streaming strands stay serial: concurrent ones would double
        // the resident channel capacities.
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
    if (streaming != nullptr && metrics != nullptr)
        publish_heap_gauges(*metrics, telemetry);

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
