/**
 * @file
 * The bounded-memory entry point of WgaPipeline (declared in
 * pipeline.h): run_streaming runs over 2-bit sequences like
 * run_packed, but shards the seed index and streams hits/candidates
 * through spill-or-backpressure channels so per-pair residency is
 * fixed regardless of genome size.
 */
#include "wga/pipeline.h"

#include <thread>

#include "fault/cancel.h"
#include "obs/trace.h"
#include "seed/sharded_index.h"
#include "util/logging.h"
#include "util/strings.h"
#include "util/timer.h"
#include "wga/bounded_stream.h"
#include "wga/spill.h"

namespace darwin::wga {

namespace {

/** sort_candidates order as a comparator (spill-merge key). */
struct CandidateOrder {
    bool
    operator()(const FilterCandidate& a, const FilterCandidate& b) const
    {
        if (a.filter_score != b.filter_score)
            return a.filter_score > b.filter_score;
        if (a.anchor_t != b.anchor_t)
            return a.anchor_t < b.anchor_t;
        return a.anchor_q < b.anchor_q;
    }
};

/** Residency/spill telemetry of one streaming strand pass. */
struct StreamTelemetry {
    std::uint64_t hit_stream_bytes = 0;
    std::uint64_t candidate_buffer_bytes = 0;
    std::uint64_t hits_pushed = 0;
    std::uint64_t hits_spilled = 0;
    std::uint64_t spill_episodes = 0;
    std::uint64_t candidates = 0;
    std::uint64_t candidate_spilled_bytes = 0;

    void
    merge(const StreamTelemetry& other)
    {
        hit_stream_bytes += other.hit_stream_bytes;
        candidate_buffer_bytes += other.candidate_buffer_bytes;
        hits_pushed += other.hits_pushed;
        hits_spilled += other.hits_spilled;
        spill_episodes += other.spill_episodes;
        candidates += other.candidates;
        candidate_spilled_bytes += other.candidate_spilled_bytes;
    }
};

/**
 * One streaming strand pass: a producer thread seeds shard by shard
 * into a bounded hit channel; this thread filters hit batches and
 * accumulates passing candidates in a sort-spill buffer whose drain
 * feeds extension. seed_seconds is the producer's wall clock;
 * filter_seconds is the consumer loop's (the two overlap).
 */
std::vector<align::Alignment>
run_one_strand_streaming(const WgaParams& params, const StreamingParams& sp,
                         const seed::ShardedSeedIndexBuilder& builder,
                         const seq::PackedSequence& target,
                         const seq::PackedSequence& query,
                         align::Strand strand, PipelineStats* stats,
                         StreamTelemetry* telemetry, ThreadPool* pool,
                         obs::MetricsRegistry* metrics)
{
    const std::int64_t strand_arg =
        strand == align::Strand::Reverse ? 1 : 0;
    obs::ScopedSpan stream_span("stream", "wga");
    stream_span.arg("strand", strand_arg);
    stream_span.arg("shards",
                    static_cast<std::int64_t>(builder.num_shards()));

    BoundedStream<seed::SeedHit> hits(
        sp.hit_stream_capacity,
        sp.spill ? OverflowPolicy::Spill : OverflowPolicy::Backpressure,
        sp.spill_dir);

    PipelineStats stage;
    double seed_wall = 0.0;
    std::exception_ptr producer_error;

    // The producer runs under the caller's cancellation context so
    // budget overruns and injected faults fire on it too.
    fault::CancelToken* token = fault::current_token();
    const std::size_t pair_index = fault::current_pair();
    std::thread producer([&] {
        const fault::ContextScope scope(token, pair_index);
        Timer seed_timer;
        try {
            fault::enter_stage("seed", "wga.seed");
            const std::size_t query_size = query.size();
            const std::size_t chunk = params.dsoft.chunk_size;
            bool open = true;
            // Chunk hit vectors are transient here — drained into the
            // bounded channel and freed — so instead of the cumulative
            // per-chunk charge retaining callers pay (charge_heap
            // false below), charge the high-water of one chunk.
            std::size_t chunk_hits_high_water = 0;
            for (std::size_t s = 0; open && s < builder.num_shards();
                 ++s) {
                const seed::ShardPlan& plan = builder.plan()[s];
                const std::shared_ptr<const seed::SeedIndex> shard =
                    builder.build_shard(s);
                const seed::DsoftSeeder seeder(*shard, params.dsoft,
                                               plan.band_lo, plan.band_hi);
                for (std::size_t begin = 0; open && begin < query_size;
                     begin += chunk) {
                    const std::size_t end =
                        std::min(query_size, begin + chunk);
                    const std::vector<seed::SeedHit> chunk_hits =
                        seeder.seed_chunk(query, begin, end,
                                          &stage.seeding,
                                          /*charge_heap=*/false);
                    if (chunk_hits.size() > chunk_hits_high_water) {
                        fault::charge_heap_bytes(
                            (chunk_hits.size() - chunk_hits_high_water) *
                            sizeof(seed::SeedHit));
                        chunk_hits_high_water = chunk_hits.size();
                    }
                    for (const seed::SeedHit& hit : chunk_hits) {
                        if (!hits.push(hit)) {
                            open = false;  // consumer closed the stream
                            break;
                        }
                    }
                }
            }
        } catch (...) {
            producer_error = std::current_exception();
        }
        seed_wall = seed_timer.seconds();
        hits.close();
    });

    const FilterStage filter(params, seq::BaseView(target),
                             seq::BaseView(query));
    SortingSpillBuffer<FilterCandidate, CandidateOrder> candidates(
        sp.candidate_chunk, CandidateOrder{}, sp.spill_dir);
    fault::charge_heap_bytes(sp.candidate_chunk * sizeof(FilterCandidate));

    Timer filter_timer;
    try {
        fault::enter_stage("filter", "wga.filter");
        std::vector<seed::SeedHit> batch;
        batch.reserve(sp.filter_batch);
        bool drained = false;
        while (!drained) {
            batch.clear();
            while (batch.size() < sp.filter_batch) {
                const std::optional<seed::SeedHit> hit = hits.pop();
                if (!hit) {
                    drained = true;
                    break;
                }
                batch.push_back(*hit);
            }
            if (batch.empty())
                break;
            for (const auto& slot :
                 filter.filter_hits(batch, &stage.filter, pool)) {
                if (slot)
                    candidates.push(*slot);
            }
        }
    } catch (...) {
        // Unblock and retire the producer before propagating (its
        // pushes fail once the stream is closed).
        hits.close();
        producer.join();
        throw;
    }
    stage.filter_seconds = filter_timer.seconds();
    producer.join();
    if (producer_error) {
        // The producer's stage marker lives on its own thread.
        fault::set_stage("seed");
        std::rethrow_exception(producer_error);
    }
    stage.seed_seconds = seed_wall;

    telemetry->hit_stream_bytes += hits.resident_bytes();
    telemetry->candidate_buffer_bytes +=
        sp.candidate_chunk * sizeof(FilterCandidate);
    telemetry->hits_pushed += hits.pushed();
    telemetry->hits_spilled += hits.spilled_items();
    telemetry->spill_episodes += hits.spill_episodes();
    telemetry->candidates += candidates.size();
    telemetry->candidate_spilled_bytes += candidates.spilled_bytes();
    stream_span.arg("hits", static_cast<std::int64_t>(hits.pushed()));
    stream_span.arg("hits_spilled",
                    static_cast<std::int64_t>(hits.spilled_items()));
    stream_span.arg("candidates",
                    static_cast<std::int64_t>(candidates.size()));

    Timer extend_timer;
    std::vector<align::Alignment> alignments;
    {
        fault::enter_stage("extend", "wga.extend");
        obs::ScopedSpan span("extend", "wga");
        span.arg("strand", strand_arg);
        const align::GactXTileAligner aligner(params.gactx);
        ExtendStage extend(params, seq::BaseView(target),
                           seq::BaseView(query));
        auto drain = candidates.drain();
        alignments = extend.extend_stream(
            [&drain] { return drain.next(); }, aligner, &stage.extend,
            pool);
        stage.extend_seconds = extend_timer.seconds();
        span.arg("alignments", static_cast<std::int64_t>(alignments.size()));
    }
    stats->merge(stage);
    if (metrics)
        publish_pipeline_stats(*metrics, stage);

    for (auto& alignment : alignments)
        alignment.query_strand = strand;
    return alignments;
}

}  // namespace

WgaResult
WgaPipeline::run_streaming(const seq::Genome& target,
                           const seq::Genome& query,
                           const StreamingParams& streaming,
                           ThreadPool* pool,
                           obs::MetricsRegistry* metrics) const
{
    if (params_.filter_mode != FilterMode::Gapped)
        fatal("run_streaming: ungapped (LASTZ) filtering is not "
              "supported on the streaming path (unbounded diagonal "
              "scans need byte-backed sequences)");
    if (params_.dsoft.max_hits_per_chunk != 0)
        fatal("run_streaming: dsoft.max_hits_per_chunk must be 0 — the "
              "per-chunk cap is defined over whole query chunks, which "
              "band sharding splits");

    obs::ScopedSpan pipeline_span("pipeline", "wga");
    const seq::PackedSequence& target_packed = target.flattened_packed();
    const seq::PackedSequence& query_packed = query.flattened_packed();
    pipeline_span.arg("target_bases",
                      static_cast<std::int64_t>(target_packed.size()));
    pipeline_span.arg("query_bases",
                      static_cast<std::int64_t>(query_packed.size()));

    WgaResult result;
    Timer timer;
    std::unique_ptr<seed::ShardedSeedIndexBuilder> builder;
    {
        // The global counting pass replaces the monolithic index build
        // and is accounted the same way (seeding time).
        obs::ScopedSpan span("index", "wga");
        const seed::SeedPattern pattern(params_.seed_pattern);
        builder = std::make_unique<seed::ShardedSeedIndexBuilder>(
            target_packed, pattern, seed::SeedIndex::kDefaultMaxBucket,
            streaming.shard_bp, params_.dsoft.chunk_size,
            params_.dsoft.bin_size);
        span.arg("shards",
                 static_cast<std::int64_t>(builder->num_shards()));
        PipelineStats stage;
        stage.seed_seconds = timer.seconds();
        result.stats.merge(stage);
        if (metrics)
            publish_pipeline_stats(*metrics, stage);
    }
    debug(strprintf("streaming: %zu target shard(s) of %llu band-bp",
                    builder->num_shards(),
                    static_cast<unsigned long long>(streaming.shard_bp)));

    // Strands run serially: concurrent strands would double the
    // resident channel capacities for no residency win.
    StreamTelemetry telemetry;
    const std::size_t num_strands = params_.align_both_strands ? 2 : 1;
    seq::PackedSequence query_rc;
    if (num_strands == 2)
        query_rc = query_packed.reverse_complement();
    for (std::size_t s = 0; s < num_strands; ++s) {
        PipelineStats strand_stats;
        auto alignments = run_one_strand_streaming(
            params_, streaming, *builder, target_packed,
            s == 0 ? query_packed : query_rc,
            s == 0 ? align::Strand::Forward : align::Strand::Reverse,
            &strand_stats, &telemetry, pool, metrics);
        result.stats.merge(strand_stats);
        result.alignments.insert(
            result.alignments.end(),
            std::make_move_iterator(alignments.begin()),
            std::make_move_iterator(alignments.end()));
    }

    if (metrics) {
        publish_kernel_gauges(*metrics);
        // wga.heap.*: fixed residency of the streaming dataflow plus
        // what overflowed to disk. The *_bytes gauges are the fixed
        // capacities charged against the heap budget; spilled bytes
        // are deliberately uncharged (the escape valve).
        metrics->gauge("wga.heap.hit_stream_bytes")
            .set(static_cast<std::int64_t>(telemetry.hit_stream_bytes));
        metrics->gauge("wga.heap.candidate_buffer_bytes")
            .set(static_cast<std::int64_t>(telemetry.candidate_buffer_bytes));
        metrics->gauge("wga.heap.hits_pushed")
            .set(static_cast<std::int64_t>(telemetry.hits_pushed));
        metrics->gauge("wga.heap.hits_spilled")
            .set(static_cast<std::int64_t>(telemetry.hits_spilled));
        metrics->gauge("wga.heap.spill_episodes")
            .set(static_cast<std::int64_t>(telemetry.spill_episodes));
        metrics->gauge("wga.heap.candidates")
            .set(static_cast<std::int64_t>(telemetry.candidates));
        metrics->gauge("wga.heap.spilled_bytes")
            .set(static_cast<std::int64_t>(
                telemetry.hits_spilled * sizeof(seed::SeedHit) +
                telemetry.candidate_spilled_bytes));
        if (const fault::CancelToken* token = fault::current_token())
            metrics->gauge("wga.heap.charged_bytes")
                .set(static_cast<std::int64_t>(token->heap_bytes_charged()));
    }

    run_chain(result, metrics);
    return result;
}

}  // namespace darwin::wga
