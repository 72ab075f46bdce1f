/**
 * @file
 * The end-to-end whole-genome-alignment pipeline (paper Fig. 4/6):
 * seed (D-SOFT) -> filter (gapped BSW or ungapped X-drop) -> extend
 * (GACT-X) -> chain (axtChain-style).
 *
 * The same pipeline class realizes both systems under comparison:
 * construct with WgaParams::darwin_defaults() for Darwin-WGA and
 * WgaParams::lastz_defaults() for the LASTZ-like baseline.
 */
#ifndef DARWIN_WGA_PIPELINE_H
#define DARWIN_WGA_PIPELINE_H

#include <memory>

#include "align/gactx.h"
#include "chain/chainer.h"
#include "obs/metrics.h"
#include "seq/genome.h"
#include "util/thread_pool.h"
#include "wga/extend_stage.h"
#include "wga/filter_stage.h"

namespace darwin::seed {
class SeedIndex;
}

namespace darwin::wga {

/** Per-stage wall-clock and workload accounting (Table V inputs). */
struct PipelineStats {
    seed::SeedingStats seeding;
    FilterStats filter;
    ExtendStats extend;

    double seed_seconds = 0.0;
    double filter_seconds = 0.0;
    double extend_seconds = 0.0;
    double chain_seconds = 0.0;

    double
    total_seconds() const
    {
        return seed_seconds + filter_seconds + extend_seconds +
               chain_seconds;
    }

    /**
     * Accumulate another stats block (workload counters and stage
     * seconds). Used to combine per-strand and per-shard accounting;
     * note that when strands run concurrently the summed stage seconds
     * are CPU-time-like rather than wall-clock.
     */
    void merge(const PipelineStats& other);
};

/** Everything a WGA run produces. */
struct WgaResult {
    /** Local alignments in flattened-genome coordinates. */
    std::vector<align::Alignment> alignments;
    /** Chains over those alignments, sorted by descending score. */
    std::vector<chain::Chain> chains;
    PipelineStats stats;
};

/** Bounded-memory dataflow knobs for WgaPipeline::run_streaming. */
struct StreamingParams {
    /** Band-start basepairs owned per target index shard; at most one
     *  shard's seed table is resident at a time. */
    std::uint64_t shard_bp = 8ull << 20;

    /** In-memory window of the seed-hit channel (SeedHit records). */
    std::size_t hit_stream_capacity = 1 << 16;

    /** In-memory chunk of the candidate sort-spill buffer
     *  (FilterCandidate records). */
    std::size_t candidate_chunk = 1 << 14;

    /** Hits pulled from the channel per filter_hits batch. */
    std::size_t filter_batch = 2048;

    /** Overflow policy of the hit channel: spill to disk (default) or
     *  block the seeding producer (pure backpressure). */
    bool spill = true;

    /** Spill directory ("" = system temp dir). */
    std::string spill_dir;
};

/** The full aligner. */
class WgaPipeline {
  public:
    explicit WgaPipeline(WgaParams params,
                         chain::ChainParams chain_params = {});

    const WgaParams& params() const { return params_; }

    /**
     * Align query against target. Coordinates in the result refer to the
     * flattened() sequences of the two genomes.
     *
     * @param pool    Optional thread pool for the seed and filter stages.
     * @param metrics Optional registry: each stage publishes its
     *        workload counters and stage-seconds histograms under
     *        "wga.*" names as it completes (see DESIGN.md
     *        "Observability"). Purely additive — results are
     *        bit-identical with or without a registry.
     *
     * When a trace session is installed (obs::TraceSession::install),
     * the run also records "index"/"seed"/"filter"/"extend"/"chain"
     * spans in the "wga" category.
     */
    WgaResult run(const seq::Genome& target, const seq::Genome& query,
                  ThreadPool* pool = nullptr,
                  obs::MetricsRegistry* metrics = nullptr) const;

    /** Span-level entry point used by tests and small tools. */
    WgaResult run_sequences(const seq::Sequence& target,
                            const seq::Sequence& query,
                            ThreadPool* pool = nullptr,
                            obs::MetricsRegistry* metrics = nullptr) const;

    /**
     * run() over 2-bit packed storage: the flattened target and query
     * stay packed end to end — the seed index builds from packed words,
     * and the filter/extension stages decode one tile window at a time
     * (seq::BaseView). Classic materialized dataflow otherwise.
     * Results are bit-identical to run() on the same genomes. Gapped
     * filter mode only (ungapped scans need byte-backed sequences).
     * Works on byte-mode genomes too (they pack on first use).
     */
    WgaResult run_packed(const seq::Genome& target,
                         const seq::Genome& query,
                         ThreadPool* pool = nullptr,
                         obs::MetricsRegistry* metrics = nullptr) const;

    /**
     * Bounded-memory large-genome run (implemented in streaming.cpp):
     * packed storage as run_packed, plus (a) sharded seeding — the
     * target's seed table is built one band shard at a time
     * (seed/sharded_index.h), never whole; (b) D-SOFT hits flow
     * through a fixed-capacity spill-or-backpressure BoundedStream to
     * a filtering consumer instead of being materialized; (c) passing
     * candidates accumulate in a SortingSpillBuffer whose sorted drain
     * feeds extension one wave at a time. Alignments and chains (the
     * output) are still materialized.
     *
     * Identity: alignments/chains/MAF are bit-identical to run() —
     * band sharding partitions D-SOFT's band space exactly and the
     * candidate drain reproduces sort_candidates order. Only
     * stats.seeding.seed_lookups grows (each shard re-scans the
     * query). Requires gapped filter mode and
     * dsoft.max_hits_per_chunk == 0 (the per-chunk cap is defined on
     * whole chunks, which sharding splits).
     *
     * Fixed buffer capacities are charged against the installed
     * fault::CancelToken heap budget once at construction; spilled
     * bytes are not charged (disk is the escape valve). Residency and
     * spill telemetry lands in the wga.heap.* gauge family.
     */
    WgaResult run_streaming(const seq::Genome& target,
                            const seq::Genome& query,
                            const StreamingParams& streaming,
                            ThreadPool* pool = nullptr,
                            obs::MetricsRegistry* metrics = nullptr) const;

    /**
     * Like run_sequences, but seed from a caller-provided index over
     * `target` instead of building one — the persisted-index path
     * (darwin-wga-serve, the batch engine's shared-target cache). The
     * index must have been built with this pipeline's seed pattern
     * (FatalError otherwise); given that, results are bit-identical to
     * run_sequences, and stats.seed_seconds excludes the build the
     * caller amortized away.
     */
    WgaResult run_with_index(const seed::SeedIndex& index,
                             const seq::Sequence& target,
                             const seq::Sequence& query,
                             ThreadPool* pool = nullptr,
                             obs::MetricsRegistry* metrics = nullptr) const;

    /**
     * Packed twin of run_with_index: seed/filter/extend over 2-bit
     * sequences with a caller-provided index (built from bases
     * identical to `target`'s — byte- or packed-built both qualify;
     * FatalError on a seed-shape mismatch). The serve daemon's packed
     * resident cache routes here. Gapped filter mode only.
     */
    WgaResult run_with_index_packed(
        const seed::SeedIndex& index, const seq::PackedSequence& target,
        const seq::PackedSequence& query, ThreadPool* pool = nullptr,
        obs::MetricsRegistry* metrics = nullptr) const;

  private:
    /** Build the target seed index (accounted as seeding time), then
     *  run_impl. `Sequence` is seq::Sequence or seq::PackedSequence. */
    template <class Sequence>
    WgaResult run_building_index(const Sequence& target,
                                 const Sequence& query, ThreadPool* pool,
                                 obs::MetricsRegistry* metrics) const;

    /** The strand passes plus chaining over byte or packed storage —
     *  one runner for both (pipeline.cpp). */
    template <class Sequence>
    WgaResult run_impl(const seed::SeedIndex& index, const Sequence& target,
                       const Sequence& query, WgaResult result,
                       ThreadPool* pool,
                       obs::MetricsRegistry* metrics) const;

    /** Chain result.alignments into result.chains (the "chain" span),
     *  shared by run_impl and run_streaming. */
    void run_chain(WgaResult& result, obs::MetricsRegistry* metrics) const;

    /** Publish the wga.{filter,extend}.kernel gauges, shared by
     *  run_impl and run_streaming. */
    static void publish_kernel_gauges(obs::MetricsRegistry& metrics);

    WgaParams params_;
    chain::ChainParams chain_params_;
};

/**
 * Publish a stats block into a registry under `<prefix>.*` names —
 * counters for the stage workload (seed lookups/hits/candidates, filter
 * tiles/cells/passed/dropped, extension anchors/tiles/terminations/
 * matched bases) and one histogram observation per non-zero stage
 * seconds. Counters add, so publishing per stage or per strand
 * accumulates to the run totals. Used with prefix "wga" by the serial
 * pipeline; reused by anything that holds a PipelineStats.
 */
void publish_pipeline_stats(obs::MetricsRegistry& metrics,
                            const PipelineStats& stats,
                            const std::string& prefix = "wga");

}  // namespace darwin::wga

#endif  // DARWIN_WGA_PIPELINE_H
