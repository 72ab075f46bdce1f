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

#include <string>

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

/** Bounded-memory dataflow knobs (RunOptions::streaming). */
struct StreamingParams {
    /** Band-start basepairs owned per target index shard; at most one
     *  shard's seed table is resident at a time. */
    std::uint64_t shard_bp = 8ull << 20;

    /** In-memory window of the seed-hit channel (SeedHit records);
     *  overflow spills to disk. */
    std::size_t hit_stream_capacity = 1 << 16;

    /** In-memory chunk of the candidate sort-spill buffer
     *  (FilterCandidate records). */
    std::size_t candidate_chunk = 1 << 14;

    /** Hits pulled from the channel per filter_hits batch. */
    std::size_t filter_batch = 2048;

    /** Spill directory ("" = system temp dir). */
    std::string spill_dir;
};

/** How one WgaPipeline::run executes. Every field is optional. */
struct RunOptions {
    /** Thread pool for the seed, filter and extend stages. */
    ThreadPool* pool = nullptr;

    /**
     * Registry each stage publishes its workload counters and
     * stage-seconds histograms into, under "wga.*" names, as it
     * completes (see DESIGN.md "Observability"). Purely additive:
     * results are bit-identical with or without one.
     */
    obs::MetricsRegistry* metrics = nullptr;

    /**
     * A prebuilt index over the target's flattened bases (a loaded
     * `.dwi`, the batch engine's shared-target cache), so the run skips
     * the build and stats.seed_seconds leaves it out. It must use this
     * pipeline's seed pattern (FatalError otherwise).
     */
    const seed::SeedIndex* index = nullptr;

    /**
     * Bounded-memory run for large genomes: the target's seed table is
     * built one band shard at a time (seed/sharded_index.h), D-SOFT
     * hits flow through a fixed-capacity spill-to-disk channel to the
     * filter, and passing candidates accumulate in a sort-spill buffer
     * whose drain feeds extension. Strands run one after the other.
     * Output is bit-identical to the in-RAM run; only
     * stats.seeding.seed_lookups grows (each shard re-scans the query).
     * Requires gapped filtering and dsoft.max_hits_per_chunk == 0 (the
     * per-chunk cap is defined on whole chunks, which sharding splits),
     * and excludes `index`. The fixed buffer capacities are charged
     * against the installed fault::CancelToken heap budget; residency
     * and spill telemetry land in the wga.heap.* gauges.
     */
    const StreamingParams* streaming = nullptr;
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
     * Storage follows the target: a packed target (target.packed())
     * runs over 2-bit flattened_packed() words end to end, decoding one
     * tile window at a time (seq::BaseView); a byte target over
     * flattened() bytes. Results are bit-identical either way.
     * Ungapped filtering scans whole diagonals, so it always reads
     * bytes (a packed genome decodes them on first use).
     *
     * When a trace session is installed (obs::TraceSession::install),
     * the run records "pipeline", "index" and per-strand
     * "seed"/"filter"/"extend" spans, then "chain", in the "wga"
     * category.
     */
    WgaResult run(const seq::Genome& target, const seq::Genome& query,
                  const RunOptions& options = {}) const;

  private:
    /** The run over one storage: `Sequence` is seq::Sequence or
     *  seq::PackedSequence (pipeline.cpp). */
    template <class Sequence>
    WgaResult run_impl(const Sequence& target, const Sequence& query,
                       const RunOptions& options) const;

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
