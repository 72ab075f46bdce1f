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
     * seconds). Used to combine per-stage and per-strand accounting;
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
     * the run records "pipeline", "index", per-batch "seed"/"filter"
     * and per-strand "extend" spans, then "chain", in the "wga"
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
 * Query chunks per seed+filter batch of a strand pass: 16 kbp of query
 * at the presets' 64 bp D-SOFT chunks. An internal constant, not an
 * option: output does not depend on it.
 */
inline constexpr std::size_t kSeedFilterBatchChunks = 256;

/**
 * The seed and filter half of one strand pass, run over batches of
 * `batch_chunks` D-SOFT query chunks. Each batch seeds its chunks in
 * parallel (DsoftSeeder::seed_chunk), filters their hits at once and
 * keeps only the passing candidates, so no more than one batch of seed
 * hits is ever resident. D-SOFT bins hits per query chunk, so hits of
 * different chunks never interact and batching cannot change the
 * result: the returned candidates, sorted once by CandidateOrder, and
 * the seeding/filter stats and heap charges equal those of seed_all +
 * filter_all over the whole query for every `batch_chunks`.
 *
 * Adds the seeding and filter counters plus the summed seed and filter
 * seconds to *stats. Fault markers name "seed" or "filter" as each batch
 * moves between them; the "wga.seed"/"wga.filter" probes are visited
 * once per call. Each batch records a "seed" and a "filter" span.
 * WgaPipeline::run calls it with kSeedFilterBatchChunks.
 */
std::vector<FilterCandidate> seed_and_filter(
    const WgaParams& params, const seed::SeedIndex& index,
    seq::BaseView target, seq::BaseView query, align::Strand strand,
    std::size_t batch_chunks, PipelineStats* stats, ThreadPool* pool);

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
