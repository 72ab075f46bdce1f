/**
 * @file
 * Batch-alignment engine: many (target, query) pairs aligned
 * concurrently, one task per pair.
 *
 * `num_threads` workers each take the next pair of the manifest and run
 * it whole through WgaPipeline on their own thread, without an inner
 * pool: seed -> filter -> extend -> chain is straight-line code inside
 * the pair, and the parallelism is across pairs. A strand's extension
 * (~85% of a pair's time) is one pass over the strand's canonical anchor
 * order, so the pair is the only stage boundary worth materializing.
 *
 * Determinism: every pair's result is bit-identical to the serial
 * WgaPipeline::run — it is that pipeline, seeded from a shared index
 * when pairs share a target.
 *
 * Fault tolerance (see DESIGN.md "Fault tolerance & degradation"):
 * every pair runs under its own fault::CancelToken. An exception or
 * budget overrun fails only that pair. A budget overrun earns one
 * *degraded* retry (apply_degrade'd parameters), run in the same task,
 * before the pair is quarantined with a machine-readable
 * QuarantineRecord naming the stage that failed. A FatalError anywhere
 * aborts the whole run, and run() rethrows it with the pair id and
 * stage attached. A fault::request_shutdown() cancels every running
 * pair and marks every unstarted one Interrupted, so the CLI can
 * checkpoint and exit.
 */
#ifndef DARWIN_BATCH_SCHEDULER_H
#define DARWIN_BATCH_SCHEDULER_H

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "batch/metrics.h"
#include "chain/chainer.h"
#include "fault/cancel.h"
#include "fault/degrade.h"
#include "fault/quarantine.h"
#include "seq/genome.h"
#include "wga/pipeline.h"

namespace darwin::index {
class IndexCache;
}

namespace darwin::batch {

/** The degrade policy is shared with the serve daemon's circuit
 *  breaker (fault/degrade.h); these aliases keep the historical
 *  batch:: spelling working. */
using DegradePolicy = fault::DegradePolicy;
using fault::apply_degrade;

/** One (target, query) alignment job of a batch manifest. */
struct BatchJob {
    std::string name;  ///< label used for outputs/metrics, e.g. "ce11-cb4"
    const seq::Genome* target = nullptr;
    const seq::Genome* query = nullptr;
};

/** Result for one manifest entry, in manifest order. */
struct BatchPairResult {
    std::string name;
    fault::PairStatus status = fault::PairStatus::Clean;
    /** Attempts consumed (2 when the degraded retry ran). */
    std::uint32_t attempts = 0;
    wga::WgaResult result;  ///< empty for quarantined/interrupted pairs
    /** Failure details; reason == None for clean pairs. */
    fault::QuarantineRecord quarantine;
};

/** Engine configuration. */
struct BatchOptions {
    wga::WgaParams params;
    chain::ChainParams chain_params;

    /** Worker threads, each running one pair at a time; 0 means
     *  hardware_concurrency(). */
    std::size_t num_threads = 0;

    /** Per-pair budgets; default unlimited. The wall clock starts when
     *  a worker starts the pair's attempt, not when the run starts. */
    fault::Budget pair_budget;

    /** Give a budget-overrun pair one degraded retry before
     *  quarantining it. */
    bool degraded_retry = true;
    DegradePolicy degrade;

    /**
     * Optional shared seed-index cache. When set (e.g. by a daemon that
     * also serves one-shot queries), the engine acquires target indexes
     * from it; when null, the engine uses a run-local cache sized to the
     * manifest. Either way, pairs sharing a target (by sequence digest)
     * build the index once — saved rebuilds surface as the
     * "batch.index.cache_hits" counter.
     */
    index::IndexCache* index_cache = nullptr;

    /**
     * Called once per pair, from a worker thread, the moment the pair
     * reaches a terminal status — so the runner can stream outputs and
     * journal entries instead of waiting for the whole batch. The
     * referenced result is the same object later returned by run().
     * A FatalError thrown by the callback aborts the run.
     */
    std::function<void(const BatchPairResult&)> on_pair_complete;
};

/** The batch engine. Construct once, run() one manifest at a time. */
class BatchScheduler {
  public:
    /**
     * @param metrics Optional registry for the engine's "batch.*" pair
     *        and fault counters and the "wga.*" stage counters and
     *        latency histograms every pair's pipeline publishes; pass
     *        nullptr to run unmetered (an internal registry is used).
     */
    explicit BatchScheduler(BatchOptions options,
                            MetricsRegistry* metrics = nullptr);

    const BatchOptions& options() const { return options_; }

    /**
     * Run every job in the manifest and return per-pair results in
     * manifest order. Jobs may share Genome objects (their flattened
     * forms are materialized up front, before workers start). Per-pair
     * failures never throw — they surface as PairStatus in the results;
     * only a FatalError (annotated with pair and stage when one was
     * active) propagates, after every worker has stopped.
     */
    std::vector<BatchPairResult> run(const std::vector<BatchJob>& jobs);

  private:
    BatchOptions options_;
    MetricsRegistry* metrics_;
    MetricsRegistry fallback_metrics_;
};

}  // namespace darwin::batch

#endif  // DARWIN_BATCH_SCHEDULER_H
