#include "batch/scheduler.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <memory>
#include <mutex>
#include <new>
#include <thread>
#include <unordered_map>

#include "align/gactx.h"
#include "align/kernels/kernel_registry.h"
#include "batch/shard.h"
#include "fault/fault_plan.h"
#include "index/index_cache.h"
#include "index/index_io.h"
#include "obs/trace.h"
#include "seed/dsoft.h"
#include "seed/seed_index.h"
#include "util/logging.h"
#include "util/strings.h"
#include "util/timer.h"
#include "util/work_queue.h"
#include "wga/extend_stage.h"
#include "wga/filter_stage.h"

namespace darwin::batch {

namespace {

/** Work items flowing between the stages. */
struct PrepareTask {
    std::size_t pair = 0;
};
struct SeedTask {
    std::size_t pair = 0;
    std::size_t strand = 0;
    std::size_t shard = 0;
};
struct FilterTask {
    std::size_t pair = 0;
    std::size_t strand = 0;
    std::size_t shard = 0;
    std::vector<seed::SeedHit> hits;
};
struct ExtendTask {
    std::size_t pair = 0;
    std::size_t strand = 0;
};
struct ChainTask {
    std::size_t pair = 0;
};

/** Per-strand dataflow state of one pair. */
struct StrandState {
    const seq::Sequence* query = nullptr;  ///< oriented strand sequence
    std::span<const std::uint8_t> query_span;
    std::vector<Shard> shards;
    std::unique_ptr<wga::FilterStage> filter;
    /** Candidates per shard, merged canonically when the last shard
     *  finishes filtering. */
    std::vector<std::vector<wga::FilterCandidate>> shard_candidates;
    std::atomic<std::size_t> shards_remaining{0};
    std::vector<wga::FilterCandidate> candidates;
    std::vector<align::Alignment> alignments;

    void
    reset()
    {
        query = nullptr;
        query_span = {};
        shards.clear();
        filter.reset();
        shard_candidates.clear();
        shards_remaining.store(0);
        candidates.clear();
        alignments.clear();
    }
};

/** Everything the engine tracks for one manifest entry. */
struct PairState {
    const BatchJob* job = nullptr;
    std::size_t pair_index = 0;
    /** This pair's parameters — a copy of the run's params that the
     *  degraded retry narrows. Stages reference it, so it only changes
     *  between attempts (when no task of the pair is running). */
    wga::WgaParams params;
    const seq::Sequence* target_flat = nullptr;
    std::span<const std::uint8_t> target_span;
    seq::Sequence query_rc;  ///< owned reverse complement (both-strands)
    /** Borrowed from the engine's index cache; pairs sharing a target
     *  (same sequence digest) point at the same table. */
    std::shared_ptr<const seed::SeedIndex> index;
    std::unique_ptr<seed::DsoftSeeder> seeder;
    std::array<StrandState, 2> strands;
    std::size_t num_strands = 1;
    std::atomic<std::size_t> strands_remaining{1};
    std::mutex stats_mutex;
    wga::WgaResult result;

    // --- fault-tolerance state ---
    fault::CancelToken token;
    /** Tasks enqueued but not yet finished (incremented before every
     *  push, decremented when the task completes or is dropped). A
     *  failed pair settles — retries or quarantines — only when this
     *  drains to zero, so no stale task of the old attempt can touch
     *  the new attempt's state. */
    std::atomic<std::size_t> inflight{0};
    std::atomic<bool> failed{false};
    std::atomic<bool> terminal{false};
    std::mutex fail_mutex;
    std::string fail_stage;
    fault::FailReason fail_reason = fault::FailReason::None;
    std::string fail_message;
    std::uint32_t attempts = 0;
    bool degraded = false;
    double work_seconds = 0.0;  ///< guarded by stats_mutex
    BatchPairResult out;        ///< filled at finalize
};

/** The dataflow engine for one run() invocation. */
class Engine {
  public:
    Engine(const BatchOptions& options, MetricsRegistry& metrics,
           const std::vector<BatchJob>& jobs)
        : options_(options), metrics_(metrics), jobs_(jobs),
          prepare_queue_(std::max<std::size_t>(jobs.size(), 1)),
          seed_queue_(options.queue_capacity),
          filter_queue_(options.queue_capacity),
          extend_queue_(options.queue_capacity),
          chain_queue_(options.queue_capacity),
          pairs_remaining_(jobs.size())
    {
        if (options_.index_cache != nullptr) {
            cache_ = options_.index_cache;
        } else {
            // Run-local cache: capacity for every distinct target in the
            // manifest (pairs_.size() is a safe upper bound). Metrics are
            // published by the engine itself (batch.index.*), so the
            // cache runs unmetered.
            owned_cache_ = std::make_unique<index::IndexCache>(
                std::max<std::size_t>(jobs.size(), 1));
            cache_ = owned_cache_.get();
        }
        pairs_.reserve(jobs.size());
        for (std::size_t p = 0; p < jobs_.size(); ++p) {
            auto pair = std::make_unique<PairState>();
            pair->job = &jobs_[p];
            pair->pair_index = p;
            pair->params = options_.params;
            pairs_.push_back(std::move(pair));
        }
    }

    std::vector<BatchPairResult>
    run()
    {
        if (jobs_.empty())
            return {};
        // Materialize lazily-built flattened genomes on this thread:
        // jobs may share Genome objects, and Genome::flattened() is not
        // safe to first-build concurrently.
        for (const BatchJob& job : jobs_) {
            require(job.target != nullptr && job.query != nullptr,
                    "batch: job missing target/query genome");
            if (options_.streaming) {
                // Streaming pairs read packed storage only, and build
                // their (transient, sharded) seed tables per pair — no
                // byte caches, no cache digests.
                job.target->flattened_packed();
                job.query->flattened_packed();
                continue;
            }
            job.target->flattened();
            job.query->flattened();
            // Digest each distinct target once: the cache key that lets
            // pairs sharing a target share one seed index.
            if (!target_digests_.contains(job.target))
                target_digests_.emplace(
                    job.target,
                    index::sequence_digest(job.target->flattened()));
        }
        metrics_.counter("batch.pairs").add(jobs_.size());
        // Which kernel implementation the filter and extension stages
        // dispatch to (id: 0 scalar, 1 sse42, 2 avx2) — same gauges the
        // serial pipeline publishes, so batch and serial runs stay
        // comparable.
        const int kernel_id =
            align::kernels::KernelRegistry::instance().active().id;
        metrics_.gauge("wga.filter.kernel").set(kernel_id);
        metrics_.gauge("wga.extend.kernel").set(kernel_id);

        for (std::size_t p = 0; p < jobs_.size(); ++p) {
            PrepareTask task{p};
            enqueue(prepare_queue_, task, "prepare", kPrepare, p);
        }

        std::size_t num_workers = options_.num_threads;
        if (num_workers == 0) {
            num_workers = std::max<std::size_t>(
                1, std::thread::hardware_concurrency());
        }
        std::vector<std::thread> workers;
        workers.reserve(num_workers);
        for (std::size_t w = 0; w < num_workers; ++w)
            workers.emplace_back([this] { worker_loop(); });
        for (auto& worker : workers)
            worker.join();

        // The run is over: every stage queue is drained (or abandoned on
        // a fatal abort), so the depth gauges must read zero again.
        for (const char* stage :
             {"prepare", "seed", "filter", "extend", "chain"})
            metrics_.gauge(strprintf("batch.queue.%s.depth", stage)).set(0);

        if (fatal_)
            std::rethrow_exception(fatal_);

        std::vector<BatchPairResult> out;
        out.reserve(pairs_.size());
        for (auto& pair : pairs_)
            out.push_back(std::move(pair->out));
        return out;
    }

  private:
    /** Stage depth, deepest first; used to bound help-drain recursion. */
    enum Stage : int {
        kChain = 0,
        kExtend = 1,
        kFilter = 2,
        kSeed = 3,
        kPrepare = 4,
    };

    /** Register a task with its pair's inflight count, then push. The
     *  increment happens before the push so the pair can never settle
     *  (retry/quarantine) while this task is still queued. */
    template <typename Queue, typename Task>
    void
    enqueue(Queue& queue, Task& task, const char* stage, int stage_level,
            std::size_t pair)
    {
        pairs_[pair]->inflight.fetch_add(1, std::memory_order_acq_rel);
        push_task(queue, task, stage, stage_level);
    }

    /**
     * Push to a stage queue without ever blocking the pipeline: when the
     * queue is full, help drain work at the target stage or deeper until
     * space opens. Helping only downstream keeps the recursion bounded
     * by the pipeline depth, and is what lets a single worker thread run
     * the whole dataflow without deadlocking on backpressure.
     */
    template <typename Queue, typename Task>
    void
    push_task(Queue& queue, Task& task, const char* stage, int stage_level)
    {
        while (!queue.try_push(task)) {
            if (done_.load(std::memory_order_acquire)) {
                // Aborting; drop the task but keep the inflight count
                // honest (nothing settles after done_, run() rethrows).
                pair_of(task)->inflight.fetch_sub(
                    1, std::memory_order_acq_rel);
                return;
            }
            if (!run_one(stage_level))
                std::this_thread::yield();
        }
        metrics_.gauge(strprintf("batch.queue.%s.depth", stage))
            .set(static_cast<std::int64_t>(queue.size()));
        wake_.notify_one();
    }

    template <typename Task>
    PairState*
    pair_of(const Task& task)
    {
        return pairs_[task.pair].get();
    }

    void
    worker_loop()
    {
        while (!done_.load(std::memory_order_acquire)) {
            if (fault::shutdown_requested())
                handle_shutdown();
            if (run_one(kPrepare))
                continue;
            // Timed wait: a plain wait could miss a notify that raced
            // with the queue polls; 1ms bounds the idle-retry latency.
            std::unique_lock<std::mutex> lock(wake_mutex_);
            wake_.wait_for(lock, std::chrono::milliseconds(1));
        }
    }

    /** Run one task at `max_level` or deeper (deepest first). False
     *  when those queues are all empty (work may still be in flight on
     *  other workers). */
    bool
    run_one(int max_level)
    {
        if (auto task = chain_queue_.try_pop()) {
            after_pop("chain", chain_queue_);
            run_pair_task(task->pair, "chain", "batch.chain", false,
                          [&] { do_chain(*task); });
            return true;
        }
        if (max_level >= kExtend) {
            if (auto task = extend_queue_.try_pop()) {
                after_pop("extend", extend_queue_);
                run_pair_task(task->pair, "extend", "batch.extend", false,
                              [&] { do_extend(*task); });
                return true;
            }
        }
        if (max_level >= kFilter) {
            if (auto task = filter_queue_.try_pop()) {
                after_pop("filter", filter_queue_);
                run_pair_task(task->pair, "filter", "batch.filter", false,
                              [&] { do_filter(*task); });
                return true;
            }
        }
        if (max_level >= kSeed) {
            if (auto task = seed_queue_.try_pop()) {
                after_pop("seed", seed_queue_);
                run_pair_task(task->pair, "seed", "batch.seed", false,
                              [&] { do_seed(*task); });
                return true;
            }
        }
        if (max_level >= kPrepare) {
            if (auto task = prepare_queue_.try_pop()) {
                after_pop("prepare", prepare_queue_);
                run_pair_task(task->pair, "prepare", "batch.prepare", true,
                              [&] { do_prepare(*task); });
                return true;
            }
        }
        return false;
    }

    /**
     * The per-pair isolation boundary every stage task runs inside. The
     * pair's CancelToken is installed for the calling thread (so kernel
     * probes charge and poll it), and the exception ladder routes each
     * failure class: FatalError aborts the whole run with pair+stage
     * context, everything else fails only this pair. Tasks of an
     * already-failed pair are dropped here, which is how a poisoned
     * pair's queued work drains without executing.
     */
    template <typename Fn>
    void
    run_pair_task(std::size_t idx, const char* stage, const char* probe,
                  bool first_task_of_attempt, Fn&& fn)
    {
        PairState& pair = *pairs_[idx];
        if (fault::shutdown_requested()) {
            handle_shutdown();
            fail_pair(idx, stage, fault::FailReason::Interrupted,
                      "run interrupted by shutdown request");
        }
        if (pair.failed.load(std::memory_order_acquire) ||
            pair.terminal.load(std::memory_order_acquire)) {
            task_done(pair);
            return;
        }
        if (first_task_of_attempt) {
            // Arm here — when the pair *starts executing* — so pairs
            // queued behind a deep manifest don't burn wall budget
            // while waiting.
            pair.token.arm(options_.pair_budget);
            ++pair.attempts;
        }
        Timer timer;
        fault::ContextScope scope(&pair.token, idx);
        try {
            fault::poll(probe);
            fn();
        } catch (const FatalError&) {
            fatal_abort(idx, stage, std::current_exception());
            return;
        } catch (const fault::CancelledError& error) {
            fail_pair(idx, stage,
                      fault::fail_reason_from_cancel(error.reason()),
                      error.what());
        } catch (const fault::InjectedFault& error) {
            fail_pair(idx, stage, fault::FailReason::Injected, error.what());
        } catch (const std::bad_alloc& error) {
            fail_pair(idx, stage, fault::FailReason::OutOfMemory,
                      error.what());
        } catch (const std::exception& error) {
            fail_pair(idx, stage, fault::FailReason::Exception, error.what());
        }
        {
            std::lock_guard<std::mutex> lock(pair.stats_mutex);
            pair.work_seconds += timer.seconds();
        }
        task_done(pair);
    }

    /** First failure wins; later failures of the same pair are noise
     *  from tasks that were already in flight. */
    void
    fail_pair(std::size_t idx, const char* stage, fault::FailReason reason,
              const std::string& message)
    {
        PairState& pair = *pairs_[idx];
        std::lock_guard<std::mutex> lock(pair.fail_mutex);
        if (pair.terminal.load(std::memory_order_acquire) ||
            pair.failed.load(std::memory_order_acquire))
            return;
        pair.fail_stage = stage;
        pair.fail_reason = reason;
        pair.fail_message = message;
        pair.failed.store(true, std::memory_order_release);
        // Stop the pair's other in-flight tasks at their next poll.
        pair.token.cancel(fault::CancelReason::External);
        if (reason == fault::FailReason::Injected)
            metrics_.counter("batch.fault.injected").add(1);
        if (fault::is_budget_overrun(reason))
            metrics_.counter("batch.fault.budget_overruns").add(1);
    }

    void
    task_done(PairState& pair)
    {
        if (pair.inflight.fetch_sub(1, std::memory_order_acq_rel) == 1 &&
            pair.failed.load(std::memory_order_acquire) &&
            !done_.load(std::memory_order_acquire))
            settle_failed(pair);
    }

    /** All tasks of a failed pair have drained: decide its fate. Runs
     *  on exactly one thread (the one that drained the last task). */
    void
    settle_failed(PairState& pair)
    {
        if (pair.terminal.load(std::memory_order_acquire))
            return;
        if (pair.fail_reason == fault::FailReason::Interrupted) {
            finalize_pair(pair, fault::PairStatus::Interrupted);
            return;
        }
        if (fault::is_budget_overrun(pair.fail_reason) &&
            options_.degraded_retry && !pair.degraded) {
            restart_degraded(pair);
            return;
        }
        quarantine_pair(pair);
    }

    void
    restart_degraded(PairState& pair)
    {
        obs::ScopedSpan span("degraded_retry", "batch.fault");
        span.arg("pair", static_cast<std::int64_t>(pair.pair_index));
        metrics_.counter("batch.fault.retries").add(1);
        warn(strprintf("batch: pair '%s' hit its %s budget in the %s "
                       "stage; retrying with degraded parameters",
                       pair.job->name.c_str(),
                       fault::fail_reason_name(pair.fail_reason),
                       pair.fail_stage.c_str()));
        pair.degraded = true;
        pair.params = apply_degrade(options_.params, options_.degrade);
        // run_streaming rejects a per-chunk hit cap (defined over whole
        // query chunks, which band sharding splits); the band and ydrop
        // degrades still bound the retry's work.
        if (options_.streaming)
            pair.params.dsoft.max_hits_per_chunk = 0;
        // Reset everything the failed attempt touched. No other task of
        // this pair exists (inflight == 0), so plain writes are safe.
        pair.result = wga::WgaResult{};
        pair.query_rc = seq::Sequence{};
        pair.index.reset();
        pair.seeder.reset();
        for (StrandState& strand : pair.strands)
            strand.reset();
        pair.num_strands = 1;
        pair.strands_remaining.store(1);
        pair.failed.store(false, std::memory_order_release);
        PrepareTask task{pair.pair_index};
        enqueue(prepare_queue_, task, "prepare", kPrepare, pair.pair_index);
    }

    void
    quarantine_pair(PairState& pair)
    {
        obs::ScopedSpan span("quarantine", "batch.fault");
        span.arg("pair", static_cast<std::int64_t>(pair.pair_index));
        fault::QuarantineRecord record;
        record.pair_index = pair.pair_index;
        record.name = pair.job->name;
        record.stage = pair.fail_stage;
        record.reason = pair.fail_reason;
        record.message = pair.fail_message;
        record.attempts = pair.attempts;
        {
            std::lock_guard<std::mutex> lock(pair.stats_mutex);
            record.elapsed_seconds = pair.work_seconds;
        }
        record.cells_charged = pair.token.cells_charged();
        record.heap_bytes_charged = pair.token.heap_bytes_charged();
        pair.out.quarantine = record;
        warn(strprintf("batch: quarantined pair '%s' (%s in the %s stage "
                       "after %u attempt%s): %s",
                       record.name.c_str(),
                       fault::fail_reason_name(record.reason),
                       record.stage.c_str(), record.attempts,
                       record.attempts == 1 ? "" : "s",
                       record.message.c_str()));
        finalize_pair(pair, fault::PairStatus::Quarantined);
    }

    /** The single exit point to a terminal status: fills the pair's
     *  BatchPairResult, bumps the reconciliation counters, streams the
     *  result to the runner's callback, and retires the pair. */
    void
    finalize_pair(PairState& pair, fault::PairStatus status)
    {
        if (pair.terminal.exchange(true, std::memory_order_acq_rel))
            return;
        pair.out.name = pair.job->name;
        pair.out.status = status;
        pair.out.attempts = pair.attempts;
        if (status == fault::PairStatus::Clean ||
            status == fault::PairStatus::Degraded)
            pair.out.result = std::move(pair.result);
        if (status == fault::PairStatus::Interrupted) {
            pair.out.quarantine.pair_index = pair.pair_index;
            pair.out.quarantine.name = pair.job->name;
            pair.out.quarantine.stage = pair.fail_stage;
            pair.out.quarantine.reason = fault::FailReason::Interrupted;
            pair.out.quarantine.message = pair.fail_message;
            pair.out.quarantine.attempts = pair.attempts;
        }
        metrics_
            .counter(strprintf("batch.fault.%s",
                               fault::pair_status_name(status)))
            .add(1);
        metrics_.counter("batch.pairs_completed").add(1);
        if (options_.on_pair_complete) {
            try {
                options_.on_pair_complete(pair.out);
            } catch (...) {
                fatal_abort(pair.pair_index, "on_pair_complete",
                            std::current_exception());
                return;
            }
        }
        if (pairs_remaining_.fetch_sub(1) == 1) {
            done_.store(true, std::memory_order_release);
            wake_.notify_all();
        }
    }

    /** A FatalError escapes pair isolation and aborts the run; run()
     *  rethrows it with the pair and stage attached. */
    void
    fatal_abort(std::size_t idx, const char* stage,
                std::exception_ptr error)
    {
        {
            std::lock_guard<std::mutex> lock(fatal_mutex_);
            if (!fatal_) {
                try {
                    std::rethrow_exception(error);
                } catch (const FatalError& fatal_error) {
                    fatal_ = std::make_exception_ptr(FatalError(strprintf(
                        "pair '%s' (%s stage): %s",
                        jobs_[idx].name.c_str(), stage,
                        fatal_error.what())));
                } catch (...) {
                    fatal_ = std::current_exception();
                }
            }
        }
        done_.store(true, std::memory_order_release);
        wake_.notify_all();
    }

    /** First sighting of the process shutdown flag: cancel every live
     *  pair so in-flight kernels stop at their next poll. Queued tasks
     *  of those pairs then drain as drops and each pair finalizes as
     *  Interrupted — which is what lets the runner flush a consistent
     *  checkpoint before exiting. */
    void
    handle_shutdown()
    {
        if (shutdown_handled_.exchange(true, std::memory_order_acq_rel))
            return;
        inform("batch: shutdown requested; cancelling in-flight pairs");
        for (std::size_t p = 0; p < pairs_.size(); ++p) {
            if (!pairs_[p]->terminal.load(std::memory_order_acquire))
                fail_pair(p, "shutdown", fault::FailReason::Interrupted,
                          "run interrupted by shutdown request");
        }
    }

    template <typename Queue>
    void
    after_pop(const char* stage, Queue& queue)
    {
        metrics_.gauge(strprintf("batch.queue.%s.depth", stage))
            .set(static_cast<std::int64_t>(queue.size()));
    }

    /**
     * Streaming mode runs the pair whole, here in the prepare stage:
     * run_streaming is already an internally-overlapped dataflow
     * (seeding producer / filtering consumer), so slicing it across
     * the engine's stage queues would only add materialization the
     * mode exists to avoid. The engine still provides what the serial
     * CLI cannot: pair-level concurrency across workers, per-pair
     * budget tokens, degraded retries and quarantine — the prepare
     * task's run_pair_task wrapper covers the entire run.
     */
    void
    do_streaming_pair(const PrepareTask& task)
    {
        Timer timer;
        obs::ScopedSpan span("streaming_pair", "batch");
        span.arg("pair", static_cast<std::int64_t>(task.pair));
        PairState& pair = *pairs_[task.pair];
        const wga::WgaPipeline pipeline(pair.params,
                                        options_.chain_params);
        pair.result = pipeline.run_streaming(
            *pair.job->target, *pair.job->query,
            options_.streaming_params, nullptr, &metrics_);
        metrics_.counter("batch.streaming.pairs").add(1);
        metrics_.histogram("batch.streaming.seconds")
            .observe(timer.seconds());
        finalize_pair(pair, pair.degraded ? fault::PairStatus::Degraded
                                          : fault::PairStatus::Clean);
    }

    void
    do_prepare(const PrepareTask& task)
    {
        if (options_.streaming) {
            do_streaming_pair(task);
            return;
        }
        Timer timer;
        obs::ScopedSpan span("prepare", "batch");
        span.arg("pair", static_cast<std::int64_t>(task.pair));
        PairState& pair = *pairs_[task.pair];
        const wga::WgaParams& params = pair.params;

        pair.target_flat = &pair.job->target->flattened();
        pair.target_span = {pair.target_flat->codes().data(),
                            pair.target_flat->size()};
        // Acquire the target's index from the cache: the first pair of a
        // shard-group builds it, the rest (and the degraded retry, which
        // leaves the seed shape untouched) reuse it.
        const index::IndexKey key{target_digests_.at(pair.job->target),
                                  params.seed_pattern,
                                  seed::SeedIndex::kDefaultMaxBucket};
        bool built = false;
        pair.index = cache_->acquire(
            key,
            [&] {
                return std::make_shared<const seed::SeedIndex>(
                    *pair.target_flat,
                    seed::SeedPattern(params.seed_pattern));
            },
            &built);
        if (!built)
            metrics_.counter("batch.index.cache_hits").add(1);
        pair.seeder =
            std::make_unique<seed::DsoftSeeder>(*pair.index, params.dsoft);

        pair.num_strands = params.align_both_strands ? 2 : 1;
        pair.strands_remaining.store(pair.num_strands);
        const seq::Sequence& query_fwd = pair.job->query->flattened();
        if (pair.num_strands == 2)
            pair.query_rc = query_fwd.reverse_complement();

        const std::size_t margin = default_shard_margin(params);
        std::size_t total_shards = 0;
        for (std::size_t s = 0; s < pair.num_strands; ++s) {
            StrandState& strand = pair.strands[s];
            strand.query = s == 0 ? &query_fwd : &pair.query_rc;
            strand.query_span = {strand.query->codes().data(),
                                 strand.query->size()};
            strand.shards =
                make_shards(strand.query->size(), options_.shard_length,
                            params.dsoft.chunk_size, margin);
            strand.shard_candidates.resize(strand.shards.size());
            strand.shards_remaining.store(strand.shards.size());
            strand.filter = std::make_unique<wga::FilterStage>(
                params, pair.target_span, strand.query_span);
            total_shards += strand.shards.size();
        }
        {
            // Index construction is the serial pipeline's up-front
            // seed_seconds; account it the same way.
            std::lock_guard<std::mutex> lock(pair.stats_mutex);
            pair.result.stats.seed_seconds += timer.seconds();
        }
        metrics_.counter("batch.shards").add(total_shards);
        metrics_.histogram("batch.prepare.seconds").observe(timer.seconds());

        for (std::size_t s = 0; s < pair.num_strands; ++s) {
            StrandState& strand = pair.strands[s];
            if (strand.shards.empty()) {
                // Empty strand (zero-length query): complete it now.
                ExtendTask extend{task.pair, s};
                enqueue(extend_queue_, extend, "extend", kExtend, task.pair);
                continue;
            }
            for (std::size_t shard = 0; shard < strand.shards.size();
                 ++shard) {
                SeedTask seed{task.pair, s, shard};
                enqueue(seed_queue_, seed, "seed", kSeed, task.pair);
            }
        }
    }

    void
    do_seed(const SeedTask& task)
    {
        Timer timer;
        obs::ScopedSpan span("seed", "batch");
        span.arg("pair", static_cast<std::int64_t>(task.pair));
        span.arg("strand", static_cast<std::int64_t>(task.strand));
        span.arg("shard", static_cast<std::int64_t>(task.shard));
        PairState& pair = *pairs_[task.pair];
        StrandState& strand = pair.strands[task.strand];
        const Shard& shard = strand.shards[task.shard];
        const std::size_t chunk_size = pair.params.dsoft.chunk_size;

        // Seed the shard chunk-by-chunk — the exact decomposition
        // DsoftSeeder::seed_all uses, so the hit set is identical.
        wga::PipelineStats local;
        FilterTask filter{task.pair, task.strand, task.shard, {}};
        for (std::size_t begin = shard.begin; begin < shard.end;
             begin += chunk_size) {
            const std::size_t end =
                std::min(strand.query->size(), begin + chunk_size);
            auto hits = pair.seeder->seed_chunk(strand.query_span, begin,
                                                end, &local.seeding);
            filter.hits.insert(filter.hits.end(),
                               std::make_move_iterator(hits.begin()),
                               std::make_move_iterator(hits.end()));
        }
        local.seed_seconds = timer.seconds();
        {
            std::lock_guard<std::mutex> lock(pair.stats_mutex);
            pair.result.stats.merge(local);
        }
        metrics_.counter("batch.seed.tasks").add(1);
        metrics_.counter("batch.seed.lookups").add(local.seeding.seed_lookups);
        metrics_.counter("batch.seed.raw_hits").add(local.seeding.seed_hits);
        metrics_.counter("batch.seed.hits").add(filter.hits.size());
        metrics_.histogram("batch.seed.seconds").observe(timer.seconds());
        enqueue(filter_queue_, filter, "filter", kFilter, task.pair);
    }

    void
    do_filter(FilterTask& task)
    {
        Timer timer;
        obs::ScopedSpan span("filter", "batch");
        span.arg("pair", static_cast<std::int64_t>(task.pair));
        span.arg("strand", static_cast<std::int64_t>(task.strand));
        span.arg("shard", static_cast<std::int64_t>(task.shard));
        PairState& pair = *pairs_[task.pair];
        StrandState& strand = pair.strands[task.strand];

        wga::PipelineStats local;
        std::vector<wga::FilterCandidate> candidates;
        for (const auto& slot :
             strand.filter->filter_hits(task.hits, &local.filter)) {
            if (slot)
                candidates.push_back(*slot);
        }
        local.filter_seconds = timer.seconds();
        metrics_.counter("batch.filter.tasks").add(1);
        metrics_.counter("batch.filter.hits_in").add(task.hits.size());
        metrics_.counter("batch.filter.cells").add(local.filter.cells);
        metrics_.counter("batch.filter.candidates").add(candidates.size());
        metrics_.counter("batch.filter.dropped")
            .add(task.hits.size() - candidates.size());
        metrics_.histogram("batch.filter.seconds").observe(timer.seconds());
        strand.shard_candidates[task.shard] = std::move(candidates);
        {
            std::lock_guard<std::mutex> lock(pair.stats_mutex);
            pair.result.stats.merge(local);
        }

        if (strand.shards_remaining.fetch_sub(1) == 1) {
            // Last shard of this strand: merge in shard order and apply
            // the canonical extension order (same sort as filter_all),
            // making the candidate stream bit-identical to the serial
            // pipeline's.
            std::size_t total = 0;
            for (const auto& shard_candidates : strand.shard_candidates)
                total += shard_candidates.size();
            strand.candidates.reserve(total);
            for (auto& shard_candidates : strand.shard_candidates) {
                strand.candidates.insert(strand.candidates.end(),
                                         shard_candidates.begin(),
                                         shard_candidates.end());
                shard_candidates.clear();
                shard_candidates.shrink_to_fit();
            }
            wga::sort_candidates(strand.candidates);
            ExtendTask extend{task.pair, task.strand};
            enqueue(extend_queue_, extend, "extend", kExtend, task.pair);
        }
    }

    void
    do_extend(const ExtendTask& task)
    {
        Timer timer;
        obs::ScopedSpan span("extend", "batch");
        span.arg("pair", static_cast<std::int64_t>(task.pair));
        span.arg("strand", static_cast<std::int64_t>(task.strand));
        PairState& pair = *pairs_[task.pair];
        StrandState& strand = pair.strands[task.strand];
        const wga::WgaParams& params = pair.params;

        wga::PipelineStats local;
        const align::GactXTileAligner aligner(params.gactx);
        wga::ExtendStage stage(params, pair.target_span, strand.query_span);
        strand.alignments =
            stage.extend_all(strand.candidates, aligner, &local.extend);
        strand.candidates.clear();
        strand.candidates.shrink_to_fit();
        const align::Strand orientation = task.strand == 0
                                              ? align::Strand::Forward
                                              : align::Strand::Reverse;
        for (align::Alignment& alignment : strand.alignments)
            alignment.query_strand = orientation;
        local.extend_seconds = timer.seconds();
        {
            std::lock_guard<std::mutex> lock(pair.stats_mutex);
            pair.result.stats.merge(local);
        }
        metrics_.counter("batch.extend.tasks").add(1);
        metrics_.counter("batch.extend.anchors_in")
            .add(local.extend.anchors_in);
        metrics_.counter("batch.extend.absorbed").add(local.extend.absorbed);
        metrics_.counter("batch.extend.extended").add(local.extend.extended);
        metrics_.counter("batch.extend.duplicates")
            .add(local.extend.duplicates);
        metrics_.counter("batch.extend.tiles")
            .add(local.extend.extension.tiles);
        metrics_.counter("batch.extend.xdrop_terminations")
            .add(local.extend.extension.xdrop_terminations);
        metrics_.counter("batch.extend.matched_bases")
            .add(local.extend.matched_bases);
        metrics_.counter("batch.alignments").add(strand.alignments.size());
        metrics_.histogram("batch.extend.seconds").observe(timer.seconds());

        if (pair.strands_remaining.fetch_sub(1) == 1) {
            ChainTask chain{task.pair};
            enqueue(chain_queue_, chain, "chain", kChain, task.pair);
        }
    }

    void
    do_chain(const ChainTask& task)
    {
        Timer timer;
        obs::ScopedSpan span("chain", "batch");
        span.arg("pair", static_cast<std::int64_t>(task.pair));
        PairState& pair = *pairs_[task.pair];
        // Forward alignments first, then reverse — the serial
        // pipeline's concatenation order, which the chainer sees.
        for (std::size_t s = 0; s < pair.num_strands; ++s) {
            StrandState& strand = pair.strands[s];
            pair.result.alignments.insert(
                pair.result.alignments.end(),
                std::make_move_iterator(strand.alignments.begin()),
                std::make_move_iterator(strand.alignments.end()));
            strand.alignments.clear();
        }
        pair.result.chains = chain::chain_alignments(
            pair.result.alignments, options_.chain_params);
        {
            std::lock_guard<std::mutex> lock(pair.stats_mutex);
            pair.result.stats.chain_seconds += timer.seconds();
        }
        metrics_.counter("batch.chain.tasks").add(1);
        metrics_.counter("batch.chains").add(pair.result.chains.size());
        metrics_.histogram("batch.chain.seconds").observe(timer.seconds());

        finalize_pair(pair, pair.degraded ? fault::PairStatus::Degraded
                                          : fault::PairStatus::Clean);
    }

    const BatchOptions& options_;
    MetricsRegistry& metrics_;
    const std::vector<BatchJob>& jobs_;
    std::vector<std::unique_ptr<PairState>> pairs_;
    std::unique_ptr<index::IndexCache> owned_cache_;
    index::IndexCache* cache_ = nullptr;
    std::unordered_map<const seq::Genome*, std::uint64_t> target_digests_;

    WorkQueue<PrepareTask> prepare_queue_;
    WorkQueue<SeedTask> seed_queue_;
    WorkQueue<FilterTask> filter_queue_;
    WorkQueue<ExtendTask> extend_queue_;
    WorkQueue<ChainTask> chain_queue_;

    std::atomic<std::size_t> pairs_remaining_;
    std::atomic<bool> done_{false};
    std::atomic<bool> shutdown_handled_{false};
    std::mutex wake_mutex_;
    std::condition_variable wake_;
    std::mutex fatal_mutex_;
    std::exception_ptr fatal_;
};

}  // namespace

BatchScheduler::BatchScheduler(BatchOptions options, MetricsRegistry* metrics)
    : options_(std::move(options)),
      metrics_(metrics != nullptr ? metrics : &fallback_metrics_)
{
}

std::vector<BatchPairResult>
BatchScheduler::run(const std::vector<BatchJob>& jobs)
{
    Engine engine(options_, *metrics_, jobs);
    return engine.run();
}

}  // namespace darwin::batch
