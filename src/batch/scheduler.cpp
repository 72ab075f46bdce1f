#include "batch/scheduler.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <memory>
#include <mutex>
#include <new>
#include <optional>
#include <thread>
#include <unordered_map>

#include "fault/fault_plan.h"
#include "index/index_cache.h"
#include "index/index_io.h"
#include "obs/trace.h"
#include "seed/seed_index.h"
#include "util/logging.h"
#include "util/strings.h"
#include "util/timer.h"

namespace darwin::batch {

namespace {

/** The engine for one run() invocation. */
class Engine {
  public:
    Engine(const BatchOptions& options, MetricsRegistry& metrics,
           const std::vector<BatchJob>& jobs)
        : options_(options), metrics_(metrics), jobs_(jobs),
          tokens_(jobs.size()), results_(jobs.size())
    {
        if (options_.index_cache != nullptr) {
            cache_ = options_.index_cache;
        } else {
            // Run-local cache: capacity for every distinct target in the
            // manifest (jobs.size() is a safe upper bound). The engine
            // counts its own cache hits (batch.index.cache_hits), so the
            // cache runs unmetered.
            owned_cache_ = std::make_unique<index::IndexCache>(
                std::max<std::size_t>(jobs.size(), 1));
            cache_ = owned_cache_.get();
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
            // Each run reads the flattening its target's storage selects
            // (WgaPipeline::run); the cached index is built over bytes.
            if (job.target->packed()) {
                job.target->flattened_packed();
                job.query->flattened_packed();
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

        std::size_t num_workers = options_.num_threads;
        if (num_workers == 0) {
            num_workers = std::max<std::size_t>(
                1, std::thread::hardware_concurrency());
        }
        num_workers = std::min(num_workers, jobs_.size());
        std::vector<std::thread> workers;
        workers.reserve(num_workers);
        for (std::size_t w = 0; w < num_workers; ++w)
            workers.emplace_back([this] { worker_loop(); });
        watch_shutdown(num_workers);
        for (auto& worker : workers)
            worker.join();

        if (fatal_)
            std::rethrow_exception(fatal_);
        return std::move(results_);
    }

  private:
    void
    worker_loop()
    {
        while (!aborted_.load(std::memory_order_acquire)) {
            const std::size_t idx = next_pair_.fetch_add(1);
            if (idx >= jobs_.size())
                break;
            run_pair(idx);
        }
        {
            std::lock_guard<std::mutex> lock(mutex_);
            ++workers_done_;
        }
        wake_.notify_all();
    }

    /** The run() thread's job while the workers run: turn the process
     *  shutdown flag into a stop of the run. */
    void
    watch_shutdown(std::size_t num_workers)
    {
        std::unique_lock<std::mutex> lock(mutex_);
        while (workers_done_ < num_workers) {
            if (!stopping_ && fault::shutdown_requested()) {
                inform("batch: shutdown requested; cancelling in-flight "
                       "pairs");
                stop_locked();
            }
            wake_.wait_for(lock, std::chrono::milliseconds(10));
        }
    }

    /** No pair starts another attempt, and every running pair stops at
     *  its next poll (CancelledError, reason External). */
    void
    stop_locked()
    {
        stopping_ = true;
        for (fault::CancelToken& token : tokens_)
            token.cancel(fault::CancelReason::External);
    }

    /** Arm a pair's token for a new attempt; false once the run is
     *  stopping. Arming under the lock orders it against stop_locked(),
     *  so an attempt armed before a stop is always cancelled by it. */
    bool
    arm(std::size_t idx)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (stopping_)
            return false;
        tokens_[idx].arm(options_.pair_budget);
        return true;
    }

    /**
     * One pair from first attempt to terminal status, on this worker.
     * Each attempt runs under the pair's token; the catch ladder routes
     * each failure class: FatalError aborts the whole run with pair and
     * stage context, a budget overrun earns one degraded retry here in
     * the same task, and everything else quarantines only this pair.
     */
    void
    run_pair(std::size_t idx)
    {
        fault::QuarantineRecord record;
        record.pair_index = idx;
        record.name = jobs_[idx].name;
        // Both read the stage marker, so they are called inside a catch,
        // while the attempt's scope still holds it.
        const auto stage = [] {
            const char* marker = fault::current_stage();
            return std::string(marker != nullptr ? marker : "prepare");
        };
        const auto fail = [&](fault::FailReason reason, const char* message) {
            record.stage = stage();
            record.reason = reason;
            record.message = message;
        };
        wga::WgaParams params = options_.params;
        bool degraded = false;
        for (;;) {
            std::optional<wga::WgaResult> result;
            if (!arm(idx)) {
                record.stage = "shutdown";
                record.reason = fault::FailReason::Interrupted;
                record.message = "run interrupted by shutdown request";
            } else {
                ++record.attempts;
                Timer timer;
                fault::ContextScope scope(&tokens_[idx], idx);
                try {
                    obs::ScopedSpan span("pair", "batch");
                    span.arg("pair", static_cast<std::int64_t>(idx));
                    span.arg("attempt",
                             static_cast<std::int64_t>(record.attempts));
                    fault::enter_stage("prepare", "batch.prepare");
                    result = run_attempt(jobs_[idx], params);
                } catch (const FatalError&) {
                    fatal_abort(idx, stage(), std::current_exception());
                    return;
                } catch (const fault::CancelledError& error) {
                    fail(fault::fail_reason_from_cancel(error.reason()),
                         error.what());
                } catch (const fault::InjectedFault& error) {
                    fail(fault::FailReason::Injected, error.what());
                } catch (const std::bad_alloc& error) {
                    fail(fault::FailReason::OutOfMemory, error.what());
                } catch (const std::exception& error) {
                    fail(fault::FailReason::Exception, error.what());
                }
                record.elapsed_seconds += timer.seconds();
            }
            // After a fatal abort the run's results are discarded.
            if (aborted_.load(std::memory_order_acquire))
                return;
            if (result) {
                finalize(idx,
                         degraded ? fault::PairStatus::Degraded
                                  : fault::PairStatus::Clean,
                         record.attempts, std::move(*result), {});
                return;
            }
            if (record.reason == fault::FailReason::Injected)
                metrics_.counter("batch.fault.injected").add(1);
            if (fault::is_budget_overrun(record.reason))
                metrics_.counter("batch.fault.budget_overruns").add(1);
            if (record.reason == fault::FailReason::Interrupted) {
                finalize(idx, fault::PairStatus::Interrupted,
                         record.attempts, {}, std::move(record));
                return;
            }
            if (fault::is_budget_overrun(record.reason) &&
                options_.degraded_retry && !degraded) {
                metrics_.counter("batch.fault.retries").add(1);
                warn(strprintf("batch: pair '%s' hit its %s budget in the %s "
                               "stage; retrying with degraded parameters",
                               record.name.c_str(),
                               fault::fail_reason_name(record.reason),
                               record.stage.c_str()));
                degraded = true;
                params = apply_degrade(options_.params, options_.degrade);
                continue;
            }
            record.cells_charged = tokens_[idx].cells_charged();
            record.heap_bytes_charged = tokens_[idx].heap_bytes_charged();
            warn(strprintf("batch: quarantined pair '%s' (%s in the %s stage "
                           "after %u attempt%s): %s",
                           record.name.c_str(),
                           fault::fail_reason_name(record.reason),
                           record.stage.c_str(), record.attempts,
                           record.attempts == 1 ? "" : "s",
                           record.message.c_str()));
            finalize(idx, fault::PairStatus::Quarantined, record.attempts,
                     {}, std::move(record));
            return;
        }
    }

    /** One attempt: the whole pipeline for one pair, on this thread. */
    wga::WgaResult
    run_attempt(const BatchJob& job, const wga::WgaParams& params)
    {
        const wga::WgaPipeline pipeline(params, options_.chain_params);
        // Acquire the target's index from the cache: the first pair of a
        // target builds it, the rest (and the degraded retry, which
        // leaves the seed shape untouched) reuse it. The acquire is the
        // serial pipeline's up-front index build, so it is accounted the
        // same way: as seeding time.
        Timer timer;
        const seq::Sequence& target = job.target->flattened();
        const index::IndexKey key{target_digests_.at(job.target),
                                  params.seed_pattern,
                                  seed::SeedIndex::kDefaultMaxBucket};
        bool built = false;
        const std::shared_ptr<const seed::SeedIndex> index = cache_->acquire(
            key,
            [&] {
                return std::make_shared<const seed::SeedIndex>(
                    target, seed::SeedPattern(params.seed_pattern));
            },
            &built);
        if (!built)
            metrics_.counter("batch.index.cache_hits").add(1);
        wga::PipelineStats index_stage;
        index_stage.seed_seconds = timer.seconds();
        wga::publish_pipeline_stats(metrics_, index_stage);

        wga::WgaResult result = pipeline.run(
            *job.target, *job.query,
            {.metrics = &metrics_, .index = index.get()});
        result.stats.merge(index_stage);
        return result;
    }

    /** The single exit point to a terminal status: fills the pair's
     *  BatchPairResult, bumps the reconciliation counters, and streams
     *  the result to the runner's callback. */
    void
    finalize(std::size_t idx, fault::PairStatus status,
             std::uint32_t attempts, wga::WgaResult result,
             fault::QuarantineRecord record)
    {
        BatchPairResult& out = results_[idx];
        out.name = jobs_[idx].name;
        out.status = status;
        out.attempts = attempts;
        out.result = std::move(result);
        out.quarantine = std::move(record);
        metrics_
            .counter(strprintf("batch.fault.%s",
                               fault::pair_status_name(status)))
            .add(1);
        metrics_.counter("batch.pairs_completed").add(1);
        if (options_.on_pair_complete) {
            try {
                options_.on_pair_complete(out);
            } catch (...) {
                fatal_abort(idx, "on_pair_complete", std::current_exception());
            }
        }
    }

    /** A FatalError escapes pair isolation and stops the run; run()
     *  rethrows it with the pair and stage attached. */
    void
    fatal_abort(std::size_t idx, const std::string& stage,
                std::exception_ptr error)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (!fatal_) {
            try {
                std::rethrow_exception(error);
            } catch (const FatalError& fatal_error) {
                fatal_ = std::make_exception_ptr(FatalError(strprintf(
                    "pair '%s' (%s stage): %s", jobs_[idx].name.c_str(),
                    stage.c_str(), fatal_error.what())));
            } catch (...) {
                fatal_ = std::current_exception();
            }
        }
        aborted_.store(true, std::memory_order_release);
        stop_locked();
    }

    const BatchOptions& options_;
    MetricsRegistry& metrics_;
    const std::vector<BatchJob>& jobs_;
    std::unique_ptr<index::IndexCache> owned_cache_;
    index::IndexCache* cache_ = nullptr;
    std::unordered_map<const seq::Genome*, std::uint64_t> target_digests_;

    std::vector<fault::CancelToken> tokens_;  ///< one per pair
    std::vector<BatchPairResult> results_;    ///< slot i written by pair i
    std::atomic<std::size_t> next_pair_{0};
    std::atomic<bool> aborted_{false};

    std::mutex mutex_;  ///< guards everything below
    std::condition_variable wake_;
    std::size_t workers_done_ = 0;
    bool stopping_ = false;
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
