/**
 * @file
 * Shared observability flag surface for the CLI tools: both `darwin-wga`
 * and `darwin-wga-batch` accept
 *
 *   --metrics-out FILE       final metrics registry dump (JSON)
 *   --metrics-every SEC      also rewrite --metrics-out every N seconds
 *                            (atomic tmp+rename, so scrapers and humans
 *                            tailing a long batch never read a partial
 *                            file; 0 = only at exit)
 *   --trace-out FILE         Chrome/Perfetto trace_event JSON
 *   --progress-interval SEC  heartbeat progress log (0 = off)
 *   --log-json FILE          mirror log records as JSON lines
 *
 * ObsSetup owns the lifecycle: it installs the trace session and JSON
 * log sink when the flags ask for them, and finish() writes the output
 * files and uninstalls everything. Observability is purely additive —
 * alignment output is bit-identical with or without these flags.
 */
#ifndef DARWIN_TOOLS_OBS_SUPPORT_H
#define DARWIN_TOOLS_OBS_SUPPORT_H

#include <chrono>
#include <condition_variable>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "align/kernels/kernel_registry.h"
#include "batch/checkpoint.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/trace.h"
#include "util/args.h"
#include "util/logging.h"

namespace darwin::tools {

inline void
add_obs_options(ArgParser& args)
{
    args.add_option("metrics-out", "",
                    "write the final metrics registry as JSON here");
    args.add_option("metrics-every", "0",
                    "also rewrite --metrics-out atomically every N "
                    "seconds while running (0 = only at exit)");
    args.add_option("trace-out", "",
                    "write a Chrome/Perfetto trace_event JSON here");
    args.add_option("progress-interval", "0",
                    "log a progress heartbeat every N seconds (0 = off)");
    args.add_option("log-json", "",
                    "also write log records as JSON lines to this file");
}

/** Flag-driven observability lifecycle for one CLI run. */
class ObsSetup {
  public:
    ObsSetup(const ArgParser& args, obs::MetricsRegistry& registry)
        : registry_(registry),
          metrics_path_(args.get("metrics-out")),
          trace_path_(args.get("trace-out")),
          progress_interval_(args.get_double("progress-interval"))
    {
        const std::string log_json = args.get("log-json");
        if (!log_json.empty())
            add_log_sink(std::make_shared<JsonLinesSink>(log_json));
        // The registry applied DARWIN_KERNEL at startup; the selection
        // drives both the BSW/ungapped filter and GACT-X extension.
        inform(std::string("alignment kernels: ") +
               align::kernels::KernelRegistry::instance().active().name);
        if (!trace_path_.empty()) {
            trace_ = std::make_unique<obs::TraceSession>();
            obs::TraceSession::install(trace_.get());
        }
        const double metrics_every = args.get_double("metrics-every");
        if (metrics_every > 0.0) {
            if (metrics_path_.empty())
                fatal("--metrics-every requires --metrics-out");
            start_periodic_dumps(metrics_every);
        }
    }

    ~ObsSetup()
    {
        finish();
        clear_log_sinks();
    }

    ObsSetup(const ObsSetup&) = delete;
    ObsSetup& operator=(const ObsSetup&) = delete;

    /** Begin heartbeats if --progress-interval asked for them. */
    void
    start_progress(obs::ProgressOptions options)
    {
        if (progress_interval_ <= 0.0)
            return;
        options.interval_seconds = progress_interval_;
        progress_ = std::make_unique<obs::ProgressReporter>(
            registry_, std::move(options));
        progress_->start();
    }

    /**
     * Stop the heartbeat, uninstall the trace session, and write the
     * requested output files. Idempotent and thread-safe — the signal
     * watchdog (signal_support.h) may race it against normal shutdown,
     * and whichever caller gets there first does the flush.
     */
    void
    finish()
    {
        // Stop the periodic dumper before taking finish_mutex_: the
        // dumper grabs that mutex per dump, so joining it while holding
        // the mutex would deadlock.
        stop_periodic_dumps();
        std::lock_guard<std::mutex> lock(finish_mutex_);
        if (progress_) {
            progress_->stop();
            progress_.reset();
        }
        if (trace_) {
            obs::TraceSession::install(nullptr);
            std::ofstream out(trace_path_);
            if (!out)
                fatal("cannot write trace to " + trace_path_);
            trace_->write_chrome_json(out);
            inform("wrote trace " + trace_path_);
            trace_.reset();
        }
        if (!metrics_path_.empty()) {
            std::ofstream out(metrics_path_);
            if (!out)
                fatal("cannot write metrics to " + metrics_path_);
            registry_.write_json(out);
            inform("wrote metrics " + metrics_path_);
            metrics_path_.clear();
        }
    }

  private:
    /**
     * Periodic --metrics-every dumper. Each dump goes through the
     * tmp+rename writer so readers (scrapers, humans with `watch cat`)
     * never observe a partially written registry.
     */
    void
    start_periodic_dumps(double interval_seconds)
    {
        periodic_thread_ = std::thread([this, interval_seconds] {
            const auto interval =
                std::chrono::duration<double>(interval_seconds);
            std::unique_lock<std::mutex> lock(periodic_mutex_);
            while (!periodic_stop_) {
                if (periodic_cv_.wait_for(lock, interval,
                                          [this] { return periodic_stop_; }))
                    break;
                lock.unlock();
                dump_metrics_atomic();
                lock.lock();
            }
        });
    }

    void
    stop_periodic_dumps()
    {
        {
            std::lock_guard<std::mutex> lock(periodic_mutex_);
            if (periodic_stop_)
                return;  // an earlier finish() already joined
            periodic_stop_ = true;
        }
        periodic_cv_.notify_all();
        if (periodic_thread_.joinable())
            periodic_thread_.join();
    }

    void
    dump_metrics_atomic()
    {
        std::lock_guard<std::mutex> lock(finish_mutex_);
        if (metrics_path_.empty())
            return;  // finish() already wrote the final dump
        batch::write_file_atomic(metrics_path_, registry_.to_json());
    }

    obs::MetricsRegistry& registry_;
    std::mutex finish_mutex_;
    std::string metrics_path_;
    std::string trace_path_;
    double progress_interval_ = 0.0;
    std::unique_ptr<obs::TraceSession> trace_;
    std::unique_ptr<obs::ProgressReporter> progress_;
    std::mutex periodic_mutex_;
    std::condition_variable periodic_cv_;
    bool periodic_stop_ = false;
    std::thread periodic_thread_;
};

}  // namespace darwin::tools

#endif  // DARWIN_TOOLS_OBS_SUPPORT_H
