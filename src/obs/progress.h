/**
 * @file
 * Heartbeat progress reporting for long runs: a background thread wakes
 * every interval, reads the metrics registry, and logs one structured
 * line — work done / total and instantaneous throughput — so an
 * operator watching a multi-hour batch sees movement without attaching
 * a tracer.
 *
 * The reporter only *reads* (via the registry's find accessors), so
 * it never creates metrics and never perturbs what the final dump
 * contains.
 */
#ifndef DARWIN_OBS_PROGRESS_H
#define DARWIN_OBS_PROGRESS_H

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>

#include "obs/metrics.h"

namespace darwin::obs {

/** What the reporter reads and how often it speaks. */
struct ProgressOptions {
    /** Seconds between heartbeats; values <= 0 disable the reporter. */
    double interval_seconds = 10.0;

    /** Counter of completed work units (e.g. "batch.pairs_completed"). */
    std::string done_counter;

    /** Counter of total expected units ("batch.pairs"); may be empty. */
    std::string total_counter;

    /** Label for the log line, e.g. "batch" or "align". */
    std::string label = "progress";
};

/**
 * Interval-driven heartbeat over a registry. start() spawns the
 * reporting thread; stop() (or destruction) joins it promptly. A final
 * summary line is emitted on stop() if at least one heartbeat fired,
 * so truncated runs still leave a throughput record.
 */
class ProgressReporter {
  public:
    ProgressReporter(const MetricsRegistry& registry,
                     ProgressOptions options);
    ~ProgressReporter();

    ProgressReporter(const ProgressReporter&) = delete;
    ProgressReporter& operator=(const ProgressReporter&) = delete;

    /** Begin heartbeats; no-op when the interval disables reporting. */
    void start();

    /** Stop and join the reporter thread (idempotent). */
    void stop();

  private:
    void loop();
    void report(double elapsed_seconds, std::uint64_t last_done,
                double since_last_seconds);

    const MetricsRegistry& registry_;
    ProgressOptions options_;
    std::thread thread_;
    std::mutex mutex_;
    std::condition_variable stop_cv_;
    bool stopping_ = false;
    bool heartbeats_fired_ = false;
};

}  // namespace darwin::obs

#endif  // DARWIN_OBS_PROGRESS_H
