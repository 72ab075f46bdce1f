/**
 * @file
 * Pipeline-wide metrics registry: named counters, gauges (with
 * high-water marks), and latency histograms, dumped as JSON and
 * renderable as Prometheus text exposition (obs/exposition.h).
 *
 * Promoted out of src/batch/ so every layer shares one vocabulary: the
 * batch engine counts pair outcomes ("batch.*"), every WgaPipeline run
 * publishes its stage workload counters and latencies ("wga.*"), the
 * hw models publish modeled cycles and DRAM traffic ("hw.*"), and the
 * serve daemon publishes request/cache telemetry ("serve.*"). See DESIGN.md "Observability" for the full
 * metric name catalogue.
 *
 * All mutation paths are thread-safe. Metric handles returned by the
 * registry are stable for the registry's lifetime, so hot paths look a
 * metric up once and then update it lock-free (counters/gauges) or under
 * a per-metric mutex (histograms).
 *
 * Scrapers read through snapshot(): every metric is captured under one
 * lock acquisition per metric, so a histogram's count/sum/buckets are
 * mutually consistent even while writers are observing (reading the
 * fields through separate accessor calls can tear mid-update).
 */
#ifndef DARWIN_OBS_METRICS_H
#define DARWIN_OBS_METRICS_H

#include <array>
#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace darwin::obs {

/** Monotonically increasing event count. */
class Counter {
  public:
    void
    add(std::uint64_t n = 1)
    {
        value_.fetch_add(n, std::memory_order_relaxed);
    }

    std::uint64_t
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<std::uint64_t> value_{0};
};

/** Instantaneous level (e.g. queue depth) with a high-water mark. */
class Gauge {
  public:
    void
    set(std::int64_t v)
    {
        value_.store(v, std::memory_order_relaxed);
        std::int64_t seen = high_water_.load(std::memory_order_relaxed);
        while (v > seen &&
               !high_water_.compare_exchange_weak(
                   seen, v, std::memory_order_relaxed))
            ;
    }

    std::int64_t
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

    std::int64_t
    high_water() const
    {
        return high_water_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<std::int64_t> value_{0};
    std::atomic<std::int64_t> high_water_{0};
};

/** One consistent gauge reading. */
struct GaugeSnapshot {
    std::int64_t value = 0;
    std::int64_t high_water = 0;
};

/**
 * One consistent histogram reading, captured under a single lock
 * acquisition. `buckets` holds *cumulative* counts over the fixed
 * log-spaced bounds (Histogram::bucket_bound): buckets[i] is the number
 * of observations <= bucket_bound(i), so buckets.back() == count. The
 * quantiles come from the reservoir samples; min/max/quantiles are NaN
 * when count == 0.
 */
struct HistogramSnapshot {
    std::uint64_t count = 0;
    std::uint64_t nonfinite = 0;  ///< rejected non-finite observations
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
    double p50 = 0.0;
    double p90 = 0.0;
    double p99 = 0.0;
    std::array<std::uint64_t, 36> buckets{};

    double
    mean() const
    {
        return count == 0 ? 0.0 : sum / static_cast<double>(count);
    }
};

/**
 * Distribution of observed values (stage latencies in seconds).
 * Keeps exact count/sum/min/max, fixed log-spaced cumulative bucket
 * counts (Prometheus-exposable and mergeable across processes, since
 * the bounds never vary), plus a bounded sample buffer for quantiles;
 * observations past the buffer cap still update the exact aggregates
 * and buckets but no longer shift the quantile estimates.
 *
 * Non-finite observations (NaN/Inf) are counted separately and excluded
 * from every aggregate, so one bad value can never poison the min/max/
 * sum that the JSON dump and the Prometheus exposition render.
 *
 * An *empty* histogram has no defined extrema: min(), max(), and
 * quantile() return NaN until the first observe(). mean() of an empty
 * histogram is 0.0 (sum over count conventions keep ratios additive).
 * The JSON dump writes the NaN values as null.
 */
class Histogram {
  public:
    void observe(double value);

    std::uint64_t count() const;
    double sum() const;
    double mean() const;

    /** Smallest observed value; NaN when count() == 0. */
    double min() const;

    /** Largest observed value; NaN when count() == 0. */
    double max() const;

    /**
     * Quantile over the retained samples, q clamped to [0, 1]; NaN when
     * count() == 0.
     */
    double quantile(double q) const;

    /** Everything above, read consistently under one lock. */
    HistogramSnapshot snapshot() const;

    /** Forget every observation (count, sum, buckets, samples). */
    void reset();

    /** Samples retained for quantile estimation. */
    static constexpr std::size_t kMaxSamples = 65536;

    /**
     * Fixed log-spaced bucket grid shared by every histogram: bound i
     * is 1e-6 * 2^i seconds (1 microsecond up to ~4.8 hours), and the
     * last bucket is +Inf. Identical bounds everywhere make bucket
     * vectors mergeable across shards, runs, and processes.
     */
    static constexpr std::size_t kNumBuckets = 36;
    static double bucket_bound(std::size_t i);

  private:
    mutable std::mutex mutex_;
    std::uint64_t count_ = 0;
    std::uint64_t nonfinite_ = 0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
    std::array<std::uint64_t, kNumBuckets> buckets_{};  // per-bucket
    std::vector<double> samples_;
};

/**
 * A registry-wide point-in-time reading: every metric in name order,
 * each captured atomically (per metric). This is what the JSON dump and
 * the Prometheus exposition render, so both formats agree with each
 * other for a given scrape.
 */
struct MetricsSnapshot {
    std::vector<std::pair<std::string, std::uint64_t>> counters;
    std::vector<std::pair<std::string, GaugeSnapshot>> gauges;
    std::vector<std::pair<std::string, HistogramSnapshot>> histograms;
};

/** Name -> metric map with on-demand creation and JSON dumps. */
class MetricsRegistry {
  public:
    /** Find or create; the returned reference stays valid. */
    Counter& counter(const std::string& name);
    Gauge& gauge(const std::string& name);
    Histogram& histogram(const std::string& name);

    /** Read-only lookup; nullptr when the metric was never created. */
    const Counter* find_counter(const std::string& name) const;
    const Gauge* find_gauge(const std::string& name) const;
    const Histogram* find_histogram(const std::string& name) const;

    /**
     * Current (name, value) of every gauge whose name starts with
     * `prefix` (empty prefix = all), in name order. Used by the
     * progress reporter to print queue depths without creating metrics.
     */
    std::vector<std::pair<std::string, std::int64_t>> gauge_snapshot(
        const std::string& prefix = {}) const;

    /** Consistent point-in-time reading of every metric (name order). */
    MetricsSnapshot snapshot() const;

    /**
     * Dump every metric as one JSON object:
     *   {"counters": {name: value, ...},
     *    "gauges": {name: {"value": v, "high_water": h}, ...},
     *    "histograms": {name: {"count": n, "sum": s, "mean": m,
     *                          "min": lo, "max": hi,
     *                          "p50": a, "p90": b, "p99": c,
     *                          "buckets": {"le": cumulative, ...}}, ...}}
     * Rendered from one snapshot() so the fields of a histogram are
     * mutually consistent under concurrent writers. Non-finite values
     * (the empty-histogram NaNs, or anything a caller fed a histogram)
     * are emitted as null so the dump is always valid JSON.
     */
    void write_json(std::ostream& out) const;
    std::string to_json() const;

    /** Same content as write_json on a single line (no newlines) —
     *  embeddable in line-delimited protocols (serve Op::Stats). */
    std::string to_json_compact() const;

  private:
    mutable std::mutex mutex_;
    std::map<std::string, std::unique_ptr<Counter>> counters_;
    std::map<std::string, std::unique_ptr<Gauge>> gauges_;
    std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/** Render a snapshot as the write_json object (pretty or one line). */
void write_snapshot_json(std::ostream& out, const MetricsSnapshot& snapshot,
                         bool pretty);

}  // namespace darwin::obs

#endif  // DARWIN_OBS_METRICS_H
