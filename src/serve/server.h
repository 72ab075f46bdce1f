/**
 * @file
 * The long-lived alignment service behind `darwin-wga-serve`.
 *
 * A Server owns a bounded request queue (util/work_queue.h) drained by a
 * small worker pool (util/thread_pool.h): the transport loop —
 * serve_stream() over iostreams or serve_fd() over raw descriptors —
 * only reads request lines and enqueues them, so a slow alignment never
 * blocks the daemon from accepting (or rejecting) the next request.
 * Responses are written in completion order; clients correlate by id.
 *
 * Each align request runs under its own fault::CancelToken armed with
 * the request's budget (or the server default), installed for the
 * worker thread via ContextScope — the same cooperative machinery the
 * batch engine uses, so a request that exceeds its wall/cells/heap
 * budget unwinds with a tagged error response while the daemon keeps
 * serving. stop() cancels every in-flight token, which is how SIGTERM
 * turns into a bounded drain instead of a hung exit.
 *
 * Overload safety (DESIGN.md §13): submit() is the admission point —
 * align requests past max_queue (or the in-flight bp cap) are shed
 * with an "overloaded" error carrying a retry_after_ms hint from the
 * EWMA of observed service time, so the transport never blocks and
 * the queue never grows without bound. A request's optional
 * deadline_ms maps onto its CancelToken wall budget (clamped by the
 * time it already waited in queue; expired requests are shed
 * "deadline" at dispatch without running). A CircuitBreaker
 * (fault/breaker.h) watches the budget-trip rate of full-fidelity
 * aligns and, while open, serves requests with the shared degrade
 * policy (fault/degrade.h) and a "degraded": true response field.
 *
 * Caching: target/query FASTAs are cached by path for the server's
 * lifetime, and seed indexes live in an LRU IndexCache keyed by
 * (sequence digest, seed shape, repeat cap) — a request naming a
 * persisted .dwi mmap-loads it (after verifying its header digest
 * matches the target), and repeat queries against the same target hit
 * the cache instead of rebuilding.
 *
 * Observability: "serve.*" metrics (request/ok/error counters, active
 * gauge, per-op latency histograms, serve.index.* cache counters) and
 * "serve"-category spans per request. Every request is assigned a
 * sequence number and tagged (obs::RequestTag) for the duration of its
 * handling, so all pipeline spans beneath it carry a {"req": n} arg —
 * the whole pipeline of one request runs on one worker thread, which is
 * what makes the thread-local tag sufficient. `Op::Stats` returns the
 * full metrics snapshot as JSON; `Op::DumpTrace` writes the attached
 * trace session (typically a FlightRecorder ring) as a Chrome trace
 * file; requests slower than options.slow_request_seconds emit one
 * structured warn record with the per-stage wall breakdown.
 */
#ifndef DARWIN_SERVE_SERVER_H
#define DARWIN_SERVE_SERVER_H

#include <atomic>
#include <chrono>
#include <functional>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "fault/breaker.h"
#include "fault/cancel.h"
#include "fault/degrade.h"
#include "index/index_cache.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "seq/genome.h"
#include "serve/protocol.h"
#include "util/thread_pool.h"
#include "util/work_queue.h"

namespace darwin::serve {

/** Daemon configuration. */
struct ServerOptions {
    /** Concurrent align requests (worker threads). */
    std::size_t num_workers = 2;

    /** Bound on queued-but-unstarted requests (backpressure). */
    std::size_t queue_capacity = 64;

    /** Resident seed indexes (LRU beyond this). */
    std::size_t index_cache_capacity = 8;

    /** Budget applied to align requests that carry none. */
    fault::Budget default_budget;

    /**
     * Align requests slower than this emit a structured slow-request
     * log record with the per-stage breakdown; 0 disables.
     */
    double slow_request_seconds = 0.0;

    /**
     * Hold resident genomes 2-bit packed (seq/packed_io.h ingestion
     * with the `.2bit` sidecar cache), so WgaPipeline::run aligns over
     * packed storage — 4x less resident memory per cached genome,
     * bit-identical MAF output. Index cache
     * keys are unchanged (the packed digest equals the byte digest),
     * so persisted .dwi files keep working. Gapped presets only: an
     * ungapped (lastz) request against a packed server is a request
     * error.
     */
    bool packed_genomes = false;

    /**
     * Admission bound for align requests (--max-queue): an align
     * arriving while this many requests sit queued is shed with a
     * machine-readable "overloaded" error instead of blocking the
     * transport. 0 means the full queue_capacity. Control-plane ops
     * (ping/status/stats/shutdown) are never shed.
     */
    std::size_t max_queue = 0;

    /**
     * Cap on the summed cost estimate (query bp × strand passes) of
     * admitted-but-unfinished align requests (--max-inflight-bp);
     * 0 = unlimited. An align that would push the sum over the cap is
     * shed "overloaded" — unless nothing is in flight, so a single
     * oversized request is still served rather than rejected forever.
     */
    std::uint64_t max_inflight_bp = 0;

    /** Serve degraded instead of full-fidelity while the breaker is
     *  open (see fault/breaker.h). */
    bool breaker_enabled = true;
    fault::BreakerOptions breaker;

    /** Parameter transform for degraded serving; shared with the
     *  batch engine's degraded retry. */
    fault::DegradePolicy degrade;
};

/** The request-processing core; transports plug in around it. */
class Server {
  public:
    /** Callback receiving one serialized response line (no newline). */
    using ResponseSink = std::function<void(const std::string&)>;

    explicit Server(ServerOptions options,
                    obs::MetricsRegistry* metrics = nullptr);
    ~Server();

    Server(const Server&) = delete;
    Server& operator=(const Server&) = delete;

    /**
     * Decode and execute one request line synchronously on the calling
     * thread, returning the response line. Never throws — malformed
     * input and failed requests come back as status "error" responses.
     */
    std::string handle_line(const std::string& line);

    /**
     * Enqueue a request line for the worker pool; `sink` is invoked
     * with the response from a worker thread. Returns false when the
     * server is stopping (the caller should drop the connection).
     *
     * Admission control happens here, on the transport thread: an
     * align request that finds the admission queue at max_queue (or
     * the in-flight bp cap exceeded) is answered immediately through
     * `sink` with status "error", reason "overloaded", and a
     * retry_after_ms hint derived from the EWMA of observed service
     * time — submit still returns true (the line was consumed).
     * Malformed lines are likewise answered synchronously.
     */
    bool submit(std::string line, ResponseSink sink);

    /**
     * Read newline-delimited requests from `in` until EOF or a shutdown
     * request, writing responses to `out` in completion order. Blocking
     * transport used by tests and `darwin-wga-serve` without --socket
     * when the input is a pipe that closes. Both transports answer a
     * line longer than kMaxRequestLine with one bad_request and skip it.
     */
    void serve_stream(std::istream& in, std::ostream& out);

    /**
     * poll()-driven transport over raw descriptors: wakes every 200 ms
     * to notice fault::shutdown_requested() (the SIGTERM path, which
     * glibc's SA_RESTART would hide from blocking reads) and drains
     * in-flight work before returning. Returns when the peer closes,
     * a client sends shutdown, or the process shutdown flag rises.
     */
    void serve_fd(int in_fd, int out_fd);

    /** Cancel in-flight requests and refuse new ones. Idempotent. */
    void stop();

    /** True once stop() ran or a client sent shutdown. */
    bool
    stopping() const
    {
        return stopping_.load(std::memory_order_acquire);
    }

    obs::MetricsRegistry& metrics() { return *metrics_; }
    const index::IndexCache& index_cache() const { return index_cache_; }
    const ServerOptions& options() const { return options_; }

    /** Queued-but-unstarted requests right now (for samplers). */
    std::size_t queue_depth() const { return queue_.size(); }

    /**
     * Attach the trace session Op::DumpTrace dumps (a FlightRecorder
     * or a full TraceSession). Not owned; set before serving, cleared
     * (nullptr) only after the transport loops return. Falls back to
     * the globally installed session when unset.
     */
    void
    set_trace_session(obs::TraceSession* session)
    {
        trace_session_ = session;
    }

    /** Current breaker state (for /statusz and samplers). */
    fault::BreakerState breaker_state() const { return breaker_.state(); }

  private:
    struct QueueItem {
        Request request;  ///< parsed at admission
        /** The ProtocolError text of a line that did not parse; the
         *  worker answers it bad_request in completion order. */
        std::optional<std::string> bad_request;
        ResponseSink sink;
        std::chrono::steady_clock::time_point enqueued;
        std::uint64_t cost_bp = 0;
    };

    std::string run_request(const QueueItem& item,
                            double queue_wait_seconds);
    Response handle_request(const Request& request,
                            double queue_wait_seconds);
    Response do_align(const Request& request, double queue_wait_seconds);
    Response do_status(const Request& request);
    Response do_stats(const Request& request);
    Response do_dump_trace(const Request& request);
    std::shared_ptr<const seq::Genome> load_genome(
        const std::string& path);
    std::shared_ptr<const seed::SeedIndex> acquire_index(
        const Request& request, const seq::Genome& target,
        const std::string& seed_pattern, bool* cache_hit);
    void worker_loop();
    std::uint64_t estimate_cost_bp(const Request& request) const;
    std::int64_t retry_after_ms_hint();
    void note_service_seconds(double seconds);
    Response shed_response(const Request& request, const char* reason,
                           const std::string& message);
    void publish_breaker();

    const ServerOptions options_;
    obs::MetricsRegistry fallback_metrics_;
    obs::MetricsRegistry* metrics_;
    obs::TraceSession* trace_session_ = nullptr;
    index::IndexCache index_cache_;

    std::mutex genome_mutex_;
    std::unordered_map<std::string, std::shared_ptr<const seq::Genome>>
        genomes_;

    WorkQueue<QueueItem> queue_;
    ThreadPool workers_;

    std::mutex token_mutex_;
    std::unordered_set<std::shared_ptr<fault::CancelToken>> active_;
    std::atomic<std::size_t> request_seq_{0};
    std::atomic<std::size_t> active_requests_{0};
    std::atomic<bool> stopping_{false};

    fault::CircuitBreaker breaker_;
    std::atomic<std::uint64_t> inflight_bp_{0};
    std::atomic<std::uint64_t> breaker_trips_published_{0};
    mutable std::mutex ewma_mutex_;
    double ewma_service_seconds_ = 0.0;  // guarded by ewma_mutex_
};

}  // namespace darwin::serve

#endif  // DARWIN_SERVE_SERVER_H
