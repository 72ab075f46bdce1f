/**
 * @file
 * `darwin-wga-serve` — long-lived alignment daemon over line-delimited
 * JSON (see src/serve/protocol.h for the wire format).
 *
 * Transports:
 *   default        requests on stdin, responses on stdout
 *   --socket PATH  AF_UNIX stream listener; one thread per connection,
 *                  all connections share the server's worker pool,
 *                  genome cache, and seed-index cache
 *
 *   darwin-wga-serve --workers 4 < requests.jsonl > responses.jsonl
 *   darwin-wga-serve --socket /tmp/darwin.sock &
 *
 * Shutdown: a client {"op": "shutdown"} or SIGTERM/SIGINT drains
 * in-flight requests (cancelling their budget tokens so nothing runs
 * long), flushes observability output, and exits 0. A second signal or
 * an expired grace period force-exits 130 via the watchdog.
 *
 * Live telemetry (all optional, all additive):
 *   --metrics-port N      loopback HTTP listener with GET /metrics
 *                         (Prometheus text), /healthz, /statusz
 *                         (0 picks an ephemeral port, logged at start)
 *   --flight-events N     always-on flight recorder retaining the last
 *                         N spans (default 8192; 0 disables; ignored
 *                         when --trace-out records the whole session)
 *   --flight-dump PATH    where SIGUSR1 writes the flight recorder as
 *                         a Chrome trace (clients can also request
 *                         {"op": "dump_trace", "out": ...})
 *   --slow-request-ms N   align requests slower than N ms emit one
 *                         structured log record with the per-stage
 *                         wall breakdown
 * plus a 1 Hz self-monitor publishing proc.rss_bytes / proc.cpu_* /
 * proc.fds / proc.threads / serve.queue_depth gauges.
 */
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "batch/checkpoint.h"
#include "fault/fault_plan.h"
#include "obs/exposition.h"
#include "obs/flight_recorder.h"
#include "obs/self_stats.h"
#include "obs_support.h"
#include "serve/http.h"
#include "serve/server.h"
#include "serve/socket_claim.h"
#include "signal_support.h"
#include "util/args.h"
#include "util/logging.h"
#include "util/strings.h"
#include "util/timer.h"

#ifndef DARWIN_VERSION
#define DARWIN_VERSION "unknown"
#endif

using namespace darwin;

namespace {

// SIGUSR1 requests a flight-recorder dump. The handler only bumps an
// atomic (the only async-signal-safe thing it may do); a 200 ms poller
// thread notices the bump and performs the actual file write.
std::atomic<unsigned> g_usr1_requests{0};

extern "C" void
on_sigusr1(int)
{
    g_usr1_requests.fetch_add(1, std::memory_order_relaxed);
}

/** Watches g_usr1_requests and dumps the trace session on each bump. */
class FlightDumpPoller {
  public:
    FlightDumpPoller(obs::TraceSession* session, std::string path)
        : session_(session), path_(std::move(path))
    {
        thread_ = std::thread([this] { loop(); });
    }

    ~FlightDumpPoller() { stop(); }

    void
    stop()
    {
        if (stopping_.exchange(true))
            return;
        if (thread_.joinable())
            thread_.join();
    }

  private:
    void
    loop()
    {
        unsigned seen = g_usr1_requests.load(std::memory_order_relaxed);
        while (!stopping_.load(std::memory_order_acquire)) {
            const unsigned now =
                g_usr1_requests.load(std::memory_order_relaxed);
            if (now != seen) {
                seen = now;
                dump();
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(200));
        }
    }

    void
    dump()
    {
        try {
            std::ostringstream json;
            session_->write_chrome_json(json);
            batch::write_file_atomic(path_, json.str());
            std::vector<LogField> fields{{"out", path_}};
            if (const auto* flight =
                    dynamic_cast<const obs::FlightRecorder*>(session_)) {
                fields.push_back(
                    {"recorded", strprintf("%llu",
                                           static_cast<unsigned long long>(
                                               flight->recorded()))});
                fields.push_back(
                    {"dropped", strprintf("%llu",
                                          static_cast<unsigned long long>(
                                              flight->dropped()))});
            }
            inform("serve: wrote flight-recorder trace", fields);
        } catch (const std::exception& error) {
            warn(strprintf("serve: flight dump failed: %s", error.what()));
        }
    }

    obs::TraceSession* session_;
    std::string path_;
    std::atomic<bool> stopping_{false};
    std::thread thread_;
};

int
serve_socket(serve::Server& server, const std::string& path)
{
    // claim_unix_socket refuses (SocketInUseError -> exit 2 in main) a
    // path a live daemon still answers on, and takes over only a stale
    // socket file left by a crashed or SIGKILLed predecessor.
    const int listener = serve::claim_unix_socket(path);
    inform(strprintf("serve: listening on %s", path.c_str()));

    std::vector<std::thread> connections;
    while (!server.stopping()) {
        if (fault::shutdown_requested()) {
            server.stop();
            break;
        }
        struct pollfd pfd = {};
        pfd.fd = listener;
        pfd.events = POLLIN;
        const int ready = ::poll(&pfd, 1, 200);
        if (ready < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        if (ready == 0)
            continue;
        const int conn = ::accept(listener, nullptr, nullptr);
        if (conn < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        connections.emplace_back([&server, conn] {
            // Each connection runs the shared server's poll transport;
            // requests from every connection funnel into one queue.
            server.serve_fd(conn, conn);
            ::close(conn);
        });
    }
    server.stop();
    for (auto& connection : connections)
        connection.join();
    ::close(listener);
    ::unlink(path.c_str());
    return 0;
}

}  // namespace

int
main(int argc, char** argv)
{
    ArgParser args("darwin-wga-serve: long-lived alignment service "
                   "speaking line-delimited JSON on stdin/stdout or a "
                   "Unix socket.");
    args.add_option("socket", "",
                    "serve on this AF_UNIX socket path instead of "
                    "stdin/stdout");
    args.add_option("workers", "2", "concurrent align requests");
    args.add_option("queue", "64", "queued-request bound (backpressure)");
    args.add_option("max-queue", "0",
                    "admission bound: align requests beyond this many "
                    "queued are shed with an 'overloaded' error instead "
                    "of blocking the transport (0 = use --queue; control "
                    "ops are never shed)");
    args.add_option("max-inflight-bp", "0",
                    "admission bound on the summed query bp (x2 for "
                    "--both-strands) of queued + running align requests "
                    "(0 = unlimited; a lone oversized request still "
                    "runs)");
    args.add_option("breaker-window", "32",
                    "circuit breaker: rolling full-fidelity outcomes "
                    "watched for quarantine/budget trips");
    args.add_option("breaker-trip-ratio", "0.5",
                    "circuit breaker: failure fraction of the window "
                    "that opens the breaker");
    args.add_option("breaker-cooldown", "5",
                    "circuit breaker: seconds served degraded before a "
                    "half-open full-fidelity probe");
    args.add_flag("no-breaker",
                  "disable circuit-breaker degradation (overload trips "
                  "then fail requests instead of degrading them)");
    args.add_option("index-cache", "8",
                    "resident seed indexes (LRU beyond this)");
    args.add_option("wall-budget", "0",
                    "default per-request wall seconds (0 = unlimited)");
    args.add_option("cells-budget", "0",
                    "default per-request DP-cell budget (0 = unlimited)");
    args.add_option("heap-budget", "0",
                    "default per-request heap bytes (0 = unlimited)");
    args.add_option("grace", "10",
                    "seconds a signalled shutdown may drain before the "
                    "watchdog force-exits");
    args.add_option("metrics-port", "-1",
                    "serve GET /metrics, /healthz, /statusz on this "
                    "loopback TCP port (0 = ephemeral, -1 = off)");
    args.add_option("flight-events", "8192",
                    "flight-recorder span ring size (0 = off; unused "
                    "when --trace-out records the full session)");
    args.add_option("flight-dump", "flight.trace.json",
                    "where SIGUSR1 dumps the flight recorder as a "
                    "Chrome trace");
    args.add_option("slow-request-ms", "0",
                    "log a structured slow-request record for align "
                    "requests slower than this (0 = off)");
    args.add_flag("packed",
                  "hold resident genomes 2-bit packed (.2bit sidecar "
                  "cache, 4x less memory per genome) and align over "
                  "packed storage; output is bit-identical. Gapped "
                  "(darwin) presets only");
    tools::add_obs_options(args);
    if (!args.parse(argc, argv))
        return 1;

    init_log_level_from_env();

    // A client that hangs up mid-response must not kill the daemon:
    // with SIGPIPE ignored, write() returns EPIPE and the response is
    // dropped by the serve loop's sink instead.
    std::signal(SIGPIPE, SIG_IGN);

    // $DARWIN_FAULT arms the daemon's probes (serve.admit,
    // serve.dispatch, serve.respond, index.mmap, ...) for chaos drills
    // like tools/overload_smoke.py; unset means an empty plan.
    static const fault::FaultPlan fault_plan = fault::FaultPlan::from_env();
    if (!fault_plan.empty()) {
        warn(strprintf("fault injection active: %zu entr%s",
                       fault_plan.num_entries(),
                       fault_plan.num_entries() == 1 ? "y" : "ies"));
        fault::install_fault_plan(&fault_plan);
    }

    try {
        serve::ServerOptions options;
        options.num_workers = args.get_uint("workers");
        options.queue_capacity = args.get_uint("queue");
        options.index_cache_capacity = args.get_uint("index-cache");
        options.default_budget.wall_seconds = args.get_double("wall-budget");
        options.default_budget.max_cells = args.get_uint("cells-budget");
        options.default_budget.max_heap_bytes = args.get_uint("heap-budget");
        options.slow_request_seconds =
            args.get_double("slow-request-ms") / 1000.0;
        options.packed_genomes = args.get_flag("packed");
        options.max_queue = args.get_uint("max-queue");
        options.max_inflight_bp = args.get_uint("max-inflight-bp");
        options.breaker_enabled = !args.get_flag("no-breaker");
        options.breaker.window = args.get_uint("breaker-window");
        options.breaker.trip_ratio = args.get_double("breaker-trip-ratio");
        options.breaker.cooldown_seconds = args.get_double("breaker-cooldown");

        const Timer uptime;
        obs::MetricsRegistry metrics;
        tools::ObsSetup obs_setup(args, metrics);

        // Trace sinks, by precedence: --trace-out (whole-session log,
        // installed by ObsSetup) wins; otherwise the bounded flight
        // recorder runs continuously so recent spans are dumpable at
        // any point of a weeks-long run.
        std::unique_ptr<obs::FlightRecorder> flight;
        const auto flight_events = args.get_uint("flight-events");
        if (obs::TraceSession::current() == nullptr && flight_events > 0) {
            flight = std::make_unique<obs::FlightRecorder>(flight_events);
            obs::TraceSession::install(flight.get());
        }

        serve::Server server(options, &metrics);
        if (flight)
            server.set_trace_session(flight.get());

        // SIGTERM/SIGINT is the daemon's normal stop: the serve loops
        // poll the shutdown flag, cancel in-flight budget tokens, and
        // drain — so a clean signal exit is 0, not 130.
        tools::SignalGuard signals([&] { obs_setup.finish(); },
                                   args.get_double("grace"));

        // SIGUSR1 -> flight dump, via the async-signal-safe counter.
        std::unique_ptr<FlightDumpPoller> dump_poller;
        if (obs::TraceSession::current() != nullptr) {
            std::signal(SIGUSR1, on_sigusr1);
            dump_poller = std::make_unique<FlightDumpPoller>(
                obs::TraceSession::current(), args.get("flight-dump"));
        }

        // 1 Hz process self-monitor; the extra hook publishes the live
        // request-queue depth next to the proc gauges.
        obs::SelfMonitor self_monitor(metrics, 1.0, [&metrics, &server] {
            metrics.gauge("serve.queue_depth")
                .set(static_cast<std::int64_t>(server.queue_depth()));
        });

        // Config fingerprint for /statusz: the output-affecting knobs,
        // canonically rendered — two daemons with the same fingerprint
        // serve byte-identical alignments.
        const std::string canonical_config = strprintf(
            "serve|wall=%.6g|cells=%llu|heap=%llu",
            options.default_budget.wall_seconds,
            static_cast<unsigned long long>(
                options.default_budget.max_cells),
            static_cast<unsigned long long>(
                options.default_budget.max_heap_bytes));
        const std::string fingerprint =
            strprintf("%016llx", static_cast<unsigned long long>(
                                     fnv1a64(canonical_config)));

        std::unique_ptr<serve::HttpMetricsServer> http;
        const int metrics_port = static_cast<int>(
            args.get_int("metrics-port"));
        if (metrics_port >= 0) {
            serve::HttpHandlers handlers;
            handlers.metrics_text = [&metrics] {
                return obs::to_prometheus(metrics);
            };
            handlers.healthy = [&server] { return !server.stopping(); };
            handlers.statusz_json = [&server, &uptime, fingerprint] {
                std::ostringstream out;
                out << "{\"version\": \"" << DARWIN_VERSION << "\""
                    << ", \"uptime_seconds\": "
                    << strprintf("%.3f", uptime.seconds())
                    << ", \"config_fingerprint\": \"" << fingerprint
                    << "\""
                    << ", \"pid\": " << ::getpid()
                    << ", \"workers\": " << server.options().num_workers
                    << ", \"queue_depth\": " << server.queue_depth()
                    << ", \"stopping\": "
                    << (server.stopping() ? "true" : "false") << "}";
                return out.str();
            };
            http = std::make_unique<serve::HttpMetricsServer>(
                metrics_port, std::move(handlers));
            // Parsed by tools/serve_smoke.py to find an ephemeral port.
            inform(strprintf(
                "serve: metrics listening on http://127.0.0.1:%d/metrics",
                http->port()));
        }

        const std::string socket_path = args.get("socket");
        if (socket_path.empty()) {
            inform("serve: reading requests from stdin");
            server.serve_fd(STDIN_FILENO, STDOUT_FILENO);
            server.stop();
        } else {
            serve_socket(server, socket_path);
        }
        if (http)
            http->stop();
        if (dump_poller)
            dump_poller->stop();
        self_monitor.stop();
        if (flight) {
            server.set_trace_session(nullptr);
            obs::TraceSession::install(nullptr);
        }
        obs_setup.finish();
        inform("serve: drained; exiting");
        return 0;
    } catch (const serve::SocketInUseError& error) {
        std::fprintf(stderr, "error: socket-in-use: %s\n", error.what());
        return 2;
    } catch (const FatalError& error) {
        std::fprintf(stderr, "error: %s\n", error.what());
        return 1;
    }
}
