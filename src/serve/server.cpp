#include "serve/server.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <filesystem>
#include <istream>
#include <ostream>
#include <sstream>
#include <string_view>
#include <utility>

#include <poll.h>
#include <unistd.h>

#include "batch/checkpoint.h"
#include "fault/fault_plan.h"
#include "index/index_io.h"
#include "obs/flight_recorder.h"
#include "obs/trace.h"
#include "seq/fasta.h"
#include "seq/packed_io.h"
#include "util/logging.h"
#include "util/strings.h"
#include "util/timer.h"
#include "wga/maf.h"
#include "wga/pipeline.h"

namespace darwin::serve {

namespace {

/** Completion tracker one serve loop uses to drain its own requests. */
struct Pending {
    std::mutex mutex;
    std::condition_variable cv;
    std::size_t count = 0;

    void
    add()
    {
        std::lock_guard lock(mutex);
        ++count;
    }

    void
    done()
    {
        {
            std::lock_guard lock(mutex);
            --count;
        }
        cv.notify_all();
    }

    void
    wait_empty()
    {
        std::unique_lock lock(mutex);
        cv.wait(lock, [this] { return count == 0; });
    }
};

/**
 * Cuts a transport's byte stream into request lines for Server::submit,
 * holding at most kMaxRequestLine bytes: an over-long line is answered
 * bad_request once and its bytes are dropped through the next newline.
 */
struct LineSplitter {
    Server& server;
    Pending& pending;
    Server::ResponseSink sink;
    std::string line{};
    bool dropping = false;  ///< inside an over-long line

    void
    feed(std::string_view bytes)
    {
        for (const char c : bytes) {
            if (c == '\n') {
                if (!std::exchange(dropping, false))
                    submit_line();
            } else if (!dropping && line.size() < kMaxRequestLine) {
                line.push_back(c);
            } else if (!dropping) {
                line.clear();
                dropping = true;
                pending.add();
                sink(serialize_response(error_response(
                    "", "bad_request",
                    strprintf("request line exceeds %zu bytes",
                              kMaxRequestLine))));
            }
        }
    }

    /** Submit the buffered line (also a final one without a newline);
     *  a refused line means the server is stopping. */
    void
    submit_line()
    {
        std::string next = std::exchange(line, {});
        if (trim(next).empty())
            return;
        pending.add();
        if (!server.submit(std::move(next), sink))
            pending.done();
    }
};

}  // namespace

Server::Server(ServerOptions options, obs::MetricsRegistry* metrics)
    : options_(options),
      metrics_(metrics != nullptr ? metrics : &fallback_metrics_),
      index_cache_(std::max<std::size_t>(options.index_cache_capacity, 1),
                   metrics_, "serve.index"),
      queue_(options.queue_capacity),
      workers_(std::max<std::size_t>(options.num_workers, 1)),
      breaker_(options.breaker)
{
    metrics_->gauge("serve.workers")
        .set(static_cast<std::int64_t>(workers_.size()));
    for (std::size_t w = 0; w < workers_.size(); ++w)
        workers_.submit([this] { worker_loop(); });
}

Server::~Server()
{
    stop();
    // ThreadPool's destructor joins the workers after they drain the
    // closed queue, so every accepted request still gets its response.
}

void
Server::worker_loop()
{
    while (auto item = queue_.pop()) {
        const double waited =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - item->enqueued)
                .count();
        metrics_->histogram("serve.queue.wait_seconds").observe(waited);
        std::string response;
        if (!item->bad_request && item->request.op == Op::Align &&
            item->request.deadline_ms > 0.0 &&
            waited * 1000.0 >= item->request.deadline_ms) {
            // The client's deadline expired while the request sat in
            // queue; running it now would complete uselessly.
            metrics_->counter("serve.admission.shed").add(1);
            metrics_->counter("serve.deadline.expired").add(1);
            response = serialize_response(shed_response(
                item->request, "deadline",
                strprintf("deadline_ms %.0f expired after %.0f ms in "
                          "queue",
                          item->request.deadline_ms, waited * 1000.0)));
        } else {
            response = run_request(*item, waited);
        }
        if (item->cost_bp > 0)
            inflight_bp_.fetch_sub(item->cost_bp,
                                   std::memory_order_acq_rel);
        // The respond probe models a failing response path: an
        // injected throw corrupts this response into a tagged error
        // line (still delivered, so transports drain); a stall delays
        // it.
        try {
            fault::poll("serve.respond");
        } catch (const std::exception& error) {
            metrics_->counter("serve.respond.errors").add(1);
            response = serialize_response(error_response(
                item->request.id, "injected", error.what()));
        }
        if (item->sink) {
            try {
                item->sink(response);
            } catch (...) {
                // A dead connection must not kill the worker.
            }
        }
    }
}

std::uint64_t
Server::estimate_cost_bp(const Request& request) const
{
    // Query bp (by file size — a fine proxy for FASTA) times the
    // number of strand passes the request will run. Unreadable paths
    // cost 0 here; the worker will answer with the real error.
    std::error_code ec;
    const auto size =
        std::filesystem::file_size(request.query, ec);
    if (ec)
        return 0;
    return static_cast<std::uint64_t>(size) *
           (request.both_strands ? 2u : 1u);
}

std::int64_t
Server::retry_after_ms_hint()
{
    double ewma;
    {
        std::lock_guard lock(ewma_mutex_);
        ewma = ewma_service_seconds_;
    }
    if (ewma <= 0.0)
        ewma = 0.1;  // no observation yet: suggest a modest backoff
    const double hint =
        ewma * static_cast<double>(queue_.size() + 1) * 1000.0;
    const auto clamped = static_cast<std::int64_t>(
        std::min(60000.0, std::max(1.0, std::ceil(hint))));
    metrics_->gauge("serve.admission.retry_after_ms").set(clamped);
    return clamped;
}

void
Server::note_service_seconds(double seconds)
{
    std::lock_guard lock(ewma_mutex_);
    ewma_service_seconds_ =
        ewma_service_seconds_ <= 0.0
            ? seconds
            : 0.8 * ewma_service_seconds_ + 0.2 * seconds;
}

Response
Server::shed_response(const Request& request, const char* reason,
                      const std::string& message)
{
    Response response = error_response(request.id, reason, message);
    response.add_int("retry_after_ms", retry_after_ms_hint());
    return response;
}

bool
Server::submit(std::string line, ResponseSink sink)
{
    if (stopping())
        return false;

    QueueItem item;
    item.sink = std::move(sink);
    item.enqueued = std::chrono::steady_clock::now();
    const auto answer = [&item](const Response& response) {
        if (item.sink) {
            try {
                item.sink(serialize_response(response));
            } catch (...) {
            }
        }
    };
    try {
        item.request = parse_request(line);
        fault::poll("serve.admit");
    } catch (const ProtocolError& error) {
        // The worker answers bad_request in completion order, exactly
        // as before admission control existed.
        item.bad_request = error.what();
    } catch (const std::exception& error) {
        answer(error_response(item.request.id, "injected", error.what()));
        return true;
    }

    if (!item.bad_request && item.request.op == Op::Align) {
        // Admission control: align work is shed, never queued blind.
        // Control-plane ops below skip this and use a blocking push so
        // status/shutdown always get through.
        const std::size_t bound =
            options_.max_queue > 0
                ? std::min(options_.max_queue, queue_.capacity())
                : queue_.capacity();
        if (queue_.size() >= bound) {
            metrics_->counter("serve.admission.shed").add(1);
            answer(shed_response(
                item.request, "overloaded",
                strprintf("admission queue is full (%zu queued, "
                          "max %zu)",
                          queue_.size(), bound)));
            return true;
        }
        item.cost_bp = estimate_cost_bp(item.request);
        if (options_.max_inflight_bp > 0) {
            const std::uint64_t inflight =
                inflight_bp_.load(std::memory_order_acquire);
            // A lone oversized request still runs; rejecting it
            // forever would turn a sizing mistake into an outage.
            if (inflight > 0 &&
                inflight + item.cost_bp > options_.max_inflight_bp) {
                metrics_->counter("serve.admission.shed").add(1);
                answer(shed_response(
                    item.request, "overloaded",
                    strprintf("in-flight work is at %llu bp of the "
                              "%llu bp cap",
                              static_cast<unsigned long long>(inflight),
                              static_cast<unsigned long long>(
                                  options_.max_inflight_bp))));
                return true;
            }
            inflight_bp_.fetch_add(item.cost_bp,
                                   std::memory_order_acq_rel);
        } else {
            item.cost_bp = 0;  // nothing to release
        }
        metrics_->counter("serve.admission.accepted").add(1);
    }
    const std::uint64_t charged = item.cost_bp;
    if (queue_.push(std::move(item)))
        return true;
    if (charged > 0)
        inflight_bp_.fetch_sub(charged, std::memory_order_acq_rel);
    return false;
}

void
Server::stop()
{
    // No first-call guard: a client shutdown op raises stopping_ without
    // closing the queue (its own response must still go out), so stop()
    // must always close it. Every step here is idempotent.
    stopping_.store(true, std::memory_order_release);
    queue_.close();
    std::lock_guard lock(token_mutex_);
    for (const auto& token : active_)
        token->cancel(fault::CancelReason::External);
}

std::string
Server::handle_line(const std::string& line)
{
    QueueItem item;
    try {
        item.request = parse_request(line);
    } catch (const ProtocolError& error) {
        item.bad_request = error.what();
    }
    return run_request(item, 0.0);
}

std::string
Server::run_request(const QueueItem& item, double queue_wait_seconds)
{
    Timer timer;
    metrics_->counter("serve.requests").add(1);
    metrics_->gauge("serve.active")
        .set(static_cast<std::int64_t>(
            active_requests_.fetch_add(1, std::memory_order_acq_rel) + 1));

    // One sequence number per request, installed as the thread-local
    // request tag: every span begun while handling — the op span here
    // and the pipeline's seed/filter/extend/chain spans beneath
    // do_align — carries a {"req": n} arg, and do_align reuses the same
    // number for its fault::ContextScope, so traces, logs, and
    // quarantine records all attribute by one id.
    const std::size_t seq_no =
        request_seq_.fetch_add(1, std::memory_order_relaxed);
    obs::RequestTag tag(static_cast<std::int64_t>(seq_no));

    bool ran_align = false;
    Response response;
    try {
        if (item.bad_request)
            throw ProtocolError(*item.bad_request);
        fault::poll("serve.dispatch");
        ran_align = item.request.op == Op::Align;
        obs::ScopedSpan span(op_name(item.request.op), "serve");
        response = handle_request(item.request, queue_wait_seconds);
    } catch (const ProtocolError& error) {
        response = error_response("", "bad_request", error.what());
    } catch (const fault::InjectedFault& error) {
        response = error_response(item.request.id, "injected", error.what());
    } catch (const fault::CancelledError& error) {
        response = error_response(
            "", fault::cancel_reason_name(error.reason()), error.what());
    } catch (const std::exception& error) {
        response = error_response("", "failed", error.what());
    }

    metrics_->counter(response.ok ? "serve.ok" : "serve.errors").add(1);
    metrics_->histogram("serve.request.seconds").observe(timer.seconds());
    if (ran_align)
        note_service_seconds(timer.seconds());
    metrics_->gauge("serve.active")
        .set(static_cast<std::int64_t>(
            active_requests_.fetch_sub(1, std::memory_order_acq_rel) - 1));
    return serialize_response(response);
}

Response
Server::handle_request(const Request& request, double queue_wait_seconds)
{
    try {
        switch (request.op) {
        case Op::Ping: {
            Response response;
            response.id = request.id;
            response.add_string("op", "ping");
            return response;
        }
        case Op::Status:
            return do_status(request);
        case Op::Stats:
            return do_stats(request);
        case Op::DumpTrace:
            return do_dump_trace(request);
        case Op::Align:
            return do_align(request, queue_wait_seconds);
        case Op::Shutdown: {
            inform("serve: shutdown requested by client");
            stopping_.store(true, std::memory_order_release);
            Response response;
            response.id = request.id;
            response.add_string("op", "shutdown");
            return response;
        }
        }
        return error_response(request.id, "bad_request", "unhandled op");
    } catch (const fault::CancelledError& error) {
        return error_response(request.id,
                              fault::cancel_reason_name(error.reason()),
                              error.what());
    } catch (const FatalError& error) {
        return error_response(request.id, "failed", error.what());
    } catch (const std::exception& error) {
        return error_response(request.id, "failed", error.what());
    }
}

Response
Server::do_status(const Request& request)
{
    Response response;
    response.id = request.id;
    const auto counter = [this](const char* name) -> std::int64_t {
        const obs::Counter* c = metrics_->find_counter(name);
        return c != nullptr ? static_cast<std::int64_t>(c->value()) : 0;
    };
    response.add_string("op", "status");
    response.add_int("requests", counter("serve.requests"));
    response.add_int("ok", counter("serve.ok"));
    response.add_int("errors", counter("serve.errors"));
    response.add_int("queue_depth",
                     static_cast<std::int64_t>(queue_.size()));
    response.add_int("workers",
                     static_cast<std::int64_t>(workers_.size()));
    response.add_int("index_cached",
                     static_cast<std::int64_t>(index_cache_.size()));
    response.add_int("index_hits",
                     static_cast<std::int64_t>(index_cache_.hits()));
    response.add_int("index_misses",
                     static_cast<std::int64_t>(index_cache_.misses()));
    response.add_int("genomes_cached", [this] {
        std::lock_guard lock(genome_mutex_);
        return static_cast<std::int64_t>(genomes_.size());
    }());
    response.add_string("breaker",
                        fault::breaker_state_name(breaker_.state()));
    response.add_int("shed", counter("serve.admission.shed"));
    return response;
}

Response
Server::do_stats(const Request& request)
{
    Response response;
    response.id = request.id;
    response.add_string("op", "stats");
    // The full registry as one consistent snapshot — the same object
    // GET /metrics renders as Prometheus text, embedded raw so clients
    // read it as structured JSON rather than a quoted blob.
    response.add_raw("metrics", metrics_->to_json_compact());
    return response;
}

Response
Server::do_dump_trace(const Request& request)
{
    obs::TraceSession* session = trace_session_ != nullptr
                                     ? trace_session_
                                     : obs::TraceSession::current();
    if (session == nullptr)
        return error_response(request.id, "bad_request",
                              "no trace session is installed (start the "
                              "daemon with --flight-events > 0 or "
                              "--trace-out)");

    const std::size_t events = session->snapshot().size();
    std::ostringstream json;
    session->write_chrome_json(json);
    batch::write_file_atomic(request.out, json.str());

    Response response;
    response.id = request.id;
    response.add_string("op", "dump_trace");
    response.add_string("out", request.out);
    response.add_int("events", static_cast<std::int64_t>(events));
    if (const auto* flight =
            dynamic_cast<const obs::FlightRecorder*>(session)) {
        response.add_int("recorded",
                         static_cast<std::int64_t>(flight->recorded()));
        response.add_int("dropped",
                         static_cast<std::int64_t>(flight->dropped()));
    }
    return response;
}

std::shared_ptr<const seq::Genome>
Server::load_genome(const std::string& path)
{
    std::lock_guard lock(genome_mutex_);
    if (const auto it = genomes_.find(path); it != genomes_.end())
        return it->second;
    auto genome = std::make_shared<seq::Genome>(
        options_.packed_genomes ? seq::read_genome_packed(path)
                                : seq::read_genome(path));
    // Materialize the flattened form under the lock: first-build is not
    // safe to race, and every request reads it.
    if (options_.packed_genomes)
        genome->flattened_packed();
    else
        genome->flattened();
    genomes_.emplace(path, genome);
    return genome;
}

std::shared_ptr<const seed::SeedIndex>
Server::acquire_index(const Request& request, const seq::Genome& target,
                      const std::string& seed_pattern, bool* cache_hit)
{
    // The packed digest equals the byte digest on equal bases, so a
    // packed server hits the same cache entries (and accepts the same
    // .dwi files) a byte server would.
    const std::uint64_t digest =
        target.packed()
            ? index::sequence_digest(target.flattened_packed())
            : index::sequence_digest(target.flattened());
    const index::IndexKey key{digest, seed_pattern,
                              seed::SeedIndex::kDefaultMaxBucket};
    bool built = false;
    auto index = index_cache_.acquire(
        key,
        [&]() -> std::shared_ptr<const seed::SeedIndex> {
            if (!request.index.empty()) {
                index::IndexInfo info;
                auto loaded = index::load_index(request.index, &info);
                if (info.sequence_digest != digest)
                    fatal(strprintf(
                        "%s: index was built from a different sequence "
                        "than %s (digest %016llx vs %016llx)",
                        request.index.c_str(), request.target.c_str(),
                        static_cast<unsigned long long>(
                            info.sequence_digest),
                        static_cast<unsigned long long>(digest)));
                if (info.pattern != seed_pattern)
                    fatal(strprintf(
                        "%s: index seed shape %s does not match the "
                        "requested preset's %s",
                        request.index.c_str(), info.pattern.c_str(),
                        seed_pattern.c_str()));
                if (info.max_bucket != seed::SeedIndex::kDefaultMaxBucket)
                    fatal(strprintf(
                        "%s: index max_bucket %u differs from the "
                        "server's %u",
                        request.index.c_str(), info.max_bucket,
                        seed::SeedIndex::kDefaultMaxBucket));
                return loaded;
            }
            if (target.packed())
                return std::make_shared<const seed::SeedIndex>(
                    target.flattened_packed(),
                    seed::SeedPattern(seed_pattern));
            return std::make_shared<const seed::SeedIndex>(
                target.flattened(), seed::SeedPattern(seed_pattern));
        },
        &built);
    if (cache_hit != nullptr)
        *cache_hit = !built;
    return index;
}

void
Server::publish_breaker()
{
    metrics_->gauge("serve.breaker.state")
        .set(static_cast<std::int64_t>(breaker_.state()));
    const std::uint64_t trips = breaker_.trips();
    const std::uint64_t published =
        breaker_trips_published_.exchange(trips,
                                          std::memory_order_acq_rel);
    if (trips > published)
        metrics_->counter("serve.breaker.trips").add(trips - published);
}

Response
Server::do_align(const Request& request, double queue_wait_seconds)
{
    Timer timer;
    wga::WgaParams params = request.preset == "lastz"
                                ? wga::WgaParams::lastz_defaults()
                                : wga::WgaParams::darwin_defaults();
    params.align_both_strands = request.both_strands;
    if (request.no_transitions)
        params.dsoft.transitions = false;

    // While the breaker is open every request runs in degraded mode —
    // the shared policy the batch engine's degraded retry uses — so
    // the daemon keeps answering under sustained budget pressure
    // instead of quarantining its way through the backlog.
    const bool degraded =
        options_.breaker_enabled && breaker_.should_degrade();
    if (degraded) {
        params = fault::apply_degrade(params, options_.degrade);
        metrics_->counter("serve.breaker.degraded_served").add(1);
    }
    publish_breaker();

    if (options_.packed_genomes &&
        params.filter_mode != wga::FilterMode::Gapped)
        fatal("align: this server holds genomes 2-bit packed, which "
              "supports gapped presets only — the ungapped (lastz) "
              "filter scans byte-backed sequences");

    const auto target = load_genome(request.target);
    const auto query = load_genome(request.query);

    bool cache_hit = false;
    const auto index =
        acquire_index(request, *target, params.seed_pattern, &cache_hit);

    // The request's own budget context: armed after the index acquire so
    // one request's overrun can never poison a shared index build. A
    // client deadline clamps the wall axis to the time it has left
    // after queueing — the cooperative poll in every stage then stops
    // work for an expired client instead of completing uselessly.
    fault::Budget budget = request.has_budget ? request.budget
                                              : options_.default_budget;
    if (request.deadline_ms > 0.0) {
        const double remaining =
            request.deadline_ms / 1000.0 - queue_wait_seconds;
        budget.wall_seconds = budget.wall_seconds > 0.0
                                  ? std::min(budget.wall_seconds, remaining)
                                  : remaining;
    }
    auto token = std::make_shared<fault::CancelToken>();
    token->arm(budget);
    {
        std::lock_guard lock(token_mutex_);
        if (stopping())
            fatal("server is shutting down");
        active_.insert(token);
    }
    // The request sequence number handle_line installed as the span
    // tag; reuse it for the fault context so every artifact of this
    // request — spans, quarantine records, slow-request log — shares
    // one id.
    const std::size_t seq_no =
        static_cast<std::size_t>(std::max<std::int64_t>(
            obs::RequestTag::current(), 0));

    // Full-fidelity outcomes feed the breaker's rolling window (and
    // resolve a half-open probe); degraded outcomes say nothing about
    // whether full fidelity is healthy, so they are not recorded.
    const auto record_outcome = [&](bool failure) {
        if (options_.breaker_enabled && !degraded) {
            breaker_.record(failure);
            publish_breaker();
        }
    };

    wga::WgaResult result;
    try {
        fault::ContextScope scope(token.get(), seq_no);
        const wga::WgaPipeline pipeline(params);
        result = pipeline.run(*target, *query,
                              {.metrics = metrics_, .index = index.get()});
    } catch (const fault::CancelledError& error) {
        if (error.reason() != fault::CancelReason::External)
            record_outcome(true);
        std::lock_guard lock(token_mutex_);
        active_.erase(token);
        throw;
    } catch (const fault::InjectedFault&) {
        record_outcome(true);
        std::lock_guard lock(token_mutex_);
        active_.erase(token);
        throw;
    } catch (...) {
        // Not a fidelity signal (bad file, OOM, ...): resolve a
        // half-open probe as success rather than wedging it.
        record_outcome(false);
        std::lock_guard lock(token_mutex_);
        active_.erase(token);
        throw;
    }
    record_outcome(false);
    {
        std::lock_guard lock(token_mutex_);
        active_.erase(token);
    }

    // Same writer call the one-shot CLI uses, so the bytes match it.
    Timer output_timer;
    wga::write_maf_file(request.out, result.alignments, *target, *query);
    const double output_seconds = output_timer.seconds();

    const double total_seconds = timer.seconds();
    if (options_.slow_request_seconds > 0.0 &&
        total_seconds >= options_.slow_request_seconds) {
        warn("serve: slow request",
             {{"req", strprintf("%zu", seq_no)},
              {"id", request.id},
              {"target", request.target},
              {"query", request.query},
              {"seconds", strprintf("%.3f", total_seconds)},
              {"seed_seconds", strprintf("%.3f", result.stats.seed_seconds)},
              {"filter_seconds",
               strprintf("%.3f", result.stats.filter_seconds)},
              {"extend_seconds",
               strprintf("%.3f", result.stats.extend_seconds)},
              {"chain_seconds",
               strprintf("%.3f", result.stats.chain_seconds)},
              {"output_seconds", strprintf("%.3f", output_seconds)},
              {"index_cache_hit", cache_hit ? "true" : "false"},
              {"budget_wall_seconds",
               strprintf("%.3f", budget.wall_seconds)},
              {"budget_max_cells",
               strprintf("%llu",
                         static_cast<unsigned long long>(budget.max_cells))},
              {"budget_max_heap_bytes",
               strprintf("%llu", static_cast<unsigned long long>(
                                     budget.max_heap_bytes))}});
        metrics_->counter("serve.slow_requests").add(1);
    }

    Response response;
    response.id = request.id;
    response.add_string("op", "align");
    response.add_int("alignments",
                     static_cast<std::int64_t>(result.alignments.size()));
    response.add_int("chains",
                     static_cast<std::int64_t>(result.chains.size()));
    response.add_int("matched_bases",
                     static_cast<std::int64_t>(
                         result.stats.extend.matched_bases));
    response.add_raw("index_cache_hit", cache_hit ? "true" : "false");
    response.add_raw("degraded", degraded ? "true" : "false");
    response.add_double("seconds", timer.seconds());
    response.add_string("out", request.out);
    return response;
}

void
Server::serve_stream(std::istream& in, std::ostream& out)
{
    std::mutex out_mutex;
    Pending pending;
    LineSplitter lines{*this, pending, [&](const std::string& resp) {
        {
            std::lock_guard lock(out_mutex);
            out << resp << '\n';
            out.flush();
        }
        pending.done();
    }};
    char c = 0;
    while (!stopping() && in.get(c))
        lines.feed({&c, 1});
    if (!stopping())
        lines.submit_line();
    pending.wait_empty();
}

void
Server::serve_fd(int in_fd, int out_fd)
{
    std::mutex out_mutex;
    Pending pending;
    const auto sink = [&pending, &out_mutex,
                       out_fd](const std::string& resp) {
        std::string payload = resp + "\n";
        {
            std::lock_guard lock(out_mutex);
            std::size_t off = 0;
            while (off < payload.size()) {
                const ssize_t n = ::write(out_fd, payload.data() + off,
                                          payload.size() - off);
                if (n < 0) {
                    if (errno == EINTR)
                        continue;
                    break;  // peer is gone; drop the response
                }
                off += static_cast<std::size_t>(n);
            }
        }
        pending.done();
    };

    LineSplitter lines{*this, pending, sink};
    while (!stopping()) {
        if (fault::shutdown_requested()) {
            inform("serve: shutdown signal; draining in-flight requests");
            stop();
            break;
        }
        struct pollfd pfd = {};
        pfd.fd = in_fd;
        pfd.events = POLLIN;
        const int ready = ::poll(&pfd, 1, 200);
        if (ready < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        if (ready == 0)
            continue;
        if ((pfd.revents & (POLLIN | POLLHUP)) == 0)
            break;
        char chunk[4096];
        const ssize_t n = ::read(in_fd, chunk, sizeof(chunk));
        if (n < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        if (n == 0)
            break;
        lines.feed({chunk, static_cast<std::size_t>(n)});
    }
    // A final unterminated line still counts once the stream is done.
    if (!stopping())
        lines.submit_line();
    pending.wait_empty();
}

}  // namespace darwin::serve
