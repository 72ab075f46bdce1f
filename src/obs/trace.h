/**
 * @file
 * Stage tracing: a thread-safe span recorder that serializes to the
 * Chrome/Perfetto `trace_event` JSON format, so loading the file in
 * chrome://tracing or ui.perfetto.dev shows the seed -> filter -> extend
 * dataflow per worker thread over time.
 *
 * Usage has two forms:
 *  - RAII, for synchronous scopes:
 *        obs::ScopedSpan span("filter", "batch");
 *        span.arg("pair", pair_index);
 *  - explicit begin/end, for async stages whose lifetime does not match
 *    a C++ scope:
 *        auto span = obs::ManualSpan::begin("extend", "batch");
 *        ...
 *        span.end();
 *
 * Both record into the *installed* session (TraceSession::install) and
 * are no-ops when none is installed, so instrumentation can live in
 * library code unconditionally: when the user did not pass --trace-out,
 * the cost is one relaxed atomic load per span. Span timestamps are
 * microseconds from the session epoch; thread attribution uses the
 * process-wide small thread index (util/logging.h) that the structured
 * logger also reports, so log lines and trace rows correlate.
 */
#ifndef DARWIN_OBS_TRACE_H
#define DARWIN_OBS_TRACE_H

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <vector>

namespace darwin::obs {

/** One numeric span annotation (JSON "args" entry). */
struct TraceArg {
    std::string key;
    std::int64_t value = 0;
};

/** A completed span. */
struct TraceEvent {
    std::string name;      ///< e.g. "seed"
    std::string category;  ///< e.g. "batch", "wga"
    std::uint32_t tid = 0; ///< small per-thread index (begin thread)
    std::int64_t start_us = 0;
    std::int64_t duration_us = 0;
    std::vector<TraceArg> args;
};

/**
 * Span collector for one run. All methods are thread-safe.
 *
 * record() and snapshot() are virtual so alternative sinks can reuse
 * the span plumbing and the Chrome serialization: the base class keeps
 * every span for the whole run (the --trace-out whole-session dump),
 * while FlightRecorder (obs/flight_recorder.h) retains only a bounded
 * ring of the most recent spans for on-demand dumps from a long-lived
 * daemon.
 */
class TraceSession {
  public:
    /** The epoch (time zero of span timestamps) is construction time. */
    TraceSession();
    virtual ~TraceSession() = default;

    /** Microseconds elapsed since the session epoch. */
    std::int64_t now_us() const;

    /** Append a completed span. */
    virtual void record(TraceEvent event);

    /** Copy of the spans recorded so far, in record order. */
    virtual std::vector<TraceEvent> snapshot() const;

    /**
     * Serialize as `{"displayTimeUnit": "ms", "traceEvents": [...]}`:
     * one thread_name metadata record per thread seen, then every span
     * as a complete ("ph":"X") event with ts/dur in microseconds.
     */
    void write_chrome_json(std::ostream& out) const;
    std::string to_json() const;

    /**
     * Install the process-global session that ScopedSpan / ManualSpan
     * default to (nullptr uninstalls). Not reference-counted: the caller
     * keeps the session alive until after uninstalling.
     */
    static void install(TraceSession* session);
    static TraceSession* current();

  private:
    std::chrono::steady_clock::time_point epoch_;
    mutable std::mutex mutex_;
    std::vector<TraceEvent> events_;
};

/**
 * A span begun explicitly and ended with end() — possibly on another
 * thread (attribution stays with the begin thread). Movable, inert when
 * default-constructed or when no session is installed.
 */
class ManualSpan {
  public:
    ManualSpan() = default;
    ManualSpan(ManualSpan&& other) noexcept;
    ManualSpan& operator=(ManualSpan&& other) noexcept;
    ManualSpan(const ManualSpan&) = delete;
    ManualSpan& operator=(const ManualSpan&) = delete;

    /** Begin on the installed session (inert if none). */
    static ManualSpan begin(const char* name, const char* category);

    /** Begin on an explicit session (inert if nullptr). */
    static ManualSpan begin(TraceSession* session, const char* name,
                            const char* category);

    /** Attach a numeric annotation (no-op when inert). */
    void arg(const char* key, std::int64_t value);

    /** Record the span; further end() calls are no-ops. */
    void end();

    /** Ends the span if still open. */
    ~ManualSpan();

  private:
    TraceSession* session_ = nullptr;
    TraceEvent event_;
};

/** RAII span: begins at construction, records at scope exit. */
class ScopedSpan {
  public:
    ScopedSpan(const char* name, const char* category)
        : span_(ManualSpan::begin(name, category))
    {
    }

    ScopedSpan(TraceSession* session, const char* name, const char* category)
        : span_(ManualSpan::begin(session, name, category))
    {
    }

    void
    arg(const char* key, std::int64_t value)
    {
        span_.arg(key, value);
    }

  private:
    ManualSpan span_;
};

/**
 * Per-request attribution scope. While a RequestTag is alive on a
 * thread, every span *begun* on that thread automatically carries a
 * {"req": id} arg, so a request's seed/filter/extend spans can be
 * grouped in the trace without threading the id through every call
 * signature. Tags nest (the innermost wins) and are strictly
 * thread-local: the serve daemon runs a request's whole pipeline on
 * one worker thread, so one tag in the request handler covers every
 * stage span beneath it.
 */
class RequestTag {
  public:
    explicit RequestTag(std::int64_t request_id);
    ~RequestTag();
    RequestTag(const RequestTag&) = delete;
    RequestTag& operator=(const RequestTag&) = delete;

    /** Innermost active id on this thread, or -1 when untagged. */
    static std::int64_t current();

  private:
    std::int64_t previous_;
};

/**
 * Parse a trace produced by write_chrome_json back into spans (metadata
 * records are skipped). The text goes through util/json.h; malformed
 * JSON, an event that is not an object, or a tid/ts/dur/args value that
 * is not an integer in its field's range throws FatalError. Used by
 * tests and by external tooling that post-processes traces.
 */
std::vector<TraceEvent> parse_trace_events(const std::string& text);

}  // namespace darwin::obs

#endif  // DARWIN_OBS_TRACE_H
