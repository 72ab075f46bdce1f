/**
 * @file
 * Structured, thread-safe logging for the Darwin-WGA library.
 *
 * Every message becomes a LogRecord (wall-clock timestamp, level, small
 * per-thread index, message text, optional key=value fields) and is fed
 * to the configured sinks. The default sink prints human-readable text
 * to stderr; a JSON-lines file sink can be added for machine ingestion
 * (`--log-json` in the CLIs).
 *
 * Severity model follows the conventions of simulator codebases:
 *  - fatal():  user-caused, unrecoverable condition (bad input/config);
 *              throws FatalError so callers and tests can intercept it.
 *  - panic():  internal invariant violation (a library bug); aborts.
 *  - warn()/inform(): advisory messages, never terminate.
 *
 * The threshold defaults to Info and can be set programmatically
 * (set_log_level) or from the DARWIN_LOG environment variable
 * (init_log_level_from_env; values debug|info|warn|error).
 */
#ifndef DARWIN_UTIL_LOGGING_H
#define DARWIN_UTIL_LOGGING_H

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace darwin {

/** Severity of a log record. */
enum class LogLevel { Debug, Info, Warn, Error };

/** Exception thrown by fatal() for user-caused unrecoverable errors. */
class FatalError : public std::runtime_error {
  public:
    explicit FatalError(const std::string& msg) : std::runtime_error(msg) {}
};

/** One key=value annotation attached to a record. */
struct LogField {
    std::string key;
    std::string value;
};

/** A fully formed log record as handed to the sinks. */
struct LogRecord {
    LogLevel level = LogLevel::Info;
    std::chrono::system_clock::time_point time;
    std::uint32_t thread_index = 0;
    std::string message;
    std::vector<LogField> fields;
};

/** Destination for log records. Sinks must be thread-safe. */
class LogSink {
  public:
    virtual ~LogSink() = default;
    virtual void write(const LogRecord& record) = 0;
};

/**
 * Human-readable text on stderr:
 *   [HH:MM:SS.mmm level T<tid>] message key=value ...
 * This is the default sink.
 */
class StderrTextSink : public LogSink {
  public:
    void write(const LogRecord& record) override;
};

/**
 * One JSON object per line, appended to a file:
 *   {"ts": "2026-08-07T12:34:56.789Z", "level": "info", "tid": 3,
 *    "msg": "...", "fields": {"pairs": "8"}}
 * Construction throws FatalError when the file cannot be opened.
 */
class JsonLinesSink : public LogSink {
  public:
    explicit JsonLinesSink(const std::string& path);
    ~JsonLinesSink() override;
    void write(const LogRecord& record) override;

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

/** Global log threshold; records below it are dropped. Defaults to Info. */
void set_log_level(LogLevel level);
LogLevel log_level();

/** Parse "debug"/"info"/"warn"/"error" (case-insensitive). */
std::optional<LogLevel> parse_log_level(const std::string& text);

/** The lowercase name of a level ("info"). */
const char* log_level_name(LogLevel level);

/**
 * Apply the DARWIN_LOG environment variable to the global threshold.
 * Unset or empty leaves the level unchanged; an unrecognized value
 * warns and leaves it unchanged. Called by the CLIs at startup.
 */
void init_log_level_from_env();

/**
 * Add a sink alongside the default stderr text sink. Sinks stay
 * registered for the process lifetime (or until clear_log_sinks).
 */
void add_log_sink(std::shared_ptr<LogSink> sink);

/** Remove every added sink, restoring stderr-only logging. */
void clear_log_sinks();

/**
 * Small, stable per-thread index (0 for the first thread that logs or
 * traces, 1 for the next, ...). Shared with obs/trace.h so log lines
 * and trace rows use the same thread identities.
 */
std::uint32_t current_thread_index();

/** Emit a record at the given level (thread-safe). */
void log_message(LogLevel level, const std::string& msg,
                 std::vector<LogField> fields = {});

/** Informational message, visible at Info level. */
void inform(const std::string& msg);
void inform(const std::string& msg, std::vector<LogField> fields);

/** Advisory about questionable but survivable conditions. */
void warn(const std::string& msg);
void warn(const std::string& msg, std::vector<LogField> fields);

/** Debug chatter, hidden unless the level is lowered to Debug. */
void debug(const std::string& msg);
void debug(const std::string& msg, std::vector<LogField> fields);

/** User-caused unrecoverable error: throws FatalError (without logging;
 *  the catcher decides whether the error is worth a message). */
[[noreturn]] void fatal(const std::string& msg);

/** Internal invariant violation: logs and aborts. */
[[noreturn]] void panic(const std::string& msg);

/**
 * Check an internal invariant; calls panic() with the message on failure.
 * Unlike assert(), stays active in release builds — the algorithms here
 * guard DP-table indexing with it.
 */
inline void
require(bool condition, const char* msg)
{
    if (!condition)
        panic(msg);
}

}  // namespace darwin

#endif  // DARWIN_UTIL_LOGGING_H
