#include "util/logging.h"

#include <atomic>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <mutex>
#include <utility>

#include "util/strings.h"

namespace darwin {

namespace {

std::atomic<LogLevel> g_level{LogLevel::Info};

/** Added sinks (beyond the default stderr text sink). */
std::mutex g_sinks_mutex;
std::vector<std::shared_ptr<LogSink>> g_sinks;

/** Serializes the default stderr sink's writes. */
std::mutex g_stderr_mutex;

/** Format "HH:MM:SS.mmm" (UTC) plus optionally a full ISO-8601 date. */
std::string
format_time(std::chrono::system_clock::time_point when, bool full_iso)
{
    const auto since_epoch = when.time_since_epoch();
    const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                        since_epoch)
                        .count() %
                    1000;
    const std::time_t secs = std::chrono::system_clock::to_time_t(when);
    std::tm tm_utc{};
    gmtime_r(&secs, &tm_utc);
    char buf[40];
    if (full_iso) {
        std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%S", &tm_utc);
        return strprintf("%s.%03dZ", buf, static_cast<int>(ms));
    }
    std::strftime(buf, sizeof(buf), "%H:%M:%S", &tm_utc);
    return strprintf("%s.%03d", buf, static_cast<int>(ms));
}

}  // namespace

void
StderrTextSink::write(const LogRecord& record)
{
    std::string line = strprintf(
        "[%s %s T%u] %s", format_time(record.time, false).c_str(),
        log_level_name(record.level), record.thread_index,
        record.message.c_str());
    for (const LogField& field : record.fields)
        line += strprintf(" %s=%s", field.key.c_str(), field.value.c_str());
    std::lock_guard<std::mutex> lock(g_stderr_mutex);
    std::fprintf(stderr, "%s\n", line.c_str());
}

struct JsonLinesSink::Impl {
    std::mutex mutex;
    std::ofstream out;
};

JsonLinesSink::JsonLinesSink(const std::string& path)
    : impl_(std::make_unique<Impl>())
{
    impl_->out.open(path, std::ios::app);
    if (!impl_->out)
        throw FatalError("logging: cannot open JSON log file " + path);
}

JsonLinesSink::~JsonLinesSink() = default;

void
JsonLinesSink::write(const LogRecord& record)
{
    std::string line = strprintf(
        "{\"ts\": %s, \"level\": \"%s\", \"tid\": %u, \"msg\": %s",
        json_quote(format_time(record.time, true)).c_str(),
        log_level_name(record.level), record.thread_index,
        json_quote(record.message).c_str());
    if (!record.fields.empty()) {
        line += ", \"fields\": {";
        for (std::size_t i = 0; i < record.fields.size(); ++i) {
            line += (i == 0 ? "" : ", ");
            line += json_quote(record.fields[i].key);
            line += ": ";
            line += json_quote(record.fields[i].value);
        }
        line += "}";
    }
    line += "}";
    std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->out << line << '\n';
    impl_->out.flush();
}

void
set_log_level(LogLevel level)
{
    g_level.store(level, std::memory_order_relaxed);
}

LogLevel
log_level()
{
    return g_level.load(std::memory_order_relaxed);
}

std::optional<LogLevel>
parse_log_level(const std::string& text)
{
    std::string lower;
    lower.reserve(text.size());
    for (const char c : text)
        lower.push_back(static_cast<char>(
            std::tolower(static_cast<unsigned char>(c))));
    if (lower == "debug")
        return LogLevel::Debug;
    if (lower == "info")
        return LogLevel::Info;
    if (lower == "warn" || lower == "warning")
        return LogLevel::Warn;
    if (lower == "error")
        return LogLevel::Error;
    return std::nullopt;
}

const char*
log_level_name(LogLevel level)
{
    switch (level) {
      case LogLevel::Debug: return "debug";
      case LogLevel::Info:  return "info";
      case LogLevel::Warn:  return "warn";
      case LogLevel::Error: return "error";
    }
    return "?";
}

void
init_log_level_from_env()
{
    const char* value = std::getenv("DARWIN_LOG");
    if (value == nullptr || *value == '\0')
        return;
    if (const auto level = parse_log_level(value)) {
        set_log_level(*level);
    } else {
        warn(strprintf("DARWIN_LOG=%s is not a log level "
                       "(debug|info|warn|error); keeping %s",
                       value, log_level_name(log_level())));
    }
}

void
add_log_sink(std::shared_ptr<LogSink> sink)
{
    std::lock_guard<std::mutex> lock(g_sinks_mutex);
    g_sinks.push_back(std::move(sink));
}

void
clear_log_sinks()
{
    std::lock_guard<std::mutex> lock(g_sinks_mutex);
    g_sinks.clear();
}

std::uint32_t
current_thread_index()
{
    static std::atomic<std::uint32_t> next{0};
    thread_local const std::uint32_t index =
        next.fetch_add(1, std::memory_order_relaxed);
    return index;
}

void
log_message(LogLevel level, const std::string& msg,
            std::vector<LogField> fields)
{
    if (static_cast<int>(level) < static_cast<int>(log_level()))
        return;
    LogRecord record;
    record.level = level;
    record.time = std::chrono::system_clock::now();
    record.thread_index = current_thread_index();
    record.message = msg;
    record.fields = std::move(fields);

    static StderrTextSink stderr_sink;
    stderr_sink.write(record);
    std::vector<std::shared_ptr<LogSink>> sinks;
    {
        std::lock_guard<std::mutex> lock(g_sinks_mutex);
        sinks = g_sinks;
    }
    for (const auto& sink : sinks)
        sink->write(record);
}

void
inform(const std::string& msg)
{
    log_message(LogLevel::Info, msg);
}

void
inform(const std::string& msg, std::vector<LogField> fields)
{
    log_message(LogLevel::Info, msg, std::move(fields));
}

void
warn(const std::string& msg)
{
    log_message(LogLevel::Warn, msg);
}

void
warn(const std::string& msg, std::vector<LogField> fields)
{
    log_message(LogLevel::Warn, msg, std::move(fields));
}

void
debug(const std::string& msg)
{
    log_message(LogLevel::Debug, msg);
}

void
debug(const std::string& msg, std::vector<LogField> fields)
{
    log_message(LogLevel::Debug, msg, std::move(fields));
}

void
fatal(const std::string& msg)
{
    // No log line: a caller may catch the error as an expected outcome
    // (fsck, sidecar rebuilds, request validation), and every CLI main
    // prints "error: <what>" for one that escapes.
    throw FatalError(msg);
}

void
panic(const std::string& msg)
{
    log_message(LogLevel::Error, "panic: " + msg);
    std::abort();
}

}  // namespace darwin
