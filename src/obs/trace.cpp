#include "obs/trace.h"

#include <algorithm>
#include <atomic>
#include <optional>
#include <ostream>
#include <set>
#include <sstream>
#include <utility>

#include "util/json.h"
#include "util/logging.h"
#include "util/strings.h"

namespace darwin::obs {

namespace {

std::atomic<TraceSession*> g_session{nullptr};

thread_local std::int64_t t_request_id = -1;

}  // namespace

RequestTag::RequestTag(std::int64_t request_id) : previous_(t_request_id)
{
    t_request_id = request_id;
}

RequestTag::~RequestTag()
{
    t_request_id = previous_;
}

std::int64_t
RequestTag::current()
{
    return t_request_id;
}

TraceSession::TraceSession() : epoch_(std::chrono::steady_clock::now()) {}

std::int64_t
TraceSession::now_us() const
{
    const auto dt = std::chrono::steady_clock::now() - epoch_;
    return std::chrono::duration_cast<std::chrono::microseconds>(dt).count();
}

void
TraceSession::record(TraceEvent event)
{
    std::lock_guard<std::mutex> lock(mutex_);
    events_.push_back(std::move(event));
}

std::vector<TraceEvent>
TraceSession::snapshot() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return events_;
}

void
TraceSession::write_chrome_json(std::ostream& out) const
{
    const std::vector<TraceEvent> events = snapshot();
    std::set<std::uint32_t> tids;
    for (const TraceEvent& event : events)
        tids.insert(event.tid);

    out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
    bool first = true;
    for (const std::uint32_t tid : tids) {
        out << (first ? "" : ",") << "\n"
            << "{\"ph\": \"M\", \"pid\": 1, \"tid\": " << tid
            << ", \"name\": \"thread_name\", \"args\": {\"name\": "
            << json_quote(strprintf("thread-%u", tid)) << "}}";
        first = false;
    }
    for (const TraceEvent& event : events) {
        out << (first ? "" : ",") << "\n"
            << "{\"ph\": \"X\", \"pid\": 1, \"tid\": " << event.tid
            << ", \"name\": " << json_quote(event.name)
            << ", \"cat\": " << json_quote(event.category)
            << ", \"ts\": " << event.start_us
            << ", \"dur\": " << event.duration_us;
        if (!event.args.empty()) {
            out << ", \"args\": {";
            for (std::size_t i = 0; i < event.args.size(); ++i) {
                out << (i == 0 ? "" : ", ")
                    << json_quote(event.args[i].key) << ": "
                    << event.args[i].value;
            }
            out << "}";
        }
        out << "}";
        first = false;
    }
    out << "\n]}\n";
}

std::string
TraceSession::to_json() const
{
    std::ostringstream out;
    write_chrome_json(out);
    return out.str();
}

void
TraceSession::install(TraceSession* session)
{
    g_session.store(session, std::memory_order_release);
}

TraceSession*
TraceSession::current()
{
    return g_session.load(std::memory_order_acquire);
}

ManualSpan::ManualSpan(ManualSpan&& other) noexcept
    : session_(other.session_), event_(std::move(other.event_))
{
    other.session_ = nullptr;
}

ManualSpan&
ManualSpan::operator=(ManualSpan&& other) noexcept
{
    if (this != &other) {
        end();
        session_ = other.session_;
        event_ = std::move(other.event_);
        other.session_ = nullptr;
    }
    return *this;
}

ManualSpan
ManualSpan::begin(const char* name, const char* category)
{
    return begin(TraceSession::current(), name, category);
}

ManualSpan
ManualSpan::begin(TraceSession* session, const char* name,
                  const char* category)
{
    ManualSpan span;
    if (session == nullptr)
        return span;
    span.session_ = session;
    span.event_.name = name;
    span.event_.category = category;
    span.event_.tid = current_thread_index();
    span.event_.start_us = session->now_us();
    if (t_request_id >= 0)
        span.event_.args.push_back(TraceArg{"req", t_request_id});
    return span;
}

void
ManualSpan::arg(const char* key, std::int64_t value)
{
    if (session_ != nullptr)
        event_.args.push_back(TraceArg{key, value});
}

void
ManualSpan::end()
{
    if (session_ == nullptr)
        return;
    event_.duration_us = session_->now_us() - event_.start_us;
    session_->record(std::move(event_));
    session_ = nullptr;
    event_ = TraceEvent{};
}

ManualSpan::~ManualSpan()
{
    end();
}

namespace {

/** A trace number as T; FatalError when it is not an integer in range. */
template <class T>
T
trace_integer(const json::Value& value, const std::string& field)
{
    const std::optional<T> number = json::as_integer<T>(value);
    if (!number)
        fatal(strprintf("trace JSON: '%s' is not an integer in range",
                        field.c_str()));
    return *number;
}

}  // namespace

std::vector<TraceEvent>
parse_trace_events(const std::string& text)
{
    json::Value root;
    try {
        root = json::parse(text);
    } catch (const json::ParseError& error) {
        fatal(strprintf("trace JSON parse error at %s", error.what()));
    }
    const json::Value* events = root.find("traceEvents");
    if (events == nullptr || events->kind != json::Value::Kind::Array)
        fatal("trace JSON: missing traceEvents array");

    std::vector<TraceEvent> out;
    for (const json::Value& item : events->items) {
        if (item.kind != json::Value::Kind::Object)
            fatal("trace JSON: event is not an object");
        const json::Value* ph = item.find("ph");
        if (ph == nullptr || ph->string != "X")
            continue;  // metadata or non-span record
        TraceEvent event;
        for (const auto& [key, value] : item.members) {
            if (key == "name")
                event.name = value.string;
            else if (key == "cat")
                event.category = value.string;
            else if (key == "tid")
                event.tid = trace_integer<std::uint32_t>(value, key);
            else if (key == "ts")
                event.start_us = trace_integer<std::int64_t>(value, key);
            else if (key == "dur")
                event.duration_us = trace_integer<std::int64_t>(value, key);
            else if (key == "args")
                for (const auto& [name, arg] : value.members)
                    event.args.push_back(TraceArg{
                        name, trace_integer<std::int64_t>(arg, name)});
        }
        out.push_back(std::move(event));
    }
    return out;
}

}  // namespace darwin::obs
