#include "serve/protocol.h"

#include <algorithm>
#include <iterator>

#include "util/json.h"
#include "util/strings.h"

namespace darwin::serve {

namespace {

using json::Value;

/** Field `key` when present and not null; ProtocolError when it is not
 *  of `kind` (`what` names the kind). */
const Value*
field(const Value& object, const char* key, Value::Kind kind,
      const char* what)
{
    const Value* value = object.find(key);
    if (value == nullptr || value->kind == Value::Kind::Null)
        return nullptr;
    if (value->kind != kind)
        throw ProtocolError(strprintf("field '%s' must be %s", key, what));
    return value;
}

std::string
get_string(const Value& object, const char* key,
           const std::string& fallback = {})
{
    const Value* value = field(object, key, Value::Kind::String, "a string");
    return value != nullptr ? value->string : fallback;
}

bool
get_bool(const Value& object, const char* key, bool fallback)
{
    const Value* value = field(object, key, Value::Kind::Bool, "a boolean");
    return value != nullptr ? value->boolean : fallback;
}

double
get_number(const Value& object, const char* key, double fallback)
{
    const Value* value = field(object, key, Value::Kind::Number, "a number");
    return value != nullptr ? value->number : fallback;
}

std::uint64_t
get_count(const Value& object, const char* key)
{
    const Value* value = object.find(key);
    if (value == nullptr || value->kind == Value::Kind::Null)
        return 0;
    const auto count = json::as_integer<std::uint64_t>(*value);
    if (!count)
        throw ProtocolError(strprintf(
            "field '%s' must be a non-negative integer below 2^64", key));
    return *count;
}

}  // namespace

const char*
op_name(Op op)
{
    switch (op) {
    case Op::Ping: return "ping";
    case Op::Status: return "status";
    case Op::Stats: return "stats";
    case Op::DumpTrace: return "dump_trace";
    case Op::Align: return "align";
    case Op::Shutdown: return "shutdown";
    }
    return "?";
}

Request
parse_request(const std::string& line)
{
    Value root;
    try {
        root = json::parse(line);
    } catch (const json::ParseError& error) {
        throw ProtocolError(error.what());
    }

    Request request;
    // ids may arrive as strings or numbers; keep the rendered text.
    if (const Value* id = root.find("id")) {
        if (id->kind == Value::Kind::String)
            request.id = id->string;
        else if (id->kind == Value::Kind::Number)
            request.id = strprintf("%.17g", id->number);
        else if (id->kind != Value::Kind::Null)
            throw ProtocolError("field 'id' must be a string or number");
    }

    const std::string op = get_string(root, "op");
    if (op.empty())
        throw ProtocolError("missing 'op' field");
    const Op ops[] = {Op::Ping, Op::Status, Op::Stats,
                      Op::DumpTrace, Op::Align, Op::Shutdown};
    const Op* known = std::find_if(std::begin(ops), std::end(ops),
                                   [&op](Op o) { return op == op_name(o); });
    if (known == std::end(ops))
        throw ProtocolError(strprintf("unknown op '%s'", op.c_str()));
    request.op = *known;

    if (request.op == Op::DumpTrace) {
        request.out = get_string(root, "out");
        if (request.out.empty())
            throw ProtocolError("dump_trace requires 'out'");
    }

    if (request.op == Op::Align) {
        request.target = get_string(root, "target");
        request.query = get_string(root, "query");
        request.out = get_string(root, "out");
        request.index = get_string(root, "index");
        request.preset = get_string(root, "preset", "darwin");
        request.both_strands = get_bool(root, "both_strands", true);
        request.no_transitions = get_bool(root, "no_transitions", false);
        if (request.target.empty() || request.query.empty() ||
            request.out.empty())
            throw ProtocolError(
                "align requires 'target', 'query', and 'out'");
        if (request.preset != "darwin" && request.preset != "lastz")
            throw ProtocolError(strprintf("unknown preset '%s'",
                                          request.preset.c_str()));
        if (const Value* budget = root.find("budget")) {
            if (budget->kind != Value::Kind::Object)
                throw ProtocolError("field 'budget' must be an object");
            request.budget.wall_seconds =
                get_number(*budget, "wall_seconds", 0.0);
            request.budget.max_cells = get_count(*budget, "max_cells");
            request.budget.max_heap_bytes =
                get_count(*budget, "max_heap_bytes");
            if (request.budget.wall_seconds < 0.0)
                throw ProtocolError(
                    "budget wall_seconds must be non-negative");
            request.has_budget = true;
        }
        request.deadline_ms = get_number(root, "deadline_ms", 0.0);
        if (request.deadline_ms < 0.0)
            throw ProtocolError("deadline_ms must be non-negative");
    }
    return request;
}

void
Response::add_string(const std::string& key, const std::string& value)
{
    fields.emplace_back(key, std::make_pair(false, value));
}

void
Response::add_raw(const std::string& key, const std::string& value)
{
    fields.emplace_back(key, std::make_pair(true, value));
}

void
Response::add_int(const std::string& key, std::int64_t value)
{
    add_raw(key, strprintf("%lld", static_cast<long long>(value)));
}

void
Response::add_double(const std::string& key, double value)
{
    add_raw(key, strprintf("%.6g", value));
}

std::string
serialize_response(const Response& response)
{
    std::string out = "{";
    out += "\"id\": " + json_quote(response.id);
    out += ", \"status\": ";
    out += response.ok ? "\"ok\"" : "\"error\"";
    for (const auto& [key, value] : response.fields) {
        out += ", " + json_quote(key) + ": ";
        out += value.first ? value.second : json_quote(value.second);
    }
    out += "}";
    return out;
}

Response
error_response(const std::string& id, const std::string& reason,
               const std::string& message)
{
    Response response;
    response.id = id;
    response.ok = false;
    response.add_string("reason", reason);
    response.add_string("error", message);
    return response;
}

}  // namespace darwin::serve
