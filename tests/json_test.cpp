/**
 * @file
 * Tests for util/json.h, the one JSON reader, and the seeded mutation
 * fuzzer (fuzz_driver.h) over the three readers built on it: serve requests
 * (parse_request), Chrome traces (parse_trace_events) and checkpoint
 * journal lines (parse_journal_line). The property is that every input
 * yields a value or that reader's tagged error (ProtocolError or
 * FatalError); any other exception fails the test, and a crash or a
 * sanitizer report fails the run.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "batch/checkpoint.h"
#include "obs/trace.h"
#include "serve/protocol.h"
#include "util/json.h"
#include "util/logging.h"
#include "util/rng.h"
#include "fuzz_driver.h"

namespace darwin {
namespace {

using json::Value;

TEST(Json, ParsesEveryKindWithMembersInFileOrder)
{
    const Value root = json::parse(
        " {\"b\": [1, -2.5e3, \"x\\u0041\\n\\/\"], "
        "\"a\": {\"t\": true, \"f\": false, \"n\": null}} ");
    ASSERT_EQ(root.kind, Value::Kind::Object);
    ASSERT_EQ(root.members.size(), 2u);
    EXPECT_EQ(root.members[0].first, "b");
    EXPECT_EQ(root.members[1].first, "a");
    const Value* list = root.find("b");
    ASSERT_NE(list, nullptr);
    ASSERT_EQ(list->items.size(), 3u);
    EXPECT_DOUBLE_EQ(list->items[1].number, -2500.0);
    EXPECT_EQ(list->items[2].string, "xA\n/");
    const Value* inner = root.find("a");
    ASSERT_NE(inner, nullptr);
    EXPECT_TRUE(inner->find("t")->boolean);
    EXPECT_EQ(inner->find("f")->kind, Value::Kind::Bool);
    EXPECT_EQ(inner->find("n")->kind, Value::Kind::Null);
    EXPECT_EQ(inner->find("missing"), nullptr);
    EXPECT_EQ(list->find("b"), nullptr);  // not an object
}

TEST(Json, ParseErrorsAreTaggedWithTheOffset)
{
    const auto offset_of = [](const std::string& text) -> std::size_t {
        try {
            json::parse(text);
        } catch (const json::ParseError& error) {
            EXPECT_EQ(std::string(error.what()).rfind("offset ", 0), 0u)
                << error.what();
            return error.offset;
        }
        ADD_FAILURE() << "parsed: " << text;
        return 0;
    };
    EXPECT_EQ(offset_of(""), 0u);
    EXPECT_EQ(offset_of("{\"a\": tru}"), 6u);
    EXPECT_EQ(offset_of("{\"a\": 1} x"), 9u);
    EXPECT_EQ(offset_of("[1, 2"), 5u);
    EXPECT_EQ(offset_of("\"open"), 5u);
    offset_of("\"tab\there\"");    // raw control byte
    offset_of("\"\\u0080\"");      // non-ASCII escape
    offset_of("\"\\uzzzz\"");
    offset_of("\"\\q\"");
    offset_of("1e999");
    offset_of("-");
    offset_of("1.2.3");
    offset_of("{\"a\" 1}");
    offset_of("{1: 2}");
}

TEST(Json, NestingIsCappedAtMaxDepth)
{
    const auto nested = [](int depth) {
        return std::string(depth, '[') + std::string(depth, ']');
    };
    EXPECT_NO_THROW(json::parse(nested(json::kMaxDepth)));
    EXPECT_THROW(json::parse(nested(json::kMaxDepth + 1)),
                 json::ParseError);
    EXPECT_THROW(json::parse(std::string(2'000'000, '[')),
                 json::ParseError);
    EXPECT_THROW(json::parse(std::string(2'000'000, '{')),
                 json::ParseError);
}

TEST(Json, AsIntegerRefusesFractionsSignsAndOverflow)
{
    const auto number = [](const std::string& text) {
        return json::parse(text);
    };
    EXPECT_EQ(json::as_integer<std::uint64_t>(number("0")), 0u);
    EXPECT_EQ(json::as_integer<std::uint64_t>(number("9007199254740992")),
              9007199254740992u);
    EXPECT_EQ(json::as_integer<std::uint64_t>(number("1e19")),
              10000000000000000000u);
    EXPECT_FALSE(json::as_integer<std::uint64_t>(number("-1")));
    EXPECT_FALSE(json::as_integer<std::uint64_t>(number("1.5")));
    EXPECT_FALSE(json::as_integer<std::uint64_t>(number("1e30")));
    EXPECT_FALSE(
        json::as_integer<std::uint64_t>(number("18446744073709551616")));
    EXPECT_FALSE(json::as_integer<std::uint64_t>(number("\"7\"")));
    EXPECT_EQ(json::as_integer<std::int64_t>(number("-42")), -42);
    EXPECT_FALSE(
        json::as_integer<std::int64_t>(number("9223372036854775808")));
    EXPECT_EQ(json::as_integer<std::uint32_t>(number("4294967295")),
              4294967295u);
    EXPECT_FALSE(json::as_integer<std::uint32_t>(number("4294967296")));
}

// ------------------------------------------------------------------
// Fixed probes: inputs the per-format readers mishandled before they
// shared util/json — untagged exceptions, a stack overflow, and a
// budget silently read as unlimited.

/** The trace the writer emits around one span with `ts` set to `ts`. */
std::string
trace_with_ts(const std::string& ts)
{
    return "{\"traceEvents\": [{\"ph\": \"X\", \"pid\": 1, \"tid\": 0, "
           "\"name\": \"seed\", \"cat\": \"wga\", \"ts\": " +
           ts + ", \"dur\": 5}]}";
}

TEST(JsonFuzz, ProbeTraceBadNumberAndEscapeAreFatalErrors)
{
    EXPECT_THROW(obs::parse_trace_events(trace_with_ts("-")), FatalError);
    EXPECT_THROW(obs::parse_trace_events(
                     "{\"traceEvents\": [{\"ph\": \"X\", "
                     "\"name\": \"\\uzzzz\"}]}"),
                 FatalError);
}

TEST(JsonFuzz, ProbeTraceOversizeNumberIsAFatalError)
{
    EXPECT_THROW(obs::parse_trace_events(trace_with_ts("1e999")),
                 FatalError);
    // In double range but not an int64 timestamp.
    EXPECT_THROW(obs::parse_trace_events(trace_with_ts("1e30")),
                 FatalError);
}

TEST(JsonFuzz, ProbeDeepNestingIsATaggedError)
{
    const std::string deep(2'000'000, '[');
    EXPECT_THROW(obs::parse_trace_events(deep), FatalError);
    EXPECT_THROW(serve::parse_request(deep), serve::ProtocolError);
    EXPECT_THROW(batch::parse_journal_line(deep), FatalError);
}

TEST(JsonFuzz, ProbeRequestBudgetOverflowIsAProtocolError)
{
    EXPECT_THROW(serve::parse_request(
                     "{\"op\": \"align\", \"target\": \"t\", "
                     "\"query\": \"q\", \"out\": \"o\", "
                     "\"budget\": {\"max_cells\": 1e30}}"),
                 serve::ProtocolError);
}

// ------------------------------------------------------------------
// Seeded mutation fuzzing.

/** The JSON-specific mutations: an oversize number over the next
 *  digit run, and a run of nested openers. */
const std::vector<test::Mutation> kJsonMutations = {
    [](std::string& text, Rng& rng) {
        static const char* const kHuge[] = {
            "1e999", "-1e999", "1e30", "18446744073709551616",
            "-9223372036854775809", "4294967296", "1e-400", "0.5",
            "123456789012345678901234567890"};
        std::size_t begin =
            text.find_first_of("0123456789", test::cut_point(text, rng));
        if (begin == std::string::npos)
            begin = test::cut_point(text, rng);
        std::size_t end = text.find_first_not_of("0123456789.eE+-", begin);
        if (end == std::string::npos)
            end = text.size();
        text.replace(begin, end - begin, kHuge[rng.uniform(9)]);
    },
    [](std::string& text, Rng& rng) {
        const std::size_t depth = 1 + rng.uniform(json::kMaxDepth * 4);
        const std::string open = rng.chance(0.5) ? "[" : "{\"k\": ";
        std::string prefix;
        for (std::size_t i = 0; i < depth; ++i)
            prefix += open;
        text.insert(test::cut_point(text, rng), prefix);
    },
};

constexpr int kIterations = 20000;

TEST(JsonFuzz, RequestsGiveARequestOrAProtocolError)
{
    const std::vector<std::string> seeds = {
        "{\"op\": \"align\", \"id\": \"3\", \"target\": \"t.fa\", "
        "\"query\": \"q.fa\", \"out\": \"out.maf\", \"index\": \"t.dwi\", "
        "\"preset\": \"darwin\", \"both_strands\": true, "
        "\"no_transitions\": false, \"deadline_ms\": 2500, "
        "\"budget\": {\"wall_seconds\": 30, \"max_cells\": 1000000, "
        "\"max_heap_bytes\": 4096}}",
        "{\"op\": \"dump_trace\", \"id\": 7, \"out\": \"f\\u002ejson\"}",
    };
    const std::size_t accepted = test::fuzz<serve::ProtocolError>(
        seeds, 0x5e12e, kIterations, kJsonMutations,
        [](const std::string& line) { serve::parse_request(line); });
    EXPECT_GT(accepted, 0u);
    EXPECT_LT(accepted, static_cast<std::size_t>(kIterations));
}

TEST(JsonFuzz, TracesGiveEventsOrAFatalError)
{
    obs::TraceSession session;
    {
        auto outer = obs::ManualSpan::begin(&session, "pipeline", "wga");
        auto inner = obs::ManualSpan::begin(&session, "seed", "wga");
        inner.arg("hits", 42);
        inner.arg("req", 3);
        inner.end();
        outer.end();
    }
    const std::vector<std::string> seeds = {session.to_json()};
    const std::size_t accepted = test::fuzz<FatalError>(
        seeds, 0x7ace, kIterations, kJsonMutations,
        [](const std::string& text) { obs::parse_trace_events(text); });
    EXPECT_GT(accepted, 0u);
    EXPECT_LT(accepted, static_cast<std::size_t>(kIterations));
}

TEST(JsonFuzz, JournalLinesGiveALineOrAFatalError)
{
    const std::vector<std::string> seeds = {
        "{\"journal\":\"darwin-wga-batch\",\"version\":1,"
        "\"config\":\"0123456789abcdef\"}",
        "{\"pair\":\"p0\",\"status\":\"clean\",\"output\":\"p0.maf\"}",
        "{\"pair\":\"p3\",\"status\":\"quarantined\",\"reason\":\"cells\"}",
    };
    const std::size_t accepted = test::fuzz<FatalError>(
        seeds, 0x10e5, kIterations, kJsonMutations,
        [](const std::string& line) { batch::parse_journal_line(line); });
    EXPECT_GT(accepted, 0u);
    EXPECT_LT(accepted, static_cast<std::size_t>(kIterations));
}

}  // namespace
}  // namespace darwin
