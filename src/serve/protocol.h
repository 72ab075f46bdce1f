/**
 * @file
 * Wire protocol of `darwin-wga-serve`: line-delimited JSON.
 *
 * Each request is one JSON object on one line; the daemon answers with
 * exactly one JSON object line per request, in completion order (the
 * `id` echoes back so clients can match them up). Operations:
 *
 *   {"op": "ping", "id": "1"}
 *       -> {"id": "1", "status": "ok", "op": "ping"}
 *   {"op": "status", "id": "2"}
 *       -> {"id": "2", "status": "ok", ... queue/cache gauges ...}
 *   {"op": "stats", "id": "s"}
 *       -> {"id": "s", "status": "ok", "metrics": {... full registry
 *           snapshot: counters/gauges/histograms with buckets ...}}
 *   {"op": "dump_trace", "id": "t", "out": "flight.trace.json"}
 *       -> {"id": "t", "status": "ok", "out": ..., "events": N,
 *           "dropped": D} after writing the flight-recorder ring (or
 *           the full --trace-out session) as a Chrome trace file.
 *   {"op": "align", "id": "3", "target": "t.fa", "query": "q.fa",
 *    "out": "out.maf", "index": "t.dwi", "preset": "darwin",
 *    "both_strands": true, "no_transitions": false,
 *    "budget": {"wall_seconds": 30, "max_cells": 0, "max_heap_bytes": 0}}
 *       -> {"id": "3", "status": "ok", "alignments": N, "chains": M,
 *           "matched_bases": K, "seconds": S}
 *   {"op": "shutdown", "id": "4"}
 *       -> {"id": "4", "status": "ok"} and the daemon drains and exits.
 *
 * `index` is optional: when given, the persisted index is mmap-loaded
 * (and verified against the target's sequence digest) instead of
 * rebuilding the table. `out` is where the MAF is written — the daemon
 * moves alignment results by file, not over the wire, so responses stay
 * one line. Failures answer {"id": ..., "status": "error", "error":
 * "...", "reason": "..."} where `reason` is the budget axis for
 * overruns ("walltime" | "cells" | "heapbytes") or "bad_request" /
 * "failed". Two admission-control reasons carry extra fields:
 * "overloaded" (the admission queue or in-flight-bp cap is full; the
 * response carries a "retry_after_ms" hint from the observed service
 * time) and "deadline" (the optional "deadline_ms" request field
 * expired while the request waited in queue). Aligns served while the
 * daemon's circuit breaker is open carry "degraded": true and used the
 * narrowed fault/degrade.h parameters.
 *
 * Lines parse through util/json.h, the reader every JSON format in the
 * project shares. Unknown fields of any type are ignored (forward
 * compatibility); a known field holding the wrong type, or a count that
 * is not an integer in range, is a ProtocolError.
 */
#ifndef DARWIN_SERVE_PROTOCOL_H
#define DARWIN_SERVE_PROTOCOL_H

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "fault/cancel.h"

namespace darwin::serve {

/** Longest request line the transports buffer; requests are well under
 *  1 KiB. A longer line is answered "bad_request" and discarded through
 *  its newline, so a client that never sends one cannot grow memory. */
inline constexpr std::size_t kMaxRequestLine = std::size_t{1} << 20;

/** Malformed request line; the server answers status "error",
 *  reason "bad_request" instead of dying. */
class ProtocolError : public std::runtime_error {
  public:
    explicit ProtocolError(const std::string& msg)
        : std::runtime_error(msg)
    {
    }
};

/** Request operations. */
enum class Op { Ping, Status, Stats, DumpTrace, Align, Shutdown };

const char* op_name(Op op);

/** One decoded request line. */
struct Request {
    std::string id;  ///< echoed back verbatim; may be empty
    Op op = Op::Ping;

    // align-only fields (`out` is also the dump_trace destination)
    std::string target;        ///< target FASTA path (required)
    std::string query;         ///< query FASTA path (required)
    std::string out;           ///< output MAF / trace path (required)
    std::string index;         ///< optional persisted .dwi path
    std::string preset = "darwin";  ///< "darwin" | "lastz"
    bool both_strands = true;
    bool no_transitions = false;
    /** Per-request budget; unlimited axes default to the server's. */
    fault::Budget budget;
    bool has_budget = false;
    /**
     * Client deadline in milliseconds from admission (0 = none). The
     * server sheds the request outright ("deadline") if it expires
     * while queued, and otherwise clamps the wall budget to the time
     * remaining so work for an expired client stops instead of
     * completing uselessly.
     */
    double deadline_ms = 0.0;
};

/**
 * Parse one request line. Throws ProtocolError on malformed JSON (with
 * the json::ParseError's "offset N: ..." text), an unknown op, or a
 * value of the wrong type; unknown keys are ignored.
 */
Request parse_request(const std::string& line);

/**
 * Values for one response line; serialize_response renders them with
 * string values quoted and raw (pre-rendered) values inline.
 */
struct Response {
    std::string id;
    bool ok = true;
    /** Extra fields in insertion order: key -> (is_raw, text). Raw
     *  values are emitted verbatim (numbers, booleans); others are
     *  JSON-quoted. */
    std::vector<std::pair<std::string, std::pair<bool, std::string>>>
        fields;

    void add_string(const std::string& key, const std::string& value);
    void add_raw(const std::string& key, const std::string& value);
    void add_int(const std::string& key, std::int64_t value);
    void add_double(const std::string& key, double value);
};

/** Render one response as a single JSON line (no trailing newline). */
std::string serialize_response(const Response& response);

/** Shorthand for an error response. */
Response error_response(const std::string& id, const std::string& reason,
                        const std::string& message);

}  // namespace darwin::serve

#endif  // DARWIN_SERVE_PROTOCOL_H
