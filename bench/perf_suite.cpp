/**
 * @file
 * Perf trajectory suite: one command that captures the repo's headline
 * performance numbers at fixed sizes and seeds and writes them as a
 * single machine-readable report (`BENCH_10.json` at the repo root by
 * convention), so successive PRs leave a comparable speedup trail.
 *
 * Five sections:
 *   micro_kernels       the google-benchmark kernel microbenches, run as
 *                       a subprocess with --benchmark_format=json
 *   batch_throughput    serial-vs-batch-engine wall clock, run as a
 *                       subprocess at a fixed manifest (4 pairs x 40 kb)
 *   index_reuse         in-process: per-pair seeding-stage latency on a
 *                       10-query-one-target workload, rebuilding the
 *                       seed index per pair vs reusing one mmap-loaded
 *                       persistent index (the darwin-wga-serve hot path)
 *   telemetry_overhead  in-process: served-align latency with the PR-7
 *                       telemetry stack fully armed (flight recorder,
 *                       slow-request accounting, a 1 Hz Prometheus
 *                       scraper thread) vs telemetry off, on identical
 *                       requests against a shared persistent index
 *   overload            in-process: a one-worker server with a shallow
 *                       admission queue floods with ~4x the aligns it
 *                       can hold — serves some, sheds the rest with
 *                       retry_after_ms hints, and keeps accepted p99
 *                       bounded — then budget-doomed requests trip the
 *                       circuit breaker and the next align is served
 *                       degraded
 *
 * Three sections assert acceptance bars and make the suite exit nonzero
 * when missed, so CI can gate on them: index_reuse must cut per-pair
 * seeding latency by at least 5x, telemetry_overhead must stay under 2%
 * (and leave the served MAF byte-identical), and overload must answer
 * every flooded request (some shed with a positive retry hint) and
 * serve degraded after a breaker trip. Serve responses are read with
 * json::parse (util/json.h).
 *
 *   perf_suite --out BENCH_10.json
 */
#include "bench_common.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>

#include "index/index_io.h"
#include "obs/exposition.h"
#include "obs/flight_recorder.h"
#include "obs/trace.h"
#include "seed/dsoft.h"
#include "seed/seed_index.h"
#include "seq/fasta.h"
#include "serve/server.h"
#include "util/json.h"
#include "util/logging.h"
#include "util/timer.h"

using namespace darwin;

namespace {

/** Run one sibling bench binary and capture its stdout (JSON). */
std::string
run_capture(const std::string& command)
{
    std::fprintf(stderr, "perf_suite: running %s\n", command.c_str());
    FILE* pipe = ::popen(command.c_str(), "r");
    if (pipe == nullptr)
        fatal(strprintf("cannot spawn: %s", command.c_str()));
    std::string output;
    char chunk[4096];
    std::size_t n = 0;
    while ((n = std::fread(chunk, 1, sizeof(chunk), pipe)) > 0)
        output.append(chunk, n);
    const int status = ::pclose(pipe);
    if (status != 0)
        fatal(strprintf("command failed (status %d): %s", status,
                        command.c_str()));
    if (output.empty())
        fatal(strprintf("empty-output: %s exited 0 but wrote nothing "
                        "(crashed before its report?)",
                        command.c_str()));
    // Trim to the JSON object so the capture embeds cleanly.
    const std::size_t brace = output.find('{');
    if (brace == std::string::npos)
        fatal(strprintf("no JSON in output of: %s", command.c_str()));
    return output.substr(brace);
}

/** The fields of a serve response line the sections read. */
struct ServeReply {
    bool ok = false;             ///< "status": "ok"
    std::string reason;          ///< an error response's "reason"
    std::int64_t retry_after_ms = 0;
    bool degraded = false;
};

ServeReply
parse_reply(const std::string& response)
{
    json::Value value;
    try {
        value = json::parse(response);
    } catch (const json::ParseError& error) {
        fatal(strprintf("malformed serve response (%s): %s", error.what(),
                        response.c_str()));
    }
    const auto string_of = [&value](const char* key) {
        const json::Value* field = value.find(key);
        return field != nullptr && field->kind == json::Value::Kind::String
                   ? field->string
                   : std::string();
    };
    ServeReply reply;
    reply.ok = string_of("status") == "ok";
    reply.reason = string_of("reason");
    if (const json::Value* hint = value.find("retry_after_ms"))
        reply.retry_after_ms =
            json::as_integer<std::int64_t>(*hint).value_or(0);
    if (const json::Value* degraded = value.find("degraded"))
        reply.degraded = degraded->kind == json::Value::Kind::Bool &&
                         degraded->boolean;
    return reply;
}

struct IndexReuseReport {
    std::size_t target_bp = 0;
    std::size_t query_bp = 0;
    std::size_t queries = 0;
    double build_seconds = 0.0;
    double save_seconds = 0.0;
    double mmap_load_seconds = 0.0;
    std::uint64_t index_bytes = 0;
    double rebuild_total = 0.0;
    double cached_total = 0.0;
    bool identical_hits = true;

    double speedup() const
    {
        return cached_total > 0.0 ? rebuild_total / cached_total : 0.0;
    }
};

/**
 * The serve-daemon workload in miniature: ten queries against one
 * target, comparing seeding-stage latency (index acquisition + D-SOFT)
 * when every pair rebuilds the table vs when all pairs share one
 * mmap-loaded persistent index.
 */
IndexReuseReport
run_index_reuse(std::size_t target_bp, std::size_t query_bp,
                std::size_t num_queries, std::uint64_t seed)
{
    const auto params = wga::WgaParams::darwin_defaults();
    synth::AncestorConfig target_shape;
    target_shape.num_chromosomes = 1;
    target_shape.chromosome_length = target_bp;
    target_shape.exons_per_chromosome = target_bp / 2'500;
    synth::AncestorConfig query_shape = target_shape;
    query_shape.chromosome_length = query_bp;
    query_shape.exons_per_chromosome = query_bp / 2'500;

    // One reference target plus independently evolved query genomes —
    // the serve-daemon shape, where many (smaller) queries arrive for
    // one resident reference. Homology doesn't matter here: seeding
    // *latency* is what this measures, and lookups cost the same
    // either way.
    const auto spec = synth::paper_species_pairs().front();
    const auto target_pair =
        synth::make_species_pair(spec, target_shape, seed);
    std::vector<synth::SpeciesPair> pairs;
    for (std::size_t q = 0; q < num_queries; ++q)
        pairs.push_back(
            synth::make_species_pair(spec, query_shape, seed + 1 + q));
    const seq::Sequence& target = target_pair.target.genome.flattened();

    IndexReuseReport report;
    report.target_bp = target.size();
    report.query_bp = query_bp;
    report.queries = num_queries;

    const seed::SeedPattern pattern(params.seed_pattern);
    Timer timer;
    const seed::SeedIndex built(target, pattern);
    report.build_seconds = timer.seconds();

    const std::string dwi =
        (std::filesystem::temp_directory_path() / "perf_suite_target.dwi")
            .string();
    timer.reset();
    index::save_index(dwi, built, index::sequence_digest(target),
                      target.size());
    report.save_seconds = timer.seconds();
    report.index_bytes = std::filesystem::file_size(dwi);

    timer.reset();
    const auto mapped = index::load_index(dwi);
    report.mmap_load_seconds = timer.seconds();

    // Rebuild-per-pair: what the pipeline did before src/index/ — every
    // query pays the full table construction again.
    for (const auto& pair : pairs) {
        const seq::Sequence& query = pair.query.genome.flattened();
        Timer per_pair;
        const seed::SeedIndex fresh(target, pattern);
        seed::DsoftSeeder(fresh, params.dsoft).seed_all(query);
        report.rebuild_total += per_pair.seconds();
    }

    // Shared persistent index: acquisition is free after the first load.
    for (const auto& pair : pairs) {
        const seq::Sequence& query = pair.query.genome.flattened();
        Timer per_pair;
        const auto hits =
            seed::DsoftSeeder(*mapped, params.dsoft).seed_all(query);
        report.cached_total += per_pair.seconds();
        // The mapped index must seed bit-identically to a fresh build.
        const auto reference =
            seed::DsoftSeeder(built, params.dsoft).seed_all(query);
        if (hits != reference)
            report.identical_hits = false;
    }

    std::filesystem::remove(dwi);
    return report;
}

struct TelemetryOverheadReport {
    std::size_t requests = 0;      // timed aligns per arm
    double off_seconds = 0.0;      // best single-request latency
    double on_seconds = 0.0;
    bool identical_output = true;

    double overhead() const
    {
        return off_seconds > 0.0
                   ? (on_seconds - off_seconds) / off_seconds
                   : 0.0;
    }
};

/** Reads a whole file as bytes (empty when missing). */
std::string
slurp_file(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

/**
 * The cost of watching: identical align requests served in-process
 * against one persistent index, with no observers vs with the full
 * telemetry stack live — a flight recorder catching every span,
 * slow-request accounting enabled, and a thread rendering the
 * Prometheus exposition at 1 Hz the way an external scraper would.
 * The statistic is the best single-request latency over interleaved
 * passes of each arm: per-pass totals on a shared machine swing by
 * more than the instrumentation could ever cost, while the fastest
 * request an arm can produce is stable and still bounds the telemetry
 * tax from above (telemetry can only add work to a request).
 */
TelemetryOverheadReport
run_telemetry_overhead(std::size_t pair_bp, std::size_t num_requests,
                       std::uint64_t seed)
{
    synth::AncestorConfig shape;
    shape.num_chromosomes = 1;
    shape.chromosome_length = pair_bp;
    shape.exons_per_chromosome = pair_bp / 2'500;
    const auto pair = synth::make_species_pair(
        synth::paper_species_pairs().front(), shape, seed);

    const std::string dir =
        std::filesystem::temp_directory_path().string();
    const std::string target_fa = dir + "/perf_suite_telemetry_t.fa";
    const std::string query_fa = dir + "/perf_suite_telemetry_q.fa";
    const std::string dwi = dir + "/perf_suite_telemetry.dwi";
    seq::write_genome_file(target_fa, pair.target.genome);
    seq::write_genome_file(query_fa, pair.query.genome);
    {
        const auto params = wga::WgaParams::darwin_defaults();
        const seq::Sequence& target = pair.target.genome.flattened();
        const seed::SeedIndex index(target,
                                    seed::SeedPattern(params.seed_pattern));
        index::save_index(dwi, index, index::sequence_digest(target),
                          target.size());
    }

    // One pass: a fresh Server answers num_requests identical aligns
    // (plus one warm-up that faults in the index cache); returns the
    // wall clock of the timed loop.
    const auto run_pass = [&](bool telemetry, const std::string& out) {
        std::unique_ptr<obs::FlightRecorder> flight;
        serve::ServerOptions options;
        if (telemetry) {
            flight = std::make_unique<obs::FlightRecorder>(8192);
            obs::TraceSession::install(flight.get());
            // Threshold high enough that the accounting runs on every
            // request but the log line itself never fires.
            options.slow_request_seconds = 3600.0;
        }
        serve::Server server(options);
        if (telemetry)
            server.set_trace_session(flight.get());

        std::mutex scrape_mutex;
        std::condition_variable scrape_cv;
        bool scrape_stop = false;
        std::thread scraper;
        if (telemetry) {
            scraper = std::thread([&] {
                std::unique_lock<std::mutex> lock(scrape_mutex);
                while (!scrape_cv.wait_for(lock, std::chrono::seconds(1),
                                           [&] { return scrape_stop; }))
                    (void)obs::to_prometheus(server.metrics());
            });
        }

        const std::string line = strprintf(
            "{\"op\": \"align\", \"id\": \"bench\", \"target\": %s, "
            "\"query\": %s, \"out\": %s, \"index\": %s}",
            json_quote(target_fa).c_str(), json_quote(query_fa).c_str(),
            json_quote(out).c_str(), json_quote(dwi).c_str());
        (void)server.handle_line(line);  // warm-up; loads the index

        double best = 0.0;
        for (std::size_t r = 0; r < num_requests; ++r) {
            Timer timer;
            const std::string response = server.handle_line(line);
            const double seconds = timer.seconds();
            if (!parse_reply(response).ok)
                fatal(strprintf("telemetry_overhead align failed: %s",
                                response.c_str()));
            if (best == 0.0 || seconds < best)
                best = seconds;
        }
        std::fprintf(stderr,
                     "telemetry_overhead: pass %s best request %.4fs\n",
                     telemetry ? "on " : "off", best);

        if (telemetry) {
            {
                std::lock_guard<std::mutex> lock(scrape_mutex);
                scrape_stop = true;
            }
            scrape_cv.notify_all();
            scraper.join();
            server.set_trace_session(nullptr);
            obs::TraceSession::install(nullptr);
        }
        return best;
    };

    TelemetryOverheadReport report;
    report.requests = num_requests;
    const std::string out_off = dir + "/perf_suite_telemetry_off.maf";
    const std::string out_on = dir + "/perf_suite_telemetry_on.maf";
    (void)run_pass(false, out_off);  // global warm-up pass
    for (int round = 0; round < 5; ++round) {
        const double off = run_pass(false, out_off);
        const double on = run_pass(true, out_on);
        if (report.off_seconds == 0.0 || off < report.off_seconds)
            report.off_seconds = off;
        if (report.on_seconds == 0.0 || on < report.on_seconds)
            report.on_seconds = on;
    }

    const std::string off_bytes = slurp_file(out_off);
    report.identical_output =
        !off_bytes.empty() && off_bytes == slurp_file(out_on);

    for (const auto& path :
         {target_fa, query_fa, dwi, out_off, out_on})
        std::filesystem::remove(path);
    return report;
}

struct OverloadReport {
    std::size_t pair_bp = 0;
    std::size_t burst = 0;        ///< aligns submitted at once
    std::size_t accepted = 0;     ///< admitted and served
    std::size_t shed = 0;         ///< answered "overloaded"
    std::int64_t retry_after_ms = 0;  ///< hint on the first shed
    double p99_accepted_seconds = 0.0;
    std::uint64_t breaker_trips = 0;
    bool degraded_served = false;

    bool every_request_answered() const
    {
        return accepted + shed == burst;
    }
};

/**
 * Overload behavior under a flood: a one-worker server with a shallow
 * admission queue takes `burst` concurrent aligns — roughly 4x what it
 * can queue — and the section records how many were served vs shed,
 * the retry_after_ms hint sheds carried, and the p99 latency of the
 * *accepted* requests (the point of shedding is that admitted work
 * stays fast). A second, tiny phase trips the circuit breaker with
 * budget-doomed requests and confirms the next align is served
 * degraded. Gates: every request answered, at least one shed with a
 * positive hint, and the breaker trip leads to a degraded serve.
 */
OverloadReport
run_overload(std::size_t pair_bp, std::size_t burst, std::uint64_t seed)
{
    synth::AncestorConfig shape;
    shape.num_chromosomes = 1;
    shape.chromosome_length = pair_bp;
    shape.exons_per_chromosome = pair_bp / 2'500;
    const auto pair = synth::make_species_pair(
        synth::paper_species_pairs().front(), shape, seed);

    const std::string dir =
        std::filesystem::temp_directory_path().string();
    const std::string target_fa = dir + "/perf_suite_overload_t.fa";
    const std::string query_fa = dir + "/perf_suite_overload_q.fa";
    const std::string dwi = dir + "/perf_suite_overload.dwi";
    seq::write_genome_file(target_fa, pair.target.genome);
    seq::write_genome_file(query_fa, pair.query.genome);
    {
        const auto params = wga::WgaParams::darwin_defaults();
        const seq::Sequence& target = pair.target.genome.flattened();
        const seed::SeedIndex index(
            target, seed::SeedPattern(params.seed_pattern));
        index::save_index(dwi, index, index::sequence_digest(target),
                          target.size());
    }

    OverloadReport report;
    report.pair_bp = pair_bp;
    report.burst = burst;

    const auto align_line = [&](const std::string& id,
                                const std::string& out,
                                const std::string& extra) {
        return strprintf(
            "{\"op\": \"align\", \"id\": %s, \"target\": %s, "
            "\"query\": %s, \"out\": %s, \"index\": %s%s}",
            json_quote(id).c_str(), json_quote(target_fa).c_str(),
            json_quote(query_fa).c_str(), json_quote(out).c_str(),
            json_quote(dwi).c_str(), extra.c_str());
    };

    // Phase 1: the flood. One worker, room for three queued aligns.
    {
        serve::ServerOptions options;
        options.num_workers = 1;
        options.max_queue = 3;
        serve::Server server(options);
        // Warm the genome and index caches so flood latencies measure
        // alignment, not first-touch file I/O.
        (void)server.handle_line(
            align_line("warm", dir + "/perf_suite_overload_warm.maf", ""));

        std::mutex mutex;
        std::condition_variable cv;
        std::size_t answered = 0;
        std::vector<double> accepted_seconds;
        Timer flood_timer;
        for (std::size_t r = 0; r < burst; ++r) {
            const std::string out = strprintf(
                "%s/perf_suite_overload_%zu.maf", dir.c_str(), r);
            server.submit(
                align_line(strprintf("f%zu", r), out, ""),
                [&, submitted = flood_timer.seconds()](
                    const std::string& response) {
                    const ServeReply reply = parse_reply(response);
                    std::lock_guard<std::mutex> lock(mutex);
                    ++answered;
                    if (reply.reason == "overloaded") {
                        ++report.shed;
                        if (report.retry_after_ms == 0)
                            report.retry_after_ms = reply.retry_after_ms;
                    } else if (reply.ok) {
                        ++report.accepted;
                        accepted_seconds.push_back(
                            flood_timer.seconds() - submitted);
                    }
                    cv.notify_all();
                });
        }
        std::unique_lock<std::mutex> lock(mutex);
        cv.wait(lock, [&] { return answered == burst; });
        if (!accepted_seconds.empty()) {
            std::sort(accepted_seconds.begin(), accepted_seconds.end());
            const std::size_t at = std::min(
                accepted_seconds.size() - 1,
                static_cast<std::size_t>(
                    0.99 * static_cast<double>(accepted_seconds.size())));
            report.p99_accepted_seconds = accepted_seconds[at];
        }
        lock.unlock();
        server.stop();
    }

    // Phase 2: trip the breaker, then confirm degraded service.
    {
        serve::ServerOptions options;
        options.breaker.window = 4;
        options.breaker.min_samples = 2;
        options.breaker.trip_ratio = 0.5;
        options.breaker.cooldown_seconds = 3600.0;
        serve::Server server(options);
        for (int i = 0; i < 2; ++i)
            (void)server.handle_line(align_line(
                strprintf("doom%d", i),
                dir + "/perf_suite_overload_doom.maf",
                ", \"budget\": {\"max_cells\": 1}"));
        if (const auto* trips =
                server.metrics().find_counter("serve.breaker.trips"))
            report.breaker_trips = trips->value();
        const ServeReply reply = parse_reply(server.handle_line(align_line(
            "degraded", dir + "/perf_suite_overload_degraded.maf", "")));
        report.degraded_served = reply.ok && reply.degraded;
        server.stop();
    }

    std::filesystem::remove(target_fa);
    std::filesystem::remove(query_fa);
    std::filesystem::remove(dwi);
    for (const auto& entry : std::filesystem::directory_iterator(dir))
        if (entry.path().filename().string().rfind(
                "perf_suite_overload_", 0) == 0)
            std::filesystem::remove(entry.path());
    return report;
}

int
run_suite(const ArgParser& args, const char* argv0)
{
    // Sibling bench binaries live next to this one.
    const std::string bin_dir =
        std::filesystem::absolute(argv0).parent_path().string();

    std::string micro_json = "null";
    if (!args.get_flag("skip-micro")) {
        micro_json = run_capture(
            strprintf("'%s/micro_kernels' --benchmark_format=json "
                      "--benchmark_min_time=0.05 2>/dev/null",
                      bin_dir.c_str()));
    }

    const std::string batch_json = run_capture(strprintf(
        "'%s/batch_throughput' --threads %lld --size %lld "
        "--seeds-per-pair 1 --seed %lld 2>/dev/null",
        bin_dir.c_str(), static_cast<long long>(args.get_int("threads")),
        static_cast<long long>(args.get_int("batch-bp")),
        static_cast<long long>(args.get_int("seed"))));

    const IndexReuseReport reuse = run_index_reuse(
        args.get_uint("reuse-bp"), args.get_uint("reuse-query-bp"),
        args.get_uint("reuse-queries"), args.get_uint("seed"));
    const double per_pair_rebuild =
        reuse.rebuild_total / static_cast<double>(reuse.queries);
    const double per_pair_cached =
        reuse.cached_total / static_cast<double>(reuse.queries);
    std::fprintf(stderr,
                 "index_reuse: rebuild %.4fs/pair, cached %.4fs/pair "
                 "(%.1fx) over %zu queries x %zu bp\n",
                 per_pair_rebuild, per_pair_cached, reuse.speedup(),
                 reuse.queries, reuse.target_bp);

    const TelemetryOverheadReport telemetry = run_telemetry_overhead(
        args.get_uint("telemetry-bp"), args.get_uint("telemetry-requests"),
        args.get_uint("seed"));
    std::fprintf(stderr,
                 "telemetry_overhead: best request off %.4fs, on %.4fs "
                 "(%+.2f%%)\n",
                 telemetry.off_seconds, telemetry.on_seconds,
                 telemetry.overhead() * 100.0);

    const OverloadReport overload = run_overload(
        args.get_uint("overload-bp"), args.get_uint("overload-burst"),
        args.get_uint("seed"));
    std::fprintf(stderr,
                 "overload: burst %zu -> %zu served, %zu shed "
                 "(retry hint %lld ms), p99 accepted %.3fs; breaker "
                 "trips %llu, degraded served %s\n",
                 overload.burst, overload.accepted, overload.shed,
                 static_cast<long long>(overload.retry_after_ms),
                 overload.p99_accepted_seconds,
                 static_cast<unsigned long long>(overload.breaker_trips),
                 overload.degraded_served ? "yes" : "no");

    std::ostringstream json;
    json << "{\n"
         << "  " << bench::json_stamp() << ",\n"
         << "  \"suite\": \"perf_suite\",\n"
         << "  \"index_reuse\": {\n"
         << "    \"target_bp\": " << reuse.target_bp << ",\n"
         << "    \"query_bp\": " << reuse.query_bp << ",\n"
         << "    \"queries\": " << reuse.queries << ",\n"
         << "    \"index_bytes\": " << reuse.index_bytes << ",\n"
         << "    \"build_seconds\": "
         << strprintf("%.4f", reuse.build_seconds) << ",\n"
         << "    \"save_seconds\": "
         << strprintf("%.4f", reuse.save_seconds) << ",\n"
         << "    \"mmap_load_seconds\": "
         << strprintf("%.6f", reuse.mmap_load_seconds) << ",\n"
         << "    \"rebuild_seconds_per_pair\": "
         << strprintf("%.4f", per_pair_rebuild) << ",\n"
         << "    \"cached_seconds_per_pair\": "
         << strprintf("%.4f", per_pair_cached) << ",\n"
         << "    \"speedup\": " << strprintf("%.2f", reuse.speedup())
         << ",\n"
         << "    \"identical_hits\": "
         << (reuse.identical_hits ? "true" : "false") << ",\n"
         << "    \"meets_5x\": "
         << (reuse.speedup() >= 5.0 ? "true" : "false") << "\n"
         << "  },\n"
         << "  \"telemetry_overhead\": {\n"
         << "    \"requests_per_pass\": " << telemetry.requests << ",\n"
         << "    \"off_request_seconds\": "
         << strprintf("%.4f", telemetry.off_seconds) << ",\n"
         << "    \"on_request_seconds\": "
         << strprintf("%.4f", telemetry.on_seconds) << ",\n"
         << "    \"overhead_fraction\": "
         << strprintf("%.4f", telemetry.overhead()) << ",\n"
         << "    \"identical_output\": "
         << (telemetry.identical_output ? "true" : "false") << ",\n"
         << "    \"meets_2pct\": "
         << (telemetry.overhead() < 0.02 ? "true" : "false") << "\n"
         << "  },\n"
         << "  \"overload\": {\n"
         << "    \"pair_bp\": " << overload.pair_bp << ",\n"
         << "    \"burst\": " << overload.burst << ",\n"
         << "    \"accepted\": " << overload.accepted << ",\n"
         << "    \"shed\": " << overload.shed << ",\n"
         << "    \"retry_after_ms\": " << overload.retry_after_ms
         << ",\n"
         << "    \"p99_accepted_seconds\": "
         << strprintf("%.3f", overload.p99_accepted_seconds) << ",\n"
         << "    \"breaker_trips\": " << overload.breaker_trips << ",\n"
         << "    \"degraded_served\": "
         << (overload.degraded_served ? "true" : "false") << ",\n"
         << "    \"every_request_answered\": "
         << (overload.every_request_answered() ? "true" : "false")
         << "\n"
         << "  },\n"
         << "  \"batch_throughput\": " << batch_json << ",\n"
         << "  \"micro_kernels\": " << micro_json << "\n"
         << "}\n";

    std::ofstream out(args.get("out"));
    if (!out) {
        std::fprintf(stderr, "cannot write %s\n",
                     args.get("out").c_str());
        return 1;
    }
    out << json.str();
    std::fprintf(stderr, "perf_suite: wrote %s\n",
                 args.get("out").c_str());

    if (!reuse.identical_hits) {
        std::fprintf(stderr,
                     "ERROR: mapped index seeded differently from the "
                     "in-memory build\n");
        return 1;
    }
    if (reuse.speedup() < 5.0) {
        std::fprintf(stderr,
                     "ERROR: index reuse speedup %.2fx is below the 5x "
                     "bar\n",
                     reuse.speedup());
        return 1;
    }
    if (!telemetry.identical_output) {
        std::fprintf(stderr,
                     "ERROR: telemetry changed the served MAF bytes\n");
        return 1;
    }
    if (telemetry.overhead() >= 0.02) {
        std::fprintf(stderr,
                     "ERROR: telemetry overhead %.2f%% is above the 2%% "
                     "bar\n",
                     telemetry.overhead() * 100.0);
        return 1;
    }
    if (!overload.every_request_answered()) {
        std::fprintf(stderr,
                     "ERROR: overload flood leaked requests (%zu served "
                     "+ %zu shed of %zu submitted)\n",
                     overload.accepted, overload.shed, overload.burst);
        return 1;
    }
    if (overload.shed == 0 || overload.retry_after_ms < 1) {
        std::fprintf(stderr,
                     "ERROR: overload flood shed nothing (or sheds "
                     "carried no retry_after_ms hint): %zu shed, hint "
                     "%lld\n",
                     overload.shed,
                     static_cast<long long>(overload.retry_after_ms));
        return 1;
    }
    if (overload.breaker_trips == 0 || !overload.degraded_served) {
        std::fprintf(stderr,
                     "ERROR: breaker phase failed (trips %llu, degraded "
                     "served %s)\n",
                     static_cast<unsigned long long>(
                         overload.breaker_trips),
                     overload.degraded_served ? "yes" : "no");
        return 1;
    }
    return 0;
}

}  // namespace

int
main(int argc, char** argv)
{
    ArgParser args("perf_suite: run the fixed-workload benchmark set and "
                   "write one machine-readable JSON report "
                   "(BENCH_10.json).");
    args.add_option("out", "BENCH_10.json", "report path");
    args.add_option("threads", "4", "batch_throughput worker threads");
    args.add_option("batch-bp", "40000",
                    "batch_throughput chromosome length");
    args.add_option("reuse-bp", "60000",
                    "index_reuse target chromosome length");
    args.add_option("reuse-query-bp", "20000",
                    "index_reuse query chromosome length");
    args.add_option("reuse-queries", "10",
                    "index_reuse queries against the one target");
    args.add_option("telemetry-bp", "20000",
                    "telemetry_overhead chromosome length");
    args.add_option("telemetry-requests", "8",
                    "telemetry_overhead aligns per timed pass");
    args.add_option("overload-bp", "20000",
                    "overload chromosome length");
    args.add_option("overload-burst", "12",
                    "overload aligns submitted at once (vs a 3-deep "
                    "admission queue and one worker)");
    args.add_option("seed", "42", "workload generator seed");
    args.add_flag("skip-micro",
                  "skip the micro_kernels subprocess (fast iteration)");
    if (!args.parse(argc, argv))
        return 1;

    try {
        return run_suite(args, argv[0]);
    } catch (const FatalError& error) {
        std::fprintf(stderr, "error: %s\n", error.what());
        return 1;
    }
}
