/**
 * @file
 * Overload-safety tests for the serve daemon (src/serve/, src/fault/):
 * admission control (queue and in-flight-bp sheds carry machine-
 * readable `overloaded` errors with a retry_after_ms hint), deadline
 * propagation (expired-in-queue requests are shed without running;
 * live ones have the wall budget clamped), the circuit breaker state
 * machine (unit-level with fake time, and end-to-end: an open breaker
 * serves degraded output byte-identical to an apply_degrade'd serial
 * run), and safe AF_UNIX socket claiming (a live daemon's socket is
 * refused; a stale one is taken over).
 */
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <condition_variable>
#include <cstring>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "fault/breaker.h"
#include "fault/degrade.h"
#include "fault/fault_plan.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/socket_claim.h"
#include "seq/fasta.h"
#include "synth/species.h"
#include "util/strings.h"
#include "wga/maf.h"
#include "wga/pipeline.h"
#include "scratch_dir.h"

namespace darwin::serve {
namespace {

using fault::BreakerOptions;
using fault::BreakerState;
using fault::CircuitBreaker;

using Clock = CircuitBreaker::Clock;

// ---------------------------------------------------------------------
// CircuitBreaker unit tests: fake time, no sleeping.

TEST(Breaker, StartsClosedAndTripsAtRatio)
{
    BreakerOptions options;
    options.window = 4;
    options.min_samples = 4;
    options.trip_ratio = 0.5;
    CircuitBreaker breaker(options);
    const auto t0 = Clock::now();

    EXPECT_EQ(breaker.state(), BreakerState::Closed);
    EXPECT_FALSE(breaker.should_degrade(t0));

    // Three samples: below min_samples, never trips even at 100%.
    breaker.record(true, t0);
    breaker.record(true, t0);
    breaker.record(true, t0);
    EXPECT_EQ(breaker.state(), BreakerState::Closed);

    // Fourth sample reaches min_samples with 4/4 failures -> Open.
    breaker.record(true, t0);
    EXPECT_EQ(breaker.state(), BreakerState::Open);
    EXPECT_EQ(breaker.trips(), 1u);
    EXPECT_TRUE(breaker.should_degrade(t0));
}

TEST(Breaker, HealthyWindowNeverTrips)
{
    BreakerOptions options;
    options.window = 8;
    options.min_samples = 4;
    options.trip_ratio = 0.5;
    CircuitBreaker breaker(options);
    const auto t0 = Clock::now();
    // 3 failures in a window of 8 stays under the 0.5 ratio.
    for (int i = 0; i < 5; ++i)
        breaker.record(false, t0);
    for (int i = 0; i < 3; ++i)
        breaker.record(true, t0);
    EXPECT_EQ(breaker.state(), BreakerState::Closed);
    EXPECT_EQ(breaker.trips(), 0u);
}

TEST(Breaker, WindowEvictsOldOutcomes)
{
    BreakerOptions options;
    options.window = 4;
    options.min_samples = 4;
    options.trip_ratio = 0.75;
    CircuitBreaker breaker(options);
    const auto t0 = Clock::now();
    // Early failures scroll out of the window as successes arrive, so
    // sparse failures never trip...
    breaker.record(true, t0);
    breaker.record(true, t0);
    breaker.record(false, t0);
    breaker.record(false, t0);  // window [f,f,s,s]: 0.5 < 0.75
    breaker.record(false, t0);
    breaker.record(false, t0);  // window [s,s,s,s]
    breaker.record(true, t0);
    breaker.record(true, t0);  // window [s,s,f,f]: 0.5 < 0.75
    EXPECT_EQ(breaker.state(), BreakerState::Closed);
    EXPECT_EQ(breaker.trips(), 0u);
    // ...and the ratio is judged over the window alone: one more
    // failure makes the last four [s,f,f,f] = 0.75 and trips, even
    // though the all-time ratio (5/9) is still below the threshold.
    breaker.record(true, t0);
    EXPECT_EQ(breaker.state(), BreakerState::Open);
    EXPECT_EQ(breaker.trips(), 1u);
}

TEST(Breaker, CooldownHandsOutExactlyOneHalfOpenProbe)
{
    BreakerOptions options;
    options.window = 2;
    options.min_samples = 2;
    options.trip_ratio = 0.5;
    options.cooldown_seconds = 10.0;
    CircuitBreaker breaker(options);
    const auto t0 = Clock::now();

    breaker.record(true, t0);
    breaker.record(true, t0);
    ASSERT_EQ(breaker.state(), BreakerState::Open);

    // Mid-cooldown: everything degrades.
    const auto t_mid = t0 + std::chrono::seconds(5);
    EXPECT_TRUE(breaker.should_degrade(t_mid));
    EXPECT_TRUE(breaker.should_degrade(t_mid));

    // Cooldown elapsed: exactly one caller gets the full-fidelity
    // probe; everyone else keeps degrading until it resolves.
    const auto t_after = t0 + std::chrono::seconds(11);
    EXPECT_FALSE(breaker.should_degrade(t_after));
    EXPECT_EQ(breaker.state(), BreakerState::HalfOpen);
    EXPECT_TRUE(breaker.should_degrade(t_after));
    EXPECT_TRUE(breaker.should_degrade(t_after));
}

TEST(Breaker, HalfOpenProbeOutcomeClosesOrReopens)
{
    BreakerOptions options;
    options.window = 2;
    options.min_samples = 2;
    options.trip_ratio = 0.5;
    options.cooldown_seconds = 1.0;
    CircuitBreaker breaker(options);
    const auto t0 = Clock::now();

    breaker.record(true, t0);
    breaker.record(true, t0);
    ASSERT_EQ(breaker.state(), BreakerState::Open);
    ASSERT_EQ(breaker.trips(), 1u);

    // Probe fails -> re-open (a second trip), another full cooldown.
    auto t = t0 + std::chrono::seconds(2);
    EXPECT_FALSE(breaker.should_degrade(t));
    breaker.record(true, t);
    EXPECT_EQ(breaker.state(), BreakerState::Open);
    EXPECT_EQ(breaker.trips(), 2u);
    EXPECT_TRUE(breaker.should_degrade(t));

    // Next probe succeeds -> Closed, window reset (old failures must
    // not instantly re-trip).
    t += std::chrono::seconds(2);
    EXPECT_FALSE(breaker.should_degrade(t));
    breaker.record(false, t);
    EXPECT_EQ(breaker.state(), BreakerState::Closed);
    EXPECT_FALSE(breaker.should_degrade(t));
    breaker.record(true, t);  // 1 failure, below min_samples
    EXPECT_EQ(breaker.state(), BreakerState::Closed);
}

// ---------------------------------------------------------------------
// Server admission / deadline / breaker integration. Reuses the same
// synthetic-pair fixture pattern as serve_test.cpp.

struct OverloadFixture {
    test::ScratchDir dir{"overload"};  ///< inputs, references, outputs
    std::string target_path;
    std::string query_path;
    std::string reference_maf;           ///< full-fidelity one-shot MAF
    std::string degraded_reference_maf;  ///< apply_degrade'd one-shot MAF

    OverloadFixture()
    {
        synth::AncestorConfig shape;
        shape.num_chromosomes = 1;
        shape.chromosome_length = 8'000;
        shape.exons_per_chromosome = 4;
        const auto pair = synth::make_species_pair(
            synth::paper_species_pairs().front(), shape, 777);

        target_path = dir.file("target.fa");
        query_path = dir.file("query.fa");
        reference_maf = dir.file("reference.maf");
        degraded_reference_maf = dir.file("degraded_reference.maf");
        seq::write_genome_file(target_path, pair.target.genome);
        seq::write_genome_file(query_path, pair.query.genome);

        const wga::WgaParams params = wga::WgaParams::darwin_defaults();
        const wga::WgaPipeline pipeline(params);
        const auto result =
            pipeline.run(pair.target.genome, pair.query.genome);
        wga::write_maf_file(reference_maf, result.alignments,
                            pair.target.genome, pair.query.genome);

        // The degraded contract: what an open-breaker serve must emit,
        // reproduced by a serial run at the shared degraded policy.
        const wga::WgaParams degraded =
            fault::apply_degrade(params, ServerOptions{}.degrade);
        const wga::WgaPipeline degraded_pipeline(degraded);
        const auto degraded_result =
            degraded_pipeline.run(pair.target.genome, pair.query.genome);
        wga::write_maf_file(degraded_reference_maf,
                            degraded_result.alignments,
                            pair.target.genome, pair.query.genome);
    }
};

const OverloadFixture&
fixture()
{
    static const OverloadFixture instance;
    return instance;
}

std::string
slurp(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

std::string
align_line(const std::string& id, const std::string& out,
           const std::string& extra = "")
{
    const auto& f = fixture();
    return strprintf("{\"op\": \"align\", \"id\": %s, \"target\": %s, "
                     "\"query\": %s, \"out\": %s%s}",
                     json_quote(id).c_str(),
                     json_quote(f.target_path).c_str(),
                     json_quote(f.query_path).c_str(),
                     json_quote(out).c_str(), extra.c_str());
}

/** RAII installation of a fault plan; uninstalls even on test failure. */
class PlanGuard {
  public:
    explicit PlanGuard(const fault::FaultPlan& plan)
    {
        fault::install_fault_plan(&plan);
    }
    ~PlanGuard() { fault::install_fault_plan(nullptr); }
};

/** Thread-safe response collector for async submit() tests. */
class Collector {
  public:
    Server::ResponseSink
    sink()
    {
        return [this](const std::string& line) {
            std::lock_guard lock(mutex_);
            lines_.push_back(line);
            cv_.notify_all();
        };
    }

    /** Block until `n` responses arrived (fails the test on timeout). */
    std::vector<std::string>
    wait_for(std::size_t n, std::chrono::seconds timeout =
                                std::chrono::seconds(60))
    {
        std::unique_lock lock(mutex_);
        EXPECT_TRUE(cv_.wait_for(lock, timeout,
                                 [&] { return lines_.size() >= n; }))
            << "timed out waiting for " << n << " responses, have "
            << lines_.size();
        return lines_;
    }

    std::size_t
    count()
    {
        std::lock_guard lock(mutex_);
        return lines_.size();
    }

  private:
    std::mutex mutex_;
    std::condition_variable cv_;
    std::vector<std::string> lines_;
};

/** The subset of `lines` containing `needle`. */
std::vector<std::string>
matching(const std::vector<std::string>& lines, const std::string& needle)
{
    std::vector<std::string> found;
    for (const auto& line : lines)
        if (line.find(needle) != std::string::npos)
            found.push_back(line);
    return found;
}

TEST(Admission, QueueBoundShedsWithRetryAfterHint)
{
    // One worker held on a stalled request, a one-deep admission
    // bound: the third align must be shed synchronously with the
    // machine-readable overload shape.
    const auto plan =
        fault::FaultPlan::parse("serve.dispatch:stall:ms=400:count=0");
    PlanGuard guard(plan);

    ServerOptions options;
    options.num_workers = 1;
    options.max_queue = 1;
    Server server(options);
    Collector collector;

    const std::string out = fixture().dir.file("q.maf");
    ASSERT_TRUE(server.submit(
        align_line("a", out, ", \"budget\": {\"max_cells\": 1}"),
        collector.sink()));
    // Wait for the worker to pop request a (it then stalls), so b is
    // deterministically queued and c deterministically over the bound.
    for (int i = 0; i < 1000 && server.queue_depth() > 0; ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ASSERT_EQ(server.queue_depth(), 0u);
    ASSERT_TRUE(server.submit(
        align_line("b", out, ", \"budget\": {\"max_cells\": 1}"),
        collector.sink()));
    ASSERT_TRUE(server.submit(
        align_line("c", out, ", \"budget\": {\"max_cells\": 1}"),
        collector.sink()));

    const auto lines = collector.wait_for(3);
    const auto shed = matching(lines, "\"reason\": \"overloaded\"");
    ASSERT_EQ(shed.size(), 1u) << lines.size();
    EXPECT_NE(shed[0].find("\"id\": \"c\""), std::string::npos)
        << shed[0];
    EXPECT_NE(shed[0].find("\"retry_after_ms\": "), std::string::npos)
        << shed[0];
    // The hint is a positive integer (EWMA-derived, >= 1 by clamp).
    EXPECT_EQ(shed[0].find("\"retry_after_ms\": 0,"), std::string::npos);
    EXPECT_EQ(shed[0].find("\"retry_after_ms\": 0}"), std::string::npos);

    EXPECT_EQ(
        server.metrics().find_counter("serve.admission.shed")->value(),
        1u);
    EXPECT_EQ(
        server.metrics().find_counter("serve.admission.accepted")->value(),
        2u);
    server.stop();
}

TEST(Admission, InflightBpCapShedsButLoneOversizedRequestRuns)
{
    const auto plan =
        fault::FaultPlan::parse("serve.dispatch:stall:ms=300:count=0");
    PlanGuard guard(plan);

    ServerOptions options;
    options.num_workers = 1;
    options.max_inflight_bp = 1;  // every align is oversized
    Server server(options);
    Collector collector;

    const std::string out = fixture().dir.file("bp.maf");
    // First align: over the cap on its own, but in-flight work is zero,
    // so it is admitted (a sizing mistake must not become an outage).
    ASSERT_TRUE(server.submit(
        align_line("big", out, ", \"budget\": {\"max_cells\": 1}"),
        collector.sink()));
    // Second align: in-flight bp is nonzero, cap exceeded -> shed.
    ASSERT_TRUE(server.submit(
        align_line("late", out, ", \"budget\": {\"max_cells\": 1}"),
        collector.sink()));

    const auto lines = collector.wait_for(2);
    const auto shed = matching(lines, "\"reason\": \"overloaded\"");
    ASSERT_EQ(shed.size(), 1u);
    EXPECT_NE(shed[0].find("\"id\": \"late\""), std::string::npos)
        << shed[0];
    EXPECT_NE(shed[0].find("bp cap"), std::string::npos) << shed[0];
    server.stop();
}

TEST(Admission, ControlOpsAreNeverShed)
{
    ServerOptions options;
    options.num_workers = 1;
    options.max_queue = 1;
    Server server(options);
    // Pings sail through admission regardless of the align bound.
    for (int i = 0; i < 8; ++i) {
        const std::string resp = server.handle_line(
            strprintf("{\"op\": \"ping\", \"id\": \"p%d\"}", i));
        EXPECT_NE(resp.find("\"status\": \"ok\""), std::string::npos);
    }
    EXPECT_EQ(server.metrics().find_counter("serve.admission.shed"),
              nullptr);
    server.stop();
}

TEST(Deadline, ExpiredInQueueIsShedWithoutRunning)
{
    const auto plan =
        fault::FaultPlan::parse("serve.dispatch:stall:ms=300:count=0");
    PlanGuard guard(plan);

    ServerOptions options;
    options.num_workers = 1;
    Server server(options);
    Collector collector;

    const std::string out = fixture().dir.file("dl.maf");
    ASSERT_TRUE(server.submit(
        align_line("slow", out, ", \"budget\": {\"max_cells\": 1}"),
        collector.sink()));
    for (int i = 0; i < 1000 && server.queue_depth() > 0; ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    // This request's 1 ms deadline will have expired long before the
    // stalled worker gets to it: it must be shed at dispatch, not run.
    ASSERT_TRUE(server.submit(
        align_line("dead", out, ", \"deadline_ms\": 1"),
        collector.sink()));

    const auto lines = collector.wait_for(2);
    const auto shed = matching(lines, "\"reason\": \"deadline\"");
    ASSERT_EQ(shed.size(), 1u);
    EXPECT_NE(shed[0].find("\"id\": \"dead\""), std::string::npos)
        << shed[0];
    EXPECT_NE(shed[0].find("\"retry_after_ms\": "), std::string::npos);
    EXPECT_EQ(
        server.metrics().find_counter("serve.deadline.expired")->value(),
        1u);
    // The deadline shed never produced an output file.
    EXPECT_FALSE(std::ifstream(out).good());
    server.stop();
}

TEST(Deadline, ClampsWallBudgetForRunningRequests)
{
    Server server(ServerOptions{});
    const std::string out = fixture().dir.file("clamp.maf");
    // 1 ms of deadline cannot cover a real align: the wall budget is
    // clamped to the time remaining and trips with the walltime tag.
    const std::string resp = server.handle_line(
        align_line("w", out, ", \"deadline_ms\": 1"));
    EXPECT_NE(resp.find("\"status\": \"error\""), std::string::npos)
        << resp;
    EXPECT_NE(resp.find("\"reason\": \"walltime\""), std::string::npos)
        << resp;
    server.stop();
}

TEST(Protocol, ParsesDeadlineAndRejectsNegative)
{
    const Request request = parse_request(
        "{\"op\": \"align\", \"id\": \"1\", \"target\": \"t\", "
        "\"query\": \"q\", \"out\": \"o\", \"deadline_ms\": 1500}");
    EXPECT_DOUBLE_EQ(request.deadline_ms, 1500.0);
    EXPECT_THROW(
        parse_request("{\"op\": \"align\", \"id\": \"1\", "
                      "\"target\": \"t\", \"query\": \"q\", "
                      "\"out\": \"o\", \"deadline_ms\": -1}"),
        ProtocolError);
}

TEST(BreakerServe, TripsOnBudgetFailuresAndServesDegraded)
{
    const auto& f = fixture();
    ServerOptions options;
    options.breaker.window = 4;
    options.breaker.min_samples = 2;
    options.breaker.trip_ratio = 0.5;
    options.breaker.cooldown_seconds = 3600.0;  // stay open
    Server server(options);

    // Two full-fidelity budget trips open the breaker.
    const std::string out = fixture().dir.file("trip.maf");
    for (int i = 0; i < 2; ++i) {
        const std::string resp = server.handle_line(align_line(
            strprintf("t%d", i), out,
            ", \"budget\": {\"max_cells\": 1}"));
        ASSERT_NE(resp.find("\"reason\": \"cells\""), std::string::npos)
            << resp;
    }
    EXPECT_EQ(server.breaker_state(), fault::BreakerState::Open);
    EXPECT_EQ(
        server.metrics().find_counter("serve.breaker.trips")->value(),
        1u);

    // The next request is served degraded — flagged in the response,
    // counted, and byte-identical to the serial apply_degrade'd run.
    const std::string degraded_out = fixture().dir.file("degraded.maf");
    const std::string resp =
        server.handle_line(align_line("d", degraded_out));
    ASSERT_NE(resp.find("\"status\": \"ok\""), std::string::npos) << resp;
    EXPECT_NE(resp.find("\"degraded\": true"), std::string::npos) << resp;
    // Byte-identical to a serial run with apply_degrade'd params — the
    // degraded contract from fault/degrade.h. (On this small fixture
    // the narrowed band still covers every true alignment, so the
    // degraded bytes may equal the full-fidelity bytes; the flag and
    // counter below are what prove degraded mode actually ran.)
    EXPECT_EQ(slurp(degraded_out), slurp(f.degraded_reference_maf));
    EXPECT_GE(server.metrics()
                  .find_counter("serve.breaker.degraded_served")
                  ->value(),
              1u);
    // status reports the breaker state for operators.
    const std::string status =
        server.handle_line("{\"op\": \"status\", \"id\": \"s\"}");
    EXPECT_NE(status.find("\"breaker\": \"open\""), std::string::npos)
        << status;
    server.stop();
}

TEST(BreakerServe, DisabledBreakerNeverDegrades)
{
    ServerOptions options;
    options.breaker_enabled = false;
    options.breaker.window = 2;
    options.breaker.min_samples = 1;
    options.breaker.trip_ratio = 0.1;
    Server server(options);
    const std::string out = fixture().dir.file("nobrk.maf");
    for (int i = 0; i < 3; ++i) {
        server.handle_line(align_line(strprintf("n%d", i), out,
                                      ", \"budget\": {\"max_cells\": 1}"));
    }
    EXPECT_EQ(server.breaker_state(), fault::BreakerState::Closed);
    const std::string resp = server.handle_line(align_line("ok", out));
    EXPECT_NE(resp.find("\"degraded\": false"), std::string::npos)
        << resp;
    server.stop();
}

// ---------------------------------------------------------------------
// AF_UNIX socket claiming.

TEST(SocketClaim, RefusesALiveListener)
{
    const std::string path =
        ::testing::TempDir() + "/claim_live_" +
        std::to_string(::getpid()) + ".sock";
    const int owner = claim_unix_socket(path);
    ASSERT_GE(owner, 0);
    // A second daemon must refuse to hijack the socket while the first
    // is still listening on it.
    EXPECT_THROW(claim_unix_socket(path), SocketInUseError);
    ::close(owner);
    ::unlink(path.c_str());
}

TEST(SocketClaim, TakesOverAStaleSocketFile)
{
    const std::string path =
        ::testing::TempDir() + "/claim_stale_" +
        std::to_string(::getpid()) + ".sock";
    // Simulate a SIGKILLed daemon: the socket file outlives the
    // listener (close without unlink).
    const int dead = claim_unix_socket(path);
    ASSERT_GE(dead, 0);
    ::close(dead);
    struct stat st;
    ASSERT_EQ(::lstat(path.c_str(), &st), 0) << "socket file must "
                                                "survive the close";

    const int takeover = claim_unix_socket(path);
    ASSERT_GE(takeover, 0);
    // And the takeover actually listens: a connect succeeds.
    const int client = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(client, 0);
    sockaddr_un addr = {};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    EXPECT_EQ(::connect(client, reinterpret_cast<sockaddr*>(&addr),
                        sizeof(addr)),
              0);
    ::close(client);
    ::close(takeover);
    ::unlink(path.c_str());
}

TEST(SocketClaim, RefusesANonSocketPath)
{
    const std::string path = ::testing::TempDir() + "/claim_plain_" +
                             std::to_string(::getpid()) + ".txt";
    std::ofstream(path) << "not a socket";
    EXPECT_THROW(claim_unix_socket(path), FatalError);
    ::unlink(path.c_str());
}

}  // namespace
}  // namespace darwin::serve
