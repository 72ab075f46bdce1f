/**
 * @file
 * Unit tests for the util module: RNG, stats, strings, args, thread
 * pool, work queue.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <optional>
#include <set>
#include <stdexcept>
#include <thread>

#include "util/args.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/strings.h"
#include "util/thread_pool.h"
#include "util/work_queue.h"

namespace darwin {
namespace {

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(42);
    Rng b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1);
    Rng b(2);
    int equal = 0;
    for (int i = 0; i < 64; ++i) {
        if (a.next() == b.next())
            ++equal;
    }
    EXPECT_LT(equal, 4);
}

TEST(Rng, UniformRespectsBound)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.uniform(17), 17u);
}

TEST(Rng, UniformRangeInclusive)
{
    Rng rng(7);
    std::set<std::int64_t> seen;
    for (int i = 0; i < 1000; ++i) {
        const auto v = rng.uniform_range(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, UniformDoubleInUnitInterval)
{
    Rng rng(11);
    for (int i = 0; i < 1000; ++i) {
        const double v = rng.uniform_double();
        EXPECT_GE(v, 0.0);
        EXPECT_LT(v, 1.0);
    }
}

TEST(Rng, ChanceExtremes)
{
    Rng rng(5);
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
}

TEST(Rng, GeometricMeanRoughlyMatches)
{
    Rng rng(13);
    const double p = 0.25;
    double total = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        total += static_cast<double>(rng.geometric(p));
    const double mean = total / n;
    // E[failures before success] = (1-p)/p = 3.
    EXPECT_NEAR(mean, 3.0, 0.15);
}

TEST(Rng, WeightedPickHonorsZeroWeights)
{
    Rng rng(3);
    std::vector<double> weights = {0.0, 1.0, 0.0};
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(rng.weighted_pick(weights), 1u);
}

TEST(Rng, ZipfStaysInRange)
{
    Rng rng(9);
    for (int i = 0; i < 2000; ++i) {
        const auto v = rng.zipf(1.6, 400);
        EXPECT_GE(v, 1u);
        EXPECT_LE(v, 400u);
    }
}

TEST(Rng, ZipfIsHeavyTailedButMostlySmall)
{
    Rng rng(10);
    int small = 0;
    for (int i = 0; i < 2000; ++i) {
        if (rng.zipf(1.6, 400) <= 4)
            ++small;
    }
    EXPECT_GT(small, 1000);
}

TEST(Rng, ForkProducesIndependentStream)
{
    Rng a(21);
    Rng child = a.fork();
    EXPECT_NE(a.next(), child.next());
}

TEST(RunningStats, Basics)
{
    RunningStats stats;
    for (const double v : {1.0, 2.0, 3.0, 4.0})
        stats.add(v);
    EXPECT_EQ(stats.count(), 4u);
    EXPECT_DOUBLE_EQ(stats.mean(), 2.5);
    EXPECT_DOUBLE_EQ(stats.min(), 1.0);
    EXPECT_DOUBLE_EQ(stats.max(), 4.0);
    EXPECT_NEAR(stats.stddev(), std::sqrt(5.0 / 3.0), 1e-12);
}

TEST(RunningStats, EmptyIsZero)
{
    RunningStats stats;
    EXPECT_EQ(stats.count(), 0u);
    EXPECT_DOUBLE_EQ(stats.mean(), 0.0);
    EXPECT_DOUBLE_EQ(stats.variance(), 0.0);
}

TEST(LogHistogram, BinningIsBase2)
{
    LogHistogram hist(10);
    hist.add(1);
    hist.add(2);
    hist.add(3);
    hist.add(1024);
    EXPECT_EQ(hist.bin_count(0), 1u);  // [1,2)
    EXPECT_EQ(hist.bin_count(1), 2u);  // [2,4)
    EXPECT_EQ(hist.bin_count(9), 1u);  // clamped top bin
    EXPECT_EQ(hist.total(), 4u);
}

TEST(LogHistogram, FractionBelow)
{
    LogHistogram hist;
    for (std::uint64_t v : {10, 20, 40, 80})
        hist.add(v);
    EXPECT_DOUBLE_EQ(hist.fraction_below(30), 0.5);
    EXPECT_DOUBLE_EQ(hist.fraction_below(1), 0.0);
    EXPECT_DOUBLE_EQ(hist.fraction_below(1000), 1.0);
}

TEST(Percentile, InterpolatesLinearly)
{
    std::vector<double> values = {1, 2, 3, 4, 5};
    EXPECT_DOUBLE_EQ(percentile(values, 0), 1.0);
    EXPECT_DOUBLE_EQ(percentile(values, 50), 3.0);
    EXPECT_DOUBLE_EQ(percentile(values, 100), 5.0);
    EXPECT_DOUBLE_EQ(percentile(values, 25), 2.0);
}

TEST(Strings, SplitAndJoin)
{
    const auto fields = split("a,b,,c", ',');
    ASSERT_EQ(fields.size(), 4u);
    EXPECT_EQ(fields[2], "");
    EXPECT_EQ(join(fields, "-"), "a-b--c");
}

TEST(Strings, Trim)
{
    EXPECT_EQ(trim("  x y \t\n"), "x y");
    EXPECT_EQ(trim(""), "");
    EXPECT_EQ(trim("   "), "");
}

TEST(Strings, WithCommas)
{
    EXPECT_EQ(with_commas(0), "0");
    EXPECT_EQ(with_commas(999), "999");
    EXPECT_EQ(with_commas(1000), "1,000");
    EXPECT_EQ(with_commas(1234567), "1,234,567");
}

TEST(Strings, SiMagnitude)
{
    EXPECT_EQ(si_magnitude(950), "950");
    EXPECT_EQ(si_magnitude(1500), "1.50K");
    EXPECT_EQ(si_magnitude(6250000), "6.25M");
}

TEST(Strings, Strprintf)
{
    EXPECT_EQ(strprintf("%d-%s", 7, "x"), "7-x");
}

TEST(Args, ParsesOptionsAndFlags)
{
    ArgParser parser("test");
    parser.add_option("size", "10", "genome size");
    parser.add_flag("verbose", "chatty");
    const char* argv[] = {"prog", "--size=42", "--verbose", "pos"};
    ASSERT_TRUE(parser.parse(4, argv));
    EXPECT_EQ(parser.get_int("size"), 42);
    EXPECT_TRUE(parser.get_flag("verbose"));
    ASSERT_EQ(parser.positional().size(), 1u);
    EXPECT_EQ(parser.positional()[0], "pos");
}

TEST(Args, DefaultsApply)
{
    ArgParser parser("test");
    parser.add_option("rate", "0.5", "a rate");
    const char* argv[] = {"prog"};
    ASSERT_TRUE(parser.parse(1, argv));
    EXPECT_DOUBLE_EQ(parser.get_double("rate"), 0.5);
}

TEST(Args, RejectsUnknownOption)
{
    ArgParser parser("test");
    const char* argv[] = {"prog", "--nope"};
    EXPECT_FALSE(parser.parse(2, argv));
}

TEST(Args, SpaceSeparatedValue)
{
    ArgParser parser("test");
    parser.add_option("pair", "x", "pair name");
    const char* argv[] = {"prog", "--pair", "ce11-cb4"};
    ASSERT_TRUE(parser.parse(3, argv));
    EXPECT_EQ(parser.get("pair"), "ce11-cb4");
}

/** The FatalError message get_int/get_uint/get_double raise for
 *  `value`, or "" when the read succeeds. */
std::string
numeric_read_error(const char* value, bool as_uint, bool as_double = false)
{
    ArgParser parser("test");
    parser.add_option("threads", "0", "worker threads");
    const char* argv[] = {"prog", "--threads", value};
    EXPECT_TRUE(parser.parse(3, argv));
    try {
        if (as_double)
            (void)parser.get_double("threads");
        else if (as_uint)
            (void)parser.get_uint("threads");
        else
            (void)parser.get_int("threads");
    } catch (const FatalError& e) {
        return e.what();
    }
    return "";
}

TEST(Args, IntegerReadsAreStrictAndTagged)
{
    for (const char* bad : {"abc", "12x", "", " 7", "4.5",
                            "99999999999999999999"}) {
        const std::string error = numeric_read_error(bad, false);
        EXPECT_NE(error.find("option --threads"), std::string::npos)
            << "'" << bad << "' -> '" << error << "'";
    }
    EXPECT_NE(numeric_read_error("99999999999999999999", false)
                  .find("out of range"),
              std::string::npos);
    EXPECT_EQ(numeric_read_error("-5", false), "");

    // Counts and sizes: negative values are refused, not wrapped.
    EXPECT_NE(numeric_read_error("-1", true).find("must not be negative"),
              std::string::npos);
    EXPECT_EQ(numeric_read_error("8", true), "");
    ArgParser parser("test");
    parser.add_option("threads", "0", "worker threads");
    const char* argv[] = {"prog", "--threads=12"};
    ASSERT_TRUE(parser.parse(2, argv));
    EXPECT_EQ(parser.get_uint("threads"), 12u);
}

TEST(Args, DoubleReadsAreStrict)
{
    EXPECT_EQ(numeric_read_error("0.25", false, true), "");
    EXPECT_NE(numeric_read_error("0.25s", false, true).find("not a number"),
              std::string::npos);
    EXPECT_NE(numeric_read_error("fast", false, true).find("not a number"),
              std::string::npos);
}

TEST(ThreadPool, RunsAllTasks)
{
    ThreadPool pool(4);
    std::atomic<int> count{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&] { count.fetch_add(1); });
    pool.wait_idle();
    EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, ParallelForCoversRange)
{
    ThreadPool pool(4);
    std::vector<std::atomic<int>> hits(1000);
    pool.parallel_for(0, hits.size(),
                      [&](std::size_t i) { hits[i].fetch_add(1); });
    for (const auto& h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, EmptyRangeIsNoop)
{
    ThreadPool pool(2);
    pool.parallel_for(5, 5, [](std::size_t) { FAIL(); });
}

TEST(ThreadPool, ZeroThreadsFallsBackToOne)
{
    ThreadPool pool(0);
    EXPECT_GE(pool.size(), 1u);
    std::atomic<int> count{0};
    pool.parallel_for(0, 10, [&](std::size_t) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPool, ParallelForPropagatesException)
{
    ThreadPool pool(4);
    EXPECT_THROW(pool.parallel_for(0, 100,
                                   [](std::size_t i) {
                                       if (i == 37)
                                           throw std::runtime_error("bad");
                                   },
                                   1),
                 std::runtime_error);
    // The pool is still usable afterwards.
    std::atomic<int> count{0};
    pool.parallel_for(0, 10, [&](std::size_t) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPool, NestedParallelFor)
{
    ThreadPool pool(4);
    std::atomic<int> count{0};
    pool.parallel_for(
        0, 4,
        [&](std::size_t) {
            pool.parallel_for(0, 100,
                              [&](std::size_t) { count.fetch_add(1); }, 8);
        },
        1);
    EXPECT_EQ(count.load(), 400);
}

TEST(ThreadPool, SubmitFromInsideTask)
{
    ThreadPool pool(2);
    std::atomic<int> count{0};
    pool.parallel_for(0, 4,
                      [&](std::size_t) {
                          pool.submit([&] { count.fetch_add(1); });
                      },
                      1);
    pool.wait_idle();
    EXPECT_EQ(count.load(), 4);
}

TEST(WorkQueue, PreservesFifoOrder)
{
    WorkQueue<int> queue(16);
    for (int i = 0; i < 10; ++i)
        EXPECT_TRUE(queue.push(i));
    for (int i = 0; i < 10; ++i) {
        const auto item = queue.pop();
        ASSERT_TRUE(item.has_value());
        EXPECT_EQ(*item, i);
    }
    EXPECT_FALSE(queue.try_pop().has_value());
}

TEST(WorkQueue, TryPushFailsWhenFull)
{
    WorkQueue<int> queue(2);
    int item = 1;
    EXPECT_TRUE(queue.try_push(item));
    item = 2;
    EXPECT_TRUE(queue.try_push(item));
    item = 3;
    EXPECT_FALSE(queue.try_push(item));
    EXPECT_EQ(item, 3);  // untouched on failure
    EXPECT_EQ(queue.size(), 2u);
}

TEST(WorkQueue, PushBlocksUntilConsumerDrains)
{
    WorkQueue<int> queue(2);
    EXPECT_TRUE(queue.push(1));
    EXPECT_TRUE(queue.push(2));

    std::atomic<bool> third_pushed{false};
    std::thread producer([&] {
        EXPECT_TRUE(queue.push(3));  // blocks until a pop frees a slot
        third_pushed.store(true);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_FALSE(third_pushed.load());

    EXPECT_EQ(queue.pop().value(), 1);
    producer.join();
    EXPECT_TRUE(third_pushed.load());
    EXPECT_EQ(queue.pop().value(), 2);
    EXPECT_EQ(queue.pop().value(), 3);
}

TEST(WorkQueue, CloseDrainsPendingThenSignalsEnd)
{
    WorkQueue<int> queue(8);
    queue.push(1);
    queue.push(2);
    queue.close();
    EXPECT_TRUE(queue.closed());
    EXPECT_FALSE(queue.push(3));  // rejected after close
    EXPECT_EQ(queue.pop().value(), 1);
    EXPECT_EQ(queue.pop().value(), 2);
    EXPECT_FALSE(queue.pop().has_value());  // drained + closed
}

TEST(WorkQueue, CloseUnblocksWaitingConsumer)
{
    WorkQueue<int> queue(4);
    std::optional<int> got = 42;
    std::thread consumer([&] { got = queue.pop(); });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    queue.close();
    consumer.join();
    EXPECT_FALSE(got.has_value());
}

TEST(WorkQueue, ManyProducersManyConsumers)
{
    WorkQueue<int> queue(4);  // small capacity: exercise backpressure
    constexpr int kProducers = 4;
    constexpr int kItemsEach = 500;
    std::vector<std::thread> threads;
    for (int p = 0; p < kProducers; ++p) {
        threads.emplace_back([&queue, p] {
            for (int i = 0; i < kItemsEach; ++i)
                ASSERT_TRUE(queue.push(p * kItemsEach + i));
        });
    }
    std::atomic<int> popped{0};
    std::atomic<long long> total{0};
    for (int c = 0; c < 3; ++c) {
        threads.emplace_back([&] {
            while (auto item = queue.pop()) {
                popped.fetch_add(1);
                total.fetch_add(*item);
            }
        });
    }
    for (int p = 0; p < kProducers; ++p)
        threads[static_cast<std::size_t>(p)].join();
    queue.close();
    for (std::size_t t = kProducers; t < threads.size(); ++t)
        threads[t].join();
    constexpr int kTotalItems = kProducers * kItemsEach;
    EXPECT_EQ(popped.load(), kTotalItems);
    EXPECT_EQ(total.load(),
              static_cast<long long>(kTotalItems) * (kTotalItems - 1) / 2);
}

TEST(Logging, FatalThrows)
{
    EXPECT_THROW(fatal("boom"), FatalError);
}

TEST(Logging, LevelsFilter)
{
    set_log_level(LogLevel::Error);
    inform("should be dropped silently");
    warn("also dropped");
    set_log_level(LogLevel::Info);
    SUCCEED();
}

}  // namespace
}  // namespace darwin
