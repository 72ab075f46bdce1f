/**
 * @file
 * perfbench-calibrate — measures how fast this host runs right now.
 *
 * Times a fixed job that uses none of the aligner's code: one thread per
 * hardware thread, as `darwin-wga align` starts, running kRounds rounds
 * of an affine-gap local-alignment DP over two fixed pseudo-random 2 kbp
 * sequences each, with a barrier after every round; then, on one thread,
 * faulting in and clearing a fresh 64 MiB buffer (the aligner's seed
 * table is a dense 67 MB array). The barrier makes every round wait for
 * its slowest thread, as the aligner's fork-join stages do, so a core
 * taken by another tenant slows this job as much as the aligner; without
 * it, the job's time barely moved when busy loops took one to three of
 * four cores, while the aligner's grew by up to 60%.
 * Prints its wall time in milliseconds, so both a slower core and a core
 * taken by another tenant show.
 * perfbench/run.py runs it next to every timed alignment and scales the
 * alignment's wall time by this wall time, and the alignment's CPU time
 * by this job's CPU time (which it reads from the process's rusage), so
 * that slow phases of a shared host cancel.
 */
#include <algorithm>
#include <barrier>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

namespace {

std::vector<std::uint8_t>
random_bases(std::uint64_t state, std::size_t n)
{
    std::vector<std::uint8_t> out(n);
    for (auto& b : out) {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        b = static_cast<std::uint8_t>(state >> 62);
    }
    return out;
}

/** Best local score, Gotoh recurrences with int32 rows. */
std::int32_t
local_score(const std::vector<std::uint8_t>& a, const std::vector<std::uint8_t>& b)
{
    constexpr std::int32_t kMatch = 91, kMismatch = -90, kOpen = 430, kExtend = 30;
    std::vector<std::int32_t> h(b.size() + 1, 0), e(b.size() + 1, 0);
    std::int32_t best = 0;
    for (std::size_t i = 1; i <= a.size(); ++i) {
        std::int32_t diag = 0, f = 0, left = 0;
        for (std::size_t j = 1; j <= b.size(); ++j) {
            e[j] = std::max(e[j] - kExtend, h[j] - kOpen);
            f = std::max(f - kExtend, left - kOpen);
            const std::int32_t s = a[i - 1] == b[j - 1] ? kMatch : kMismatch;
            const std::int32_t v = std::max({0, diag + s, e[j], f});
            diag = h[j];
            h[j] = v;
            left = v;
            best = std::max(best, v);
        }
    }
    return best;
}

}  // namespace

int
main()
{
    const unsigned threads = std::max(1u, std::thread::hardware_concurrency());
    const auto a = random_bases(1, 2000);
    const auto b = random_bases(2, 2000);
    constexpr std::size_t kBufferBytes = 64u << 20;
    constexpr int kRounds = 16;

    const auto start = std::chrono::steady_clock::now();
    std::vector<std::int32_t> scores(threads);
    std::barrier round_end(static_cast<std::ptrdiff_t>(threads));
    {
        std::vector<std::jthread> workers;
        for (unsigned t = 0; t < threads; ++t)
            workers.emplace_back([&, t] {
                for (int r = 0; r < kRounds; ++r) {
                    scores[t] += local_score(a, b);
                    round_end.arrive_and_wait();
                }
            });
    }
    const std::unique_ptr<char[]> buffer(new char[kBufferBytes]);
    std::memset(buffer.get(), 1, kBufferBytes);
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();

    // Printing the results keeps the compiler from dropping the work.
    std::int64_t checksum = buffer[kBufferBytes / 2];
    for (const std::int32_t score : scores)
        checksum += score;
    std::printf("%.6f %lld\n", ms, static_cast<long long>(checksum));
    return 0;
}
