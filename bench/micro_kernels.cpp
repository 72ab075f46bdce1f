/**
 * @file
 * Microbenches of the computational kernels (§VI-C context: software BSW
 * throughput defines the iso-sensitive baseline — the paper measured
 * 225K tiles/s on 36 threads with Parasail; the per-tile software cost
 * here is our equivalent).
 *
 * Two modes:
 *  - default: the google-benchmark suite (BM_* below);
 *  - `--json`: a self-timed comparison of every usable filter- and
 *    extension-kernel implementation (scalar, sse42, avx2, avx512 — see
 *    src/align/kernels/) against the seed engines (the row-major BSW
 *    kernel and the stripe-sequential GACT-X reference), printed as a
 *    BENCH-stamped JSON report. BSW runs through each tier's batch entry,
 *    one call over the whole 64-tile pool, as the filter stage calls it;
 *    the row-major baseline runs one tile after another, and the
 *    baseline and the tiers are timed interleaved, window by window.
 *    `--check-speedup X` additionally exits non-zero when any usable
 *    vector tier's BSW *or* GACT-X kernel is slower than X times its
 *    seed engine — the CI smoke gate uses X=1.0 (vectorized must never
 *    lose to scalar); the paper-reproduction
 *    target is >= 2.0. Every comparison also asserts bit-identity
 *    (checksums over all result fields, including the CIGAR and
 *    per-stripe column counts for GACT-X). Each GACT-X kernel is also
 *    timed score-only; its `pointer_overhead` (full over score-only
 *    seconds per tile) is the standing cost of the traceback pointers.
 *    Every figure is timed in kRepeats windows of at least kMinSeconds
 *    after one warm-up pass: the JSON reports the median window, and
 *    each kernel's `min`/`max` give the spread. Speedups and the gate
 *    use medians.
 */
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "align/banded_sw.h"
#include "align/gactx.h"
#include "align/kernels/bsw_kernels.h"
#include "align/kernels/gactx_kernels.h"
#include "align/kernels/kernel_registry.h"
#include "align/needleman_wunsch.h"
#include "align/smith_waterman.h"
#include "align/ungapped_xdrop.h"
#include "bench_common.h"
#include "chain/chainer.h"
#include "seed/seed_index.h"
#include "seq/packed_sequence.h"
#include "seq/shuffle.h"
#include "util/rng.h"

using namespace darwin;

namespace {

std::vector<std::uint8_t>
random_codes(std::size_t len, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::uint8_t> codes(len);
    for (auto& c : codes)
        c = static_cast<std::uint8_t>(rng.uniform(4));
    return codes;
}

std::vector<std::uint8_t>
mutated_copy(const std::vector<std::uint8_t>& src, double sub_rate,
             double indel_rate, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::uint8_t> out;
    for (std::size_t i = 0; i < src.size(); ++i) {
        if (rng.chance(indel_rate)) {
            if (rng.chance(0.5))
                continue;
            out.push_back(static_cast<std::uint8_t>(rng.uniform(4)));
        }
        std::uint8_t base = src[i];
        if (rng.chance(sub_rate))
            base = static_cast<std::uint8_t>(rng.uniform(4));
        out.push_back(base);
    }
    return out;
}

// ---------------------------------------------------------------------
// google-benchmark suite (default mode)
// ---------------------------------------------------------------------

void
BM_BswFilterTile(benchmark::State& state)
{
    const auto scoring = align::ScoringParams::paper_defaults();
    const auto t = random_codes(320, 1);
    const auto q = mutated_copy(t, 0.15, 0.01, 2);
    std::uint64_t cells = 0;
    for (auto _ : state) {
        const auto result = align::banded_smith_waterman(
            {t.data(), t.size()}, {q.data(), std::min<std::size_t>(
                                                 q.size(), 320)},
            scoring, 32);
        benchmark::DoNotOptimize(result.max_score);
        cells += result.cells_computed;
    }
    state.counters["cells/s"] = benchmark::Counter(
        static_cast<double>(cells), benchmark::Counter::kIsRate);
    state.counters["tiles/s"] = benchmark::Counter(
        static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_BswFilterTile);

void
BM_GactXTile(benchmark::State& state)
{
    align::GactXParams params;
    params.tile_size = static_cast<std::size_t>(state.range(0));
    const align::GactXTileAligner aligner(params);
    const auto t = random_codes(params.tile_size, 3);
    const auto q = mutated_copy(t, 0.15, 0.01, 4);
    std::uint64_t cells = 0;
    for (auto _ : state) {
        const auto result = aligner.align_tile(
            {t.data(), t.size()},
            {q.data(), std::min(q.size(), params.tile_size)});
        benchmark::DoNotOptimize(result.max_score);
        cells += result.cells_computed;
    }
    state.counters["cells/s"] = benchmark::Counter(
        static_cast<double>(cells), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GactXTile)->Arg(480)->Arg(960)->Arg(1920);

void
BM_UngappedXdrop(benchmark::State& state)
{
    const auto scoring = align::ScoringParams::paper_defaults();
    const auto t = random_codes(4000, 5);
    const auto q = mutated_copy(t, 0.12, 0.0, 6);
    for (auto _ : state) {
        const auto result = align::ungapped_xdrop_extend(
            {t.data(), t.size()}, {q.data(), q.size()}, 2000, 2000, 19,
            scoring, 910);
        benchmark::DoNotOptimize(result.score);
    }
}
BENCHMARK(BM_UngappedXdrop);

void
BM_SmithWatermanReference(benchmark::State& state)
{
    const auto scoring = align::ScoringParams::paper_defaults();
    const auto t = random_codes(256, 7);
    const auto q = mutated_copy(t, 0.2, 0.02, 8);
    for (auto _ : state) {
        benchmark::DoNotOptimize(align::smith_waterman_score(
            {t.data(), t.size()}, {q.data(), q.size()}, scoring));
    }
}
BENCHMARK(BM_SmithWatermanReference);

void
BM_SeedIndexLookup(benchmark::State& state)
{
    const seed::SeedPattern pattern = seed::SeedPattern::lastz_default();
    const seq::Sequence target("t", random_codes(1 << 20, 9));
    const seed::SeedIndex index(target, pattern);
    const auto query = random_codes(1 << 16, 10);
    std::size_t pos = 0;
    std::uint64_t hits = 0;
    for (auto _ : state) {
        const auto key = pattern.key_at({query.data(), query.size()}, pos);
        if (key)
            hits += index.lookup(*key).size();
        pos = (pos + 1) % (query.size() - pattern.span());
        benchmark::DoNotOptimize(hits);
    }
    state.counters["lookups/s"] = benchmark::Counter(
        static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SeedIndexLookup);

/** Byte-per-base kmer assembly — the pre-packing seeding idiom. */
std::uint64_t
byte_kmer(const std::vector<std::uint8_t>& codes, std::size_t pos,
          std::size_t k)
{
    std::uint64_t kmer = 0;
    for (std::size_t j = 0; j < k && pos + j < codes.size(); ++j) {
        const std::uint8_t c = codes[pos + j];
        if (c < 4)
            kmer |= static_cast<std::uint64_t>(c) << (2 * j);
    }
    return kmer;
}

void
BM_SeedExtractBytes(benchmark::State& state)
{
    const std::size_t k = static_cast<std::size_t>(state.range(0));
    const auto codes = random_codes(1 << 20, 17);
    std::size_t pos = 0;
    std::uint64_t sum = 0;
    for (auto _ : state) {
        sum += byte_kmer(codes, pos, k);
        pos = (pos + 1) % (codes.size() - k);
        benchmark::DoNotOptimize(sum);
    }
    state.counters["kmers/s"] = benchmark::Counter(
        static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SeedExtractBytes)->Arg(12)->Arg(19)->Arg(32);

void
BM_SeedExtractPacked(benchmark::State& state)
{
    const std::size_t k = static_cast<std::size_t>(state.range(0));
    const auto codes = random_codes(1 << 20, 17);
    const auto packed =
        seq::PackedSequence::pack("t", {codes.data(), codes.size()});
    std::size_t pos = 0;
    std::uint64_t sum = 0;
    for (auto _ : state) {
        sum += packed.extract_kmer(pos, k);
        pos = (pos + 1) % (codes.size() - k);
        benchmark::DoNotOptimize(sum);
    }
    state.counters["kmers/s"] = benchmark::Counter(
        static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SeedExtractPacked)->Arg(12)->Arg(19)->Arg(32);

void
BM_DinucleotideShuffle(benchmark::State& state)
{
    const seq::Sequence s("x", random_codes(1 << 16, 11));
    Rng rng(12);
    for (auto _ : state) {
        benchmark::DoNotOptimize(seq::dinucleotide_shuffle(s, rng));
    }
}
BENCHMARK(BM_DinucleotideShuffle);

void
BM_ChainDP(benchmark::State& state)
{
    Rng rng(13);
    std::vector<align::Alignment> blocks;
    std::uint64_t t = 0, q = 0;
    for (int i = 0; i < 500; ++i) {
        t += 200 + rng.uniform(2000);
        q += 200 + rng.uniform(2000);
        align::Alignment a;
        a.target_start = t;
        a.target_end = t + 150;
        a.query_start = q;
        a.query_end = q + 150;
        a.score = 4000 + static_cast<align::Score>(rng.uniform(8000));
        a.cigar.push(align::EditOp::Match, 150);
        blocks.push_back(a);
    }
    for (auto _ : state) {
        benchmark::DoNotOptimize(chain::chain_alignments(blocks));
    }
}
BENCHMARK(BM_ChainDP);

// ---------------------------------------------------------------------
// --json mode: kernel-vs-kernel comparison with the speedup gate
// ---------------------------------------------------------------------

constexpr std::size_t kTileSize = 320;
constexpr std::size_t kBand = 32;
constexpr std::size_t kNumPairs = 64;
constexpr double kMinSeconds = 0.25;

struct TilePair {
    std::vector<std::uint8_t> target;
    std::vector<std::uint8_t> query;
};

std::vector<TilePair>
make_tile_pool()
{
    // Fig. 8 context: mid-distance pair divergence (15% substitutions,
    // 1% indels) — the regime the filter stage spends its time in.
    std::vector<TilePair> pool;
    pool.reserve(kNumPairs);
    for (std::size_t p = 0; p < kNumPairs; ++p) {
        TilePair pair;
        pair.target = random_codes(kTileSize, 100 + 2 * p);
        pair.query = mutated_copy(pair.target, 0.15, 0.01, 101 + 2 * p);
        pair.query.resize(std::min(pair.query.size(), kTileSize));
        pool.push_back(std::move(pair));
    }
    return pool;
}

/** Timed windows per figure (see the file comment). */
constexpr int kRepeats = 5;

/** Median and range of one figure over kRepeats timed windows. */
struct Spread {
    double median = 0.0;
    double min = 0.0;
    double max = 0.0;
};

Spread
spread_of(std::vector<double> samples)
{
    std::sort(samples.begin(), samples.end());
    return {samples[samples.size() / 2], samples.front(), samples.back()};
}

/** Run `window` (returning one window's figure) kRepeats times. */
template <class Window>
Spread
repeat_windows(const Window& window)
{
    std::vector<double> samples;
    for (int r = 0; r < kRepeats; ++r)
        samples.push_back(window());
    return spread_of(std::move(samples));
}

/** Per-tile seconds and cells/s of one kernel over a tile pool. */
struct PoolTiming {
    Spread seconds_per_tile;
    Spread cells_per_second;
    std::uint64_t checksum = 0;  ///< bit-identity guard across kernels
};

/** One pass of a kernel over a tile pool: adds the pass's results to
 *  the checksum and its cells to the cell count. */
using RunPool =
    std::function<void(std::uint64_t* checksum, std::uint64_t* cells)>;

/**
 * Time each of `runs` (one pass over the same `pool_size`-tile pool):
 * one warm-up pass each records the checksum and the pass's cells, then
 * kRepeats rounds time one window of every run in turn, each window
 * repeating the pool until kMinSeconds have passed. Interleaving puts
 * any drift in host speed over the run on every kernel alike: timed
 * back to back, whichever kernel went first read up to 2x off. Kernels
 * are deterministic, so every pass computes the same cells and cells/s
 * follows from seconds per tile.
 */
std::vector<PoolTiming>
time_pools(const std::vector<RunPool>& runs, std::size_t pool_size)
{
    using Clock = std::chrono::steady_clock;
    std::vector<PoolTiming> timings(runs.size());
    std::vector<double> cells_per_tile(runs.size());
    for (std::size_t k = 0; k < runs.size(); ++k) {
        std::uint64_t cells = 0;
        runs[k](&timings[k].checksum, &cells);  // warmup + checksum
        cells_per_tile[k] =
            static_cast<double>(cells) / static_cast<double>(pool_size);
    }

    std::uint64_t dummy = 0;
    std::uint64_t cells = 0;
    std::vector<std::vector<double>> samples(runs.size());
    for (int r = 0; r < kRepeats; ++r) {
        for (std::size_t k = 0; k < runs.size(); ++k) {
            std::uint64_t tiles = 0;
            const auto start = Clock::now();
            double elapsed = 0.0;
            do {
                runs[k](&dummy, &cells);
                tiles += pool_size;
                elapsed = std::chrono::duration<double>(Clock::now() - start)
                              .count();
            } while (elapsed < kMinSeconds);
            samples[k].push_back(elapsed / static_cast<double>(tiles));
        }
    }
    benchmark::DoNotOptimize(dummy);
    for (std::size_t k = 0; k < runs.size(); ++k) {
        PoolTiming& timing = timings[k];
        timing.seconds_per_tile = spread_of(std::move(samples[k]));
        const Spread& seconds = timing.seconds_per_tile;
        timing.cells_per_second = {cells_per_tile[k] / seconds.median,
                                   cells_per_tile[k] / seconds.max,
                                   cells_per_tile[k] / seconds.min};
    }
    return timings;
}

/** `"key": median, "key_min": min, "key_max": max` at `digits`
 *  decimals. */
std::string
spread_json(const char* key, const Spread& spread, int digits)
{
    return strprintf("\"%s\": %.*f, \"%s_min\": %.*f, \"%s_max\": %.*f",
                     key, digits, spread.median, key, digits, spread.min,
                     key, digits, spread.max);
}

/** A PoolTiming's JSON members. */
std::string
pool_json(const PoolTiming& timing)
{
    return spread_json("seconds_per_tile", timing.seconds_per_tile, 9) +
           ", " + spread_json("cells_per_second", timing.cells_per_second, 0);
}

/** Each BSW kernel's batch entry over the whole pool, one call per
 *  pass, the kernels timed interleaved (time_pools). */
std::vector<PoolTiming>
time_bsw(const std::vector<align::kernels::BswKernelFn>& kernels,
         const std::vector<TilePair>& pool,
         const align::ScoringParams& scoring)
{
    std::vector<align::BswTile> tiles;
    for (const TilePair& pair : pool)
        tiles.push_back({pair.target, pair.query});
    std::vector<align::BswResult> results(pool.size());
    std::vector<RunPool> runs;
    for (const align::kernels::BswKernelFn kernel : kernels) {
        runs.push_back([&, kernel](std::uint64_t* checksum,
                                   std::uint64_t* cells) {
            kernel(tiles, scoring, kBand, results.data());
            for (const align::BswResult& r : results) {
                *checksum = *checksum * 1000003u +
                            static_cast<std::uint64_t>(r.max_score) * 31u +
                            r.target_max * 7u + r.query_max;
                *cells += r.cells_computed;
            }
        });
    }
    return time_pools(runs, pool.size());
}

// GACT-X extension-kernel pool: full-size extension tiles (1920 bases by
// default) in the same mid-distance divergence regime.
constexpr std::size_t kNumGactxPairs = 8;

std::vector<TilePair>
make_gactx_pool(const align::GactXParams& params)
{
    std::vector<TilePair> pool;
    pool.reserve(kNumGactxPairs);
    for (std::size_t p = 0; p < kNumGactxPairs; ++p) {
        TilePair pair;
        pair.target = random_codes(params.tile_size, 300 + 2 * p);
        pair.query = mutated_copy(pair.target, 0.15, 0.01, 301 + 2 * p);
        pair.query.resize(std::min(pair.query.size(), params.tile_size));
        pool.push_back(std::move(pair));
    }
    return pool;
}

PoolTiming
time_gactx(align::kernels::GactXKernelFn kernel,
           const std::vector<TilePair>& pool,
           const align::GactXParams& params)
{
    const auto run_pool = [&](std::uint64_t* checksum,
                              std::uint64_t* cells) {
        for (const TilePair& pair : pool) {
            const auto r = kernel(
                {pair.target.data(), pair.target.size()},
                {pair.query.data(), pair.query.size()}, params);
            // Bit-identity digest over *all* result fields — the CIGAR
            // and per-stripe column counts included, since the hw cycle
            // model consumes them.
            std::uint64_t sum = *checksum;
            sum = sum * 1000003u +
                  static_cast<std::uint64_t>(r.max_score) * 31u +
                  r.target_max * 7u + r.query_max;
            sum = sum * 1000003u + r.cells_computed;
            sum = sum * 1000003u + r.traceback_bytes;
            for (const std::uint64_t columns : r.stripe_columns)
                sum = sum * 31u + columns;
            for (const char ch : r.cigar.to_string())
                sum = sum * 131u + static_cast<std::uint64_t>(ch);
            *checksum = sum;
            *cells += r.cells_computed;
        }
    };

    return time_pools({run_pool}, pool.size()).front();
}

struct UngappedWorkload {
    std::vector<std::uint8_t> target;
    std::vector<std::uint8_t> query;
};

/** Seconds per pass over the workload's seed positions. */
Spread
time_ungapped(align::kernels::UngappedKernelFn kernel,
              const UngappedWorkload& w,
              const align::ScoringParams& scoring, std::uint64_t* checksum)
{
    using Clock = std::chrono::steady_clock;
    const auto run_once = [&](std::uint64_t* sum) {
        for (std::size_t s = 1000; s + 1000 < w.target.size(); s += 97) {
            const auto r = kernel({w.target.data(), w.target.size()},
                                  {w.query.data(), w.query.size()}, s, s,
                                  19, scoring, 910);
            *sum = *sum * 1000003u +
                   static_cast<std::uint64_t>(r.score) * 31u +
                   r.target_hi * 7u + r.target_lo * 3u + r.cells_computed;
        }
    };
    run_once(checksum);  // warmup + checksum

    std::uint64_t dummy = 0;
    const Spread seconds = repeat_windows([&] {
        std::uint64_t reps = 0;
        const auto start = Clock::now();
        double elapsed = 0.0;
        do {
            run_once(&dummy);
            ++reps;
            elapsed = std::chrono::duration<double>(Clock::now() - start)
                          .count();
        } while (elapsed < kMinSeconds);
        return elapsed / static_cast<double>(reps);
    });
    benchmark::DoNotOptimize(dummy);
    return seconds;
}

int
run_kernel_comparison(bool emit_json, double check_speedup)
{
    using namespace align::kernels;
    const auto scoring = align::ScoringParams::paper_defaults();
    const auto pool = make_tile_pool();

    // Seed baseline: the row-major kernel this repo shipped with (the
    // scalar tier and the differential reference), timed interleaved
    // with every usable tier.
    std::vector<const KernelImpl*> usable;
    std::vector<BswKernelFn> bsw_kernels = {&bsw_rowmajor_batch};
    for (const KernelImpl& k : KernelRegistry::instance().kernels()) {
        if (k.usable()) {
            usable.push_back(&k);
            bsw_kernels.push_back(k.bsw);
        }
    }
    const std::vector<PoolTiming> bsw_timings =
        time_bsw(bsw_kernels, pool, scoring);
    const PoolTiming& baseline = bsw_timings.front();

    struct Row {
        const char* name;
        int id;
        PoolTiming timing;
        double speedup;
    };
    std::vector<Row> rows;
    bool identical = true;
    for (std::size_t i = 0; i < usable.size(); ++i) {
        Row row{usable[i]->name, usable[i]->id, bsw_timings[i + 1], 0.0};
        row.speedup = baseline.seconds_per_tile.median /
                      row.timing.seconds_per_tile.median;
        if (row.timing.checksum != baseline.checksum)
            identical = false;
        rows.push_back(row);
    }

    double best_vectorized = 0.0;
    for (const Row& row : rows)
        if (row.id > 0 && row.speedup > best_vectorized)
            best_vectorized = row.speedup;

    // GACT-X extension kernels vs the seed stripe-sequential engine
    // (kept as gactx_reference_align, the differential baseline).
    const align::GactXParams gactx_params;  // paper defaults: 1920b tiles
    const auto gactx_pool = make_gactx_pool(gactx_params);
    const PoolTiming gactx_baseline =
        time_gactx(&gactx_reference_align, gactx_pool, gactx_params);
    struct GRow {
        const char* name;
        int id;
        PoolTiming timing;
        PoolTiming score_only;
        double speedup;
    };
    std::vector<GRow> grows;
    for (const KernelImpl& k : KernelRegistry::instance().kernels()) {
        if (!k.usable())
            continue;
        GRow row{k.name, k.id,
                 time_gactx(k.gactx, gactx_pool, gactx_params),
                 time_gactx(k.gactx_score_only, gactx_pool, gactx_params),
                 0.0};
        row.speedup = gactx_baseline.seconds_per_tile.median /
                      row.timing.seconds_per_tile.median;
        // Score-only results carry no CIGAR, so they are checked
        // against each other rather than against the seed engine.
        if (row.timing.checksum != gactx_baseline.checksum ||
            (!grows.empty() && row.score_only.checksum !=
                                   grows.front().score_only.checksum))
            identical = false;
        grows.push_back(row);
    }

    double best_gactx = 0.0;
    for (const GRow& row : grows)
        if (row.id > 0 && row.speedup > best_gactx)
            best_gactx = row.speedup;

    // Ungapped x-drop: scalar vs every vector tier.
    UngappedWorkload uw;
    uw.target = random_codes(16000, 500);
    uw.query = mutated_copy(uw.target, 0.12, 0.0, 501);
    uw.query.resize(uw.target.size(),
                    0);  // keep seed coordinates in range
    std::uint64_t ungapped_ref_sum = 0;
    const Spread ungapped_scalar_s = time_ungapped(
        &ungapped_xdrop_scalar, uw, scoring, &ungapped_ref_sum);
    struct URow {
        const char* name;
        Spread seconds;
        double speedup;
    };
    std::vector<URow> urows{{"scalar", ungapped_scalar_s, 1.0}};
    for (const KernelImpl& k : KernelRegistry::instance().kernels()) {
        if (!k.usable() || k.id == 0)
            continue;
        std::uint64_t sum = 0;
        const Spread s = time_ungapped(k.ungapped, uw, scoring, &sum);
        if (sum != ungapped_ref_sum)
            identical = false;
        urows.push_back({k.name, s, ungapped_scalar_s.median / s.median});
    }

    // Seed kmer extraction: byte-per-base assembly vs the packed
    // representation's 2-bit extract_kmer, equal checksums required.
    // N runs are part of the workload — both paths must zero those
    // lanes, and the packed path pays the n-word lookups.
    struct SRow {
        std::size_t k;
        Spread bytes_seconds{};   // per extraction
        Spread packed_seconds{};  // per extraction
        double speedup = 0.0;
    };
    std::vector<SRow> srows;
    {
        using Clock = std::chrono::steady_clock;
        constexpr std::size_t kSeqLen = 1 << 20;
        Rng nrng(18);
        auto codes = random_codes(kSeqLen, 17);
        for (std::size_t i = 0; i < codes.size(); ++i)
            if (nrng.chance(0.005))
                for (std::size_t j = 0; j < 20 && i < codes.size();
                     ++j, ++i)
                    codes[i] = 4;  // N
        const auto packed =
            seq::PackedSequence::pack("t", {codes.data(), codes.size()});
        for (const std::size_t k : {12ul, 19ul, 32ul}) {
            SRow row{k};
            const std::size_t limit = codes.size() - k;
            std::uint64_t byte_sum = 0;
            std::uint64_t packed_sum = 0;
            const auto time_arm = [&](auto&& extract, std::uint64_t* sum) {
                const Spread seconds = repeat_windows([&] {
                    std::uint64_t n = 0;
                    const auto start = Clock::now();
                    double elapsed = 0.0;
                    do {
                        for (std::size_t pos = 0; pos < limit; pos += 3) {
                            *sum += extract(pos);
                            ++n;
                        }
                        elapsed = std::chrono::duration<double>(
                                      Clock::now() - start)
                                      .count();
                    } while (elapsed < kMinSeconds);
                    return elapsed / static_cast<double>(n);
                });
                benchmark::DoNotOptimize(*sum);
                return seconds;
            };
            row.bytes_seconds = time_arm(
                [&](std::size_t pos) { return byte_kmer(codes, pos, k); },
                &byte_sum);
            row.packed_seconds = time_arm(
                [&](std::size_t pos) {
                    return packed.extract_kmer(pos, k);
                },
                &packed_sum);
            // The sums cover different iteration counts; compare one
            // deterministic pass instead.
            std::uint64_t byte_pass = 0;
            std::uint64_t packed_pass = 0;
            for (std::size_t pos = 0; pos < limit; pos += 3) {
                byte_pass = byte_pass * 1000003u + byte_kmer(codes, pos, k);
                packed_pass =
                    packed_pass * 1000003u + packed.extract_kmer(pos, k);
            }
            if (byte_pass != packed_pass)
                identical = false;
            row.speedup = row.packed_seconds.median > 0.0
                              ? row.bytes_seconds.median /
                                    row.packed_seconds.median
                              : 0.0;
            srows.push_back(row);
        }
    }

    if (emit_json) {
        std::printf("{\n  %s,\n", bench::json_stamp().c_str());
        std::printf("  \"bench\": \"micro_kernels\",\n");
        std::printf("  \"tile_size\": %zu, \"band\": %zu, \"pairs\": %zu,\n",
                    kTileSize, kBand, kNumPairs);
        std::printf("  \"repeats\": %d,\n", kRepeats);
        std::printf("  \"bit_identical\": %s,\n",
                    identical ? "true" : "false");
        std::printf("  \"bsw\": {\n");
        std::printf("    \"baseline_rowmajor\": {%s},\n",
                    pool_json(baseline).c_str());
        std::printf("    \"kernels\": [\n");
        for (std::size_t i = 0; i < rows.size(); ++i)
            std::printf("      {\"name\": \"%s\", \"id\": %d, %s, "
                        "\"speedup_vs_seed\": %.3f}%s\n",
                        rows[i].name, rows[i].id,
                        pool_json(rows[i].timing).c_str(), rows[i].speedup,
                        i + 1 < rows.size() ? "," : "");
        std::printf("    ],\n");
        std::printf("    \"best_vectorized_speedup\": %.3f\n  },\n",
                    best_vectorized);
        std::printf("  \"gactx\": {\n");
        std::printf("    \"tile_size\": %zu, \"num_pe\": %zu, \"pairs\": "
                    "%zu,\n",
                    gactx_params.tile_size, gactx_params.num_pe,
                    kNumGactxPairs);
        std::printf("    \"baseline_seed_engine\": {%s},\n",
                    pool_json(gactx_baseline).c_str());
        std::printf("    \"kernels\": [\n");
        for (std::size_t i = 0; i < grows.size(); ++i)
            std::printf("      {\"name\": \"%s\", \"id\": %d, %s, "
                        "\"speedup_vs_seed\": %.3f, "
                        "\"score_only\": {%s}, "
                        "\"pointer_overhead\": %.3f}%s\n",
                        grows[i].name, grows[i].id,
                        pool_json(grows[i].timing).c_str(), grows[i].speedup,
                        pool_json(grows[i].score_only).c_str(),
                        grows[i].timing.seconds_per_tile.median /
                            grows[i].score_only.seconds_per_tile.median,
                        i + 1 < grows.size() ? "," : "");
        std::printf("    ],\n");
        std::printf("    \"best_vectorized_speedup\": %.3f\n  },\n",
                    best_gactx);
        std::printf("  \"ungapped\": [\n");
        for (std::size_t i = 0; i < urows.size(); ++i)
            std::printf("    {\"name\": \"%s\", %s, "
                        "\"speedup_vs_scalar\": %.3f}%s\n",
                        urows[i].name,
                        spread_json("seconds_per_call", urows[i].seconds, 9)
                            .c_str(),
                        urows[i].speedup, i + 1 < urows.size() ? "," : "");
        std::printf("  ],\n");
        std::printf("  \"seed_extract\": [\n");
        for (std::size_t i = 0; i < srows.size(); ++i)
            std::printf(
                "    {\"k\": %zu, %s, %s, \"packed_speedup\": %.3f}%s\n",
                srows[i].k,
                spread_json("bytes_seconds", srows[i].bytes_seconds, 11)
                    .c_str(),
                spread_json("packed_seconds", srows[i].packed_seconds, 11)
                    .c_str(),
                srows[i].speedup, i + 1 < srows.size() ? "," : "");
        std::printf("  ]\n}\n");
    }

    if (!identical) {
        std::fprintf(stderr,
                     "FAIL: kernel results are not bit-identical\n");
        return 1;
    }
    if (check_speedup >= 0.0) {
        if (best_vectorized == 0.0) {
            std::fprintf(stderr,
                         "note: no vectorized kernel usable on this "
                         "build/CPU; speedup gate skipped\n");
            return 0;
        }
        bool gate_ok = true;
        const auto gate = [&](const char* family, const char* name,
                              double speedup) {
            if (speedup >= check_speedup)
                return;
            std::fprintf(stderr,
                         "FAIL: %s %s speedup %.3fx < required %.3fx\n",
                         name, family, speedup, check_speedup);
            gate_ok = false;
        };
        for (const Row& row : rows)
            if (row.id > 0)
                gate("BSW", row.name, row.speedup);
        for (const GRow& row : grows)
            if (row.id > 0)
                gate("GACT-X", row.name, row.speedup);
        if (!gate_ok)
            return 1;
        std::fprintf(stderr,
                     "speedup gate ok: every vector tier's bsw and gactx "
                     ">= %.3fx\n",
                     check_speedup);
    }
    return 0;
}

}  // namespace

int
main(int argc, char** argv)
{
    bool json = false;
    double check_speedup = -1.0;
    std::vector<char*> passthrough{argv[0]};
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0) {
            json = true;
        } else if (std::strcmp(argv[i], "--check-speedup") == 0) {
            // A missing or malformed threshold must be a hard error:
            // silently dropping it (or atof's 0.0 fallback) would turn
            // the CI gate into a trivially-passing no-op.
            if (i + 1 >= argc) {
                std::fprintf(stderr,
                             "--check-speedup requires a threshold\n");
                return 2;
            }
            const char* text = argv[++i];
            char* end = nullptr;
            check_speedup = std::strtod(text, &end);
            if (end == text || *end != '\0' || check_speedup < 0.0) {
                std::fprintf(stderr,
                             "--check-speedup: bad threshold '%s'\n", text);
                return 2;
            }
        } else {
            passthrough.push_back(argv[i]);
        }
    }
    if (json || check_speedup >= 0.0)
        return run_kernel_comparison(json, check_speedup);

    int bench_argc = static_cast<int>(passthrough.size());
    benchmark::Initialize(&bench_argc, passthrough.data());
    if (benchmark::ReportUnrecognizedArguments(bench_argc,
                                               passthrough.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
