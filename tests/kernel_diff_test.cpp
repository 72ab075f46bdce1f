/**
 * @file
 * Differential kernel-test harness (the bit-identity guarantee of the
 * dispatch registry, DESIGN.md "Filter kernels").
 *
 * A naive full-matrix Smith-Waterman restricted to the band — quadratic
 * memory, written for obviousness, independent of every production
 * kernel — defines the boundary semantics documented in banded_sw.h.
 * Thousands of seeded-Rng tiles (uniform-random over 2- and 4-letter
 * alphabets, mutated copies, and synth-evolved pairs across the paper's
 * Fig. 8 distance range; bands 0..64; tile sizes including 0, 1, odd,
 * and larger than the band) are swept through every registered BSW
 * kernel plus the row-major reference, asserting the *entire* BswResult
 * (max score, xmax cell, cells_computed) matches the naive matrix.
 * The ungapped x-drop kernels are diffed against the scalar kernel the
 * same way. One sweep repeats all of it under an asymmetric matrix with
 * 25 distinct entries, so each tier's substitution index order shows.
 *
 * The GACT-X extension kernels get the same treatment: the seed
 * column-serial stripe engine survives as `gactx_reference_align`, and
 * thousands of seeded tiles (random, related, synth-evolved; num_pe in
 * {1, 7, 17, 32, 40, 64, 80}; ydrop sweeps; degenerate/empty spans;
 * traceback-OOM budgets; full paper-size tiles run on fresh threads) are swept through
 * every registered wavefront kernel, asserting the *entire* TileResult — max score, the (target_max,
 * query_max) tie-break, cells_computed, stripe_columns,
 * traceback_bytes, and the CIGAR — matches the seed engine exactly.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include "align/banded_sw.h"
#include "align/kernels/bsw_kernels.h"
#include "align/kernels/gactx_kernels.h"
#include "align/kernels/kernel_registry.h"
#include "align/scoring.h"
#include "synth/species.h"
#include "util/rng.h"

namespace darwin::align {
namespace {

using kernels::KernelImpl;
using kernels::KernelRegistry;

std::span<const std::uint8_t>
sp(const std::vector<std::uint8_t>& v)
{
    return {v.data(), v.size()};
}

/** Uniform random codes over the first `alphabet` base codes. */
std::vector<std::uint8_t>
random_codes(std::size_t len, std::uint32_t alphabet, Rng& rng)
{
    std::vector<std::uint8_t> codes(len);
    for (auto& c : codes)
        c = static_cast<std::uint8_t>(rng.uniform(alphabet));
    return codes;
}

std::vector<std::uint8_t>
mutated_copy(const std::vector<std::uint8_t>& src, double sub_rate,
             double indel_rate, Rng& rng)
{
    std::vector<std::uint8_t> out;
    out.reserve(src.size());
    for (std::size_t i = 0; i < src.size(); ++i) {
        if (rng.chance(indel_rate)) {
            if (rng.chance(0.5))
                continue;  // delete
            out.push_back(static_cast<std::uint8_t>(rng.uniform(4)));
        }
        std::uint8_t base = src[i];
        if (rng.chance(sub_rate))
            base = static_cast<std::uint8_t>(rng.uniform(4));
        out.push_back(base);
    }
    return out;
}

/**
 * Naive full-matrix banded SW: (m+1) x (n+1) Gotoh DP where every cell
 * outside |i - j| <= band stays -inf, row 0 / column 0 are V = 0
 * alignment-start boundaries, and the best cell is tracked row-major
 * with strictly-greater updates. This *is* the semantics contract; keep
 * it brute-force.
 */
BswResult
banded_reference(std::span<const std::uint8_t> target,
                 std::span<const std::uint8_t> query,
                 const ScoringParams& scoring, std::size_t band)
{
    const std::size_t n = target.size();
    const std::size_t m = query.size();
    BswResult out;
    if (n == 0 || m == 0)
        return out;

    std::vector<std::vector<Score>> V(m + 1,
                                      std::vector<Score>(n + 1,
                                                         kScoreNegInf));
    auto G = V, H = V;
    for (std::size_t j = 0; j <= n; ++j)
        V[0][j] = 0;
    for (std::size_t i = 0; i <= m; ++i)
        V[i][0] = 0;

    for (std::size_t i = 1; i <= m; ++i) {
        for (std::size_t j = 1; j <= n; ++j) {
            const std::size_t off = i > j ? i - j : j - i;
            if (off > band)
                continue;
            H[i][j] = std::max(V[i][j - 1] - scoring.gap_open,
                               H[i][j - 1] - scoring.gap_extend);
            G[i][j] = std::max(V[i - 1][j] - scoring.gap_open,
                               G[i - 1][j] - scoring.gap_extend);
            const Score diag =
                V[i - 1][j - 1] +
                scoring.substitution(target[j - 1], query[i - 1]);
            Score val = std::max<Score>(0, diag);
            val = std::max(val, H[i][j]);
            val = std::max(val, G[i][j]);
            V[i][j] = val;
            ++out.cells_computed;
            if (val > out.max_score) {
                out.max_score = val;
                out.target_max = j;
                out.query_max = i;
            }
        }
    }
    return out;
}

/** Every BSW implementation that must match the reference. */
std::vector<std::pair<std::string, kernels::BswKernelFn>>
bsw_contenders()
{
    std::vector<std::pair<std::string, kernels::BswKernelFn>> out;
    out.emplace_back("rowmajor", &kernels::bsw_rowmajor_reference);
    for (const KernelImpl& k : KernelRegistry::instance().kernels())
        if (k.usable())
            out.emplace_back(k.name, k.bsw);
    return out;
}

void
expect_bsw_identical(std::span<const std::uint8_t> t,
                     std::span<const std::uint8_t> q,
                     const ScoringParams& scoring, std::size_t band,
                     const std::string& context)
{
    const BswResult ref = banded_reference(t, q, scoring, band);
    for (const auto& [name, fn] : bsw_contenders()) {
        const BswResult got = fn(t, q, scoring, band);
        EXPECT_EQ(got.max_score, ref.max_score)
            << name << " " << context << " band=" << band;
        EXPECT_EQ(got.target_max, ref.target_max)
            << name << " " << context << " band=" << band;
        EXPECT_EQ(got.query_max, ref.query_max)
            << name << " " << context << " band=" << band;
        EXPECT_EQ(got.cells_computed, ref.cells_computed)
            << name << " " << context << " band=" << band;
        if (got != ref)
            return;  // one detailed failure is enough
    }
}

TEST(KernelDiff, RandomTileSweep)
{
    const auto scoring = ScoringParams::paper_defaults();
    const std::size_t bands[] = {0, 1, 2, 3, 7, 32, 64};
    const std::size_t sizes[] = {0, 1, 3, 16, 33, 64};
    Rng rng(1001);
    int tiles = 0;
    for (const std::uint32_t alphabet : {2u, 4u}) {
        for (const std::size_t n : sizes) {
            for (const std::size_t m : sizes) {
                for (const std::size_t band : bands) {
                    for (int rep = 0; rep < 2; ++rep) {
                        const auto t = random_codes(n, alphabet, rng);
                        const auto q = random_codes(m, alphabet, rng);
                        expect_bsw_identical(
                            sp(t), sp(q), scoring, band,
                            "random a" + std::to_string(alphabet) + " n=" +
                                std::to_string(n) + " m=" +
                                std::to_string(m));
                        ++tiles;
                    }
                }
            }
        }
    }
    EXPECT_GT(tiles, 1000);
}

TEST(KernelDiff, RelatedPairSweep)
{
    const auto scoring = ScoringParams::paper_defaults();
    const std::size_t bands[] = {0, 8, 32, 64};
    const double sub_rates[] = {0.05, 0.15, 0.30, 0.50};
    Rng rng(2002);
    for (const double sub_rate : sub_rates) {
        for (const std::size_t band : bands) {
            for (int rep = 0; rep < 12; ++rep) {
                const auto t = random_codes(97, 4, rng);  // odd, > band
                const auto q = mutated_copy(t, sub_rate, 0.02, rng);
                expect_bsw_identical(sp(t), sp(q), scoring, band,
                                     "related sub=" +
                                         std::to_string(sub_rate));
            }
        }
    }
}

TEST(KernelDiff, UnitScoringTieBreakSweep)
{
    // Unit scoring over a 2-letter alphabet maximizes score ties, which
    // is exactly what stresses the xmax tie-break reduction.
    const auto scoring = ScoringParams::unit(1, -1, 2, 1);
    Rng rng(3003);
    for (const std::size_t band : {0u, 1u, 5u, 17u, 64u}) {
        for (int rep = 0; rep < 40; ++rep) {
            const auto t = random_codes(61, 2, rng);
            const auto q = random_codes(59, 2, rng);
            expect_bsw_identical(sp(t), sp(q), scoring, band, "unit2");
        }
    }
}

TEST(KernelDiff, SynthEvolvedPairSweep)
{
    // Tiles cut from whole synthetic genomes of the paper's four species
    // pairs (Fig. 8 distance range ~0.1..0.6 substitutions/site).
    const auto scoring = ScoringParams::paper_defaults();
    synth::AncestorConfig config;
    config.num_chromosomes = 1;
    config.chromosome_length = 6000;
    config.exons_per_chromosome = 5;
    Rng rng(4004);
    for (const auto& spec : synth::paper_species_pairs()) {
        const auto pair = synth::make_species_pair(spec, config, 77);
        const auto& t = pair.target.genome.chromosome(0).codes();
        const auto& q = pair.query.genome.chromosome(0).codes();
        const std::size_t tile = 96;
        const std::size_t lim = std::min(t.size(), q.size()) - tile;
        for (int rep = 0; rep < 60; ++rep) {
            const std::size_t off = rng.uniform(static_cast<std::uint32_t>(lim));
            const std::vector<std::uint8_t> tt(t.begin() + off,
                                               t.begin() + off + tile);
            const std::vector<std::uint8_t> qq(q.begin() + off,
                                               q.begin() + off + tile);
            for (const std::size_t band : {8u, 32u})
                expect_bsw_identical(sp(tt), sp(qq), scoring, band,
                                     "evolved " + spec.pair_name);
        }
    }
}

TEST(KernelDiff, UngappedKernelsMatchScalar)
{
    const auto scoring = ScoringParams::paper_defaults();
    const Score xdrops[] = {0, 10, 50, 1000};
    Rng rng(5005);
    for (int rep = 0; rep < 400; ++rep) {
        const std::uint32_t alphabet = (rep % 2 == 0) ? 2 : 4;
        const auto t = random_codes(200, alphabet, rng);
        auto q = mutated_copy(t, 0.2, 0.02, rng);
        if (q.size() < 40)
            continue;
        const std::size_t seed_len = rep % 3 == 0 ? 0 : 12;
        const std::size_t seed_t = rng.uniform(static_cast<std::uint32_t>(
            t.size() - seed_len));
        const std::size_t seed_q = rng.uniform(static_cast<std::uint32_t>(
            q.size() - seed_len));
        const Score xdrop = xdrops[rep % 4];
        const UngappedResult ref = kernels::ungapped_xdrop_scalar(
            sp(t), sp(q), seed_t, seed_q, seed_len, scoring, xdrop);
        for (const KernelImpl& k : KernelRegistry::instance().kernels()) {
            if (!k.usable())
                continue;
            const UngappedResult got = k.ungapped(
                sp(t), sp(q), seed_t, seed_q, seed_len, scoring, xdrop);
            ASSERT_TRUE(got == ref)
                << k.name << " rep=" << rep << " seed_t=" << seed_t
                << " seed_q=" << seed_q << " xdrop=" << xdrop
                << " score " << got.score << " vs " << ref.score
                << " cells " << got.cells_computed << " vs "
                << ref.cells_computed;
        }
    }
}

TEST(KernelDiff, VectorKernelsActuallyRegistered)
{
    // The differential sweep only proves what it covers: make sure the
    // build actually registered the SIMD kernels on x86 CI hosts.
#if defined(__x86_64__)
    const auto& kernels = KernelRegistry::instance().kernels();
    ASSERT_EQ(kernels.size(), 4u);
    EXPECT_TRUE(kernels[0].usable());  // scalar, always
    EXPECT_TRUE(kernels[1].compiled);
    EXPECT_TRUE(kernels[2].compiled);
    EXPECT_TRUE(kernels[3].compiled);
    for (const KernelImpl& k : kernels) {
        if (k.usable()) {
            EXPECT_NE(k.gactx, nullptr) << k.name;
        }
    }
#else
    GTEST_SKIP() << "non-x86 host: only the scalar kernel is expected";
#endif
}

// ---------------------------------------------------------------------------
// GACT-X extension kernels vs the seed column-serial stripe engine.
// ---------------------------------------------------------------------------

/** Every GACT-X implementation that must match the seed engine. */
std::vector<std::pair<std::string, kernels::GactXKernelFn>>
gactx_contenders()
{
    std::vector<std::pair<std::string, kernels::GactXKernelFn>> out;
    for (const KernelImpl& k : KernelRegistry::instance().kernels())
        if (k.usable())
            out.emplace_back(k.name, k.gactx);
    return out;
}

/** Field-for-field TileResult equality; true when score and CIGAR agree. */
bool
expect_tile_equal(const TileResult& got, const TileResult& ref,
                  const std::string& what)
{
    EXPECT_EQ(got.max_score, ref.max_score) << what;
    EXPECT_EQ(got.target_max, ref.target_max) << what;
    EXPECT_EQ(got.query_max, ref.query_max) << what;
    EXPECT_EQ(got.cells_computed, ref.cells_computed) << what;
    EXPECT_EQ(got.traceback_bytes, ref.traceback_bytes) << what;
    EXPECT_EQ(got.stripe_columns, ref.stripe_columns) << what;
    EXPECT_EQ(got.cigar.to_string(), ref.cigar.to_string()) << what;
    return got.max_score == ref.max_score &&
           got.cigar.to_string() == ref.cigar.to_string();
}

std::string
describe(const std::string& name, const std::string& context,
         const GactXParams& params)
{
    return name + " " + context + " npe=" + std::to_string(params.num_pe) +
           " ydrop=" + std::to_string(params.ydrop);
}

int
expect_gactx_identical(std::span<const std::uint8_t> t,
                       std::span<const std::uint8_t> q,
                       const GactXParams& params,
                       const std::string& context)
{
    const TileResult ref = kernels::gactx_reference_align(t, q, params);
    int checked = 0;
    for (const auto& [name, fn] : gactx_contenders()) {
        ++checked;
        if (!expect_tile_equal(fn(t, q, params), ref,
                               describe(name, context, params)))
            return checked;  // one detailed failure is enough
    }
    return checked;
}

/**
 * Each kernel's score-only GACT-X variant against its own full kernel
 * on the same tile: the same maximum, cell and work accounting, and no
 * CIGAR.
 */
void
expect_score_only_matches_full(std::span<const std::uint8_t> t,
                               std::span<const std::uint8_t> q,
                               const GactXParams& params,
                               const std::string& context)
{
    for (const KernelImpl& k : KernelRegistry::instance().kernels()) {
        if (!k.usable())
            continue;
        ASSERT_NE(k.gactx_score_only, nullptr) << k.name;
        const TileResult full = k.gactx(t, q, params);
        const TileResult probe = k.gactx_score_only(t, q, params);
        const std::string what = std::string(k.name) + " score-only " +
                                 context +
                                 " npe=" + std::to_string(params.num_pe) +
                                 " ydrop=" + std::to_string(params.ydrop);
        EXPECT_EQ(probe.max_score, full.max_score) << what;
        EXPECT_EQ(probe.target_max, full.target_max) << what;
        EXPECT_EQ(probe.query_max, full.query_max) << what;
        EXPECT_EQ(probe.cells_computed, full.cells_computed) << what;
        EXPECT_EQ(probe.stripe_columns, full.stripe_columns) << what;
        EXPECT_EQ(probe.traceback_bytes, full.traceback_bytes) << what;
        EXPECT_TRUE(probe.cigar.empty()) << what;
    }
}

TEST(GactXKernelDiff, RandomTileSweep)
{
    // 17 and 40 are no multiple of any tier's lane count: partial
    // blocks of phantom lanes at every register-walk block count. 80 is
    // past kGactXPad rows: every tier runs the lane-buffer walk.
    auto params = GactXParams{};
    const std::size_t npes[] = {1, 7, 17, 32, 40, 64, 80};
    const Score ydrops[] = {30, 500, 9430};
    const std::size_t sizes[] = {0, 1, 3, 17, 64, 129};
    Rng rng(6006);
    int tiles = 0;
    for (const std::uint32_t alphabet : {2u, 4u}) {
        for (const std::size_t n : sizes) {
            for (const std::size_t m : sizes) {
                for (const std::size_t npe : npes) {
                    for (const Score ydrop : ydrops) {
                        const auto t = random_codes(n, alphabet, rng);
                        const auto q = random_codes(m, alphabet, rng);
                        params.num_pe = npe;
                        params.ydrop = ydrop;
                        const std::string context =
                            "random a" + std::to_string(alphabet) +
                            " n=" + std::to_string(n) +
                            " m=" + std::to_string(m);
                        expect_gactx_identical(sp(t), sp(q), params,
                                               context);
                        expect_score_only_matches_full(sp(t), sp(q),
                                                       params, context);
                        ++tiles;
                    }
                }
            }
        }
    }
    EXPECT_GT(tiles, 800);
}

TEST(GactXKernelDiff, RelatedPairSweep)
{
    // Mutated copies keep the DP path near the main diagonal — the
    // regime the X-drop bound and the stripe jstart scan are tuned for.
    auto params = GactXParams{};
    const double sub_rates[] = {0.05, 0.15, 0.30, 0.50};
    const Score ydrops[] = {100, 1000, 9430};
    Rng rng(7007);
    for (const double sub_rate : sub_rates) {
        for (const Score ydrop : ydrops) {
            for (const std::size_t npe :
                 {1u, 7u, 17u, 32u, 40u, 64u, 80u}) {
                for (int rep = 0; rep < 6; ++rep) {
                    const auto t = random_codes(193, 4, rng);  // odd
                    const auto q = mutated_copy(t, sub_rate, 0.03, rng);
                    params.num_pe = npe;
                    params.ydrop = ydrop;
                    expect_gactx_identical(sp(t), sp(q), params,
                                           "related sub=" +
                                               std::to_string(sub_rate));
                }
            }
        }
    }
}

TEST(GactXKernelDiff, UnitScoringTieBreakSweep)
{
    // Unit scoring over a 2-letter alphabet maximizes score ties: the
    // global best must still be the first strictly-greater column with
    // the smallest row inside it, in stripe order.
    auto params = GactXParams{};
    params.scoring = ScoringParams::unit(1, -1, 2, 1);
    Rng rng(8008);
    for (const std::size_t npe : {1u, 2u, 7u, 32u}) {
        for (const Score ydrop : {5, 25, 200}) {
            for (int rep = 0; rep < 25; ++rep) {
                const auto t = random_codes(77, 2, rng);
                const auto q = random_codes(75, 2, rng);
                params.num_pe = npe;
                params.ydrop = ydrop;
                expect_gactx_identical(sp(t), sp(q), params, "unit2");
            }
        }
    }
}

TEST(GactXKernelDiff, TracebackMemoryLimitSweep)
{
    // Tiny traceback budgets hit the OOM path mid-tile: the kernels
    // must stop after the same stripe with the same accounted bytes.
    auto params = GactXParams{};
    Rng rng(9009);
    const std::uint64_t budgets[] = {1, 16, 64, 257, 1024};
    for (const std::uint64_t budget : budgets) {
        for (const std::size_t npe : {1u, 7u, 32u}) {
            for (int rep = 0; rep < 8; ++rep) {
                const auto t = random_codes(160, 4, rng);
                const auto q = mutated_copy(t, 0.1, 0.02, rng);
                params.num_pe = npe;
                params.ydrop = 9430;
                params.traceback_bytes = budget;
                expect_gactx_identical(sp(t), sp(q), params,
                                       "oom budget=" +
                                           std::to_string(budget));
            }
        }
    }
}

TEST(GactXKernelDiff, SynthEvolvedTileSweep)
{
    // Tiles cut from whole synthetic genomes of the paper's four species
    // pairs, at aligned offsets — realistic indel structure drives the
    // stripe window walk (jstart advancing, frontiers narrowing).
    auto params = GactXParams{};
    synth::AncestorConfig config;
    config.num_chromosomes = 1;
    config.chromosome_length = 6000;
    config.exons_per_chromosome = 5;
    Rng rng(1010);
    int checked = 0;
    for (const auto& spec : synth::paper_species_pairs()) {
        const auto pair = synth::make_species_pair(spec, config, 78);
        const auto& t = pair.target.genome.chromosome(0).codes();
        const auto& q = pair.query.genome.chromosome(0).codes();
        const std::size_t tile = 384;
        const std::size_t lim = std::min(t.size(), q.size()) - tile;
        for (int rep = 0; rep < 10; ++rep) {
            const std::size_t off =
                rng.uniform(static_cast<std::uint32_t>(lim));
            const std::vector<std::uint8_t> tt(t.begin() + off,
                                               t.begin() + off + tile);
            const std::vector<std::uint8_t> qq(q.begin() + off,
                                               q.begin() + off + tile);
            for (const std::size_t npe : {7u, 32u, 64u}) {
                for (const Score ydrop : {500, 9430}) {
                    params.num_pe = npe;
                    params.ydrop = ydrop;
                    checked += expect_gactx_identical(
                        sp(tt), sp(qq), params,
                        "evolved " + spec.pair_name);
                    expect_score_only_matches_full(
                        sp(tt), sp(qq), params,
                        "evolved " + spec.pair_name);
                }
            }
        }
    }
    EXPECT_GT(checked, 0);
}

TEST(GactXKernelDiff, FullTilesWithPlantedIndelOnFreshThreads)
{
    // Full 1920-base tiles at paper defaults, each with one planted
    // indel: the traceback crosses the gap and the stripes after it,
    // whose windows start at jstart > 0. Every kernel first runs on a
    // fresh thread, whose empty pointer pool then grows stripe by
    // stripe mid-tile, and again on this thread with the pool reused.
    // Y = 9430 admits gaps of up to 300 bases (430 + 299 * 30 = 9400).
    const GactXParams params;
    const std::size_t tile = params.tile_size;
    const std::size_t pos = 700;
    Rng rng(1212);
    for (const std::size_t len : {200u, 250u, 300u}) {
        for (const bool deletion : {true, false}) {
            // `full` keeps all 1920 bases; `gapped` drops [pos, pos+len)
            // of the same source and refills to 1920 from beyond it.
            const auto src = random_codes(tile + len, 4, rng);
            const std::vector<std::uint8_t> full(src.begin(),
                                                 src.begin() + tile);
            std::vector<std::uint8_t> gapped(src.begin(), src.begin() + pos);
            gapped.insert(gapped.end(), src.begin() + pos + len, src.end());
            const auto mutated = mutated_copy(gapped, 0.05, 0.0, rng);
            const auto& t = deletion ? full : mutated;
            const auto& q = deletion ? mutated : full;
            const std::string context = std::string(deletion ? "del" : "ins") +
                                        std::to_string(len);

            const TileResult ref =
                kernels::gactx_reference_align(sp(t), sp(q), params);
            std::uint32_t longest_gap = 0;
            for (const CigarRun& run : ref.cigar.runs())
                if (run.op == EditOp::Insert || run.op == EditOp::Delete)
                    longest_gap = std::max(longest_gap, run.length);
            EXPECT_GE(longest_gap, len) << context;
            // The best cell's stripe stores fewer columns than its
            // column index, so that stripe's window starts past column 0.
            ASSERT_GT(ref.query_max, 0u) << context;
            EXPECT_LE(ref.stripe_columns[(ref.query_max - 1) / params.num_pe],
                      ref.target_max)
                << context;

            for (const auto& [name, fn] : gactx_contenders()) {
                TileResult fresh;
                std::thread([&, fn = fn] {
                    fresh = fn(sp(t), sp(q), params);
                }).join();
                expect_tile_equal(fresh, ref,
                                  describe(name, context + " fresh thread",
                                           params));
                expect_tile_equal(fn(sp(t), sp(q), params), ref,
                                  describe(name, context, params));
            }
        }
    }
}

TEST(GactXKernelDiff, DegenerateSpans)
{
    // Empty/one-base spans on either side, and a tile whose row-0
    // boundary dies immediately under a minimal ydrop.
    auto params = GactXParams{};
    Rng rng(1111);
    const auto t = random_codes(50, 4, rng);
    const auto q = random_codes(50, 4, rng);
    const std::vector<std::uint8_t> empty;
    const std::vector<std::uint8_t> one = {2};
    for (const std::size_t npe : {1u, 32u}) {
        params.num_pe = npe;
        params.ydrop = 9430;
        expect_gactx_identical(sp(empty), sp(q), params, "empty target");
        expect_gactx_identical(sp(t), sp(empty), params, "empty query");
        expect_gactx_identical(sp(empty), sp(empty), params, "both empty");
        expect_gactx_identical(sp(one), sp(q), params, "one-base target");
        expect_gactx_identical(sp(t), sp(one), params, "one-base query");
        params.ydrop = 1;  // boundary row dies at the first gap column
        expect_gactx_identical(sp(t), sp(q), params, "ydrop=1");
    }
}

// ---------------------------------------------------------------------------
// Substitution index order, for every tier and kernel family.
// ---------------------------------------------------------------------------

/**
 * A matrix whose 25 entries are all distinct, with an asymmetric
 * off-diagonal. A lookup that swaps target and query (q * 5 + t), or
 * mixes up the two halves of a table split in registers, scores
 * differently here; the shipped paper and unit matrices are symmetric
 * and hide both mistakes.
 */
ScoringParams
asymmetric_scoring()
{
    ScoringParams scoring;
    const Score diag[seq::kNumCodes] = {91, 100, 95, 87, -3};
    for (std::size_t t = 0; t < seq::kNumCodes; ++t)
        for (std::size_t q = 0; q < seq::kNumCodes; ++q)
            scoring.matrix[t][q] =
                t == q ? diag[t] : -static_cast<Score>(31 + 13 * t + 5 * q);
    scoring.gap_open = 90;
    scoring.gap_extend = 20;
    return scoring;
}

TEST(KernelDiff, AsymmetricMatrixSweep)
{
    const ScoringParams scoring = asymmetric_scoring();
    std::vector<Score> entries(scoring.matrix.front().begin(),
                               scoring.matrix.back().end());
    std::sort(entries.begin(), entries.end());
    ASSERT_EQ(std::unique(entries.begin(), entries.end()), entries.end());
    ASSERT_NE(scoring.substitution(0, 4), scoring.substitution(4, 0));

    GactXParams params;
    params.scoring = scoring;
    params.ydrop = 600;
    Rng rng(1313);
    int scored = 0;  // tiles with a positive GACT-X maximum
    for (int rep = 0; rep < 120; ++rep) {
        // All five codes, N included, so every table entry is read.
        const auto t = random_codes(150, 5, rng);
        const auto q = rep % 2 == 0 ? mutated_copy(t, 0.2, 0.02, rng)
                                    : random_codes(141, 5, rng);
        const std::string context = "asymmetric rep=" + std::to_string(rep);

        for (const std::size_t band : {8u, 33u})
            expect_bsw_identical(sp(t), sp(q), scoring, band, context);

        const std::size_t seed_len = rep % 3 == 0 ? 0 : 12;
        const std::size_t seed_t = rng.uniform(
            static_cast<std::uint32_t>(t.size() - seed_len));
        const std::size_t seed_q = rng.uniform(
            static_cast<std::uint32_t>(q.size() - seed_len));
        const UngappedResult ungapped = kernels::ungapped_xdrop_scalar(
            sp(t), sp(q), seed_t, seed_q, seed_len, scoring, 300);
        for (const KernelImpl& k : KernelRegistry::instance().kernels()) {
            if (!k.usable())
                continue;
            EXPECT_TRUE(k.ungapped(sp(t), sp(q), seed_t, seed_q, seed_len,
                                   scoring, 300) == ungapped)
                << k.name << " ungapped " << context;
        }

        params.num_pe = rep % 3 == 0 ? 7 : 32;
        expect_gactx_identical(sp(t), sp(q), params, context);
        const TileResult ref = kernels::gactx_reference_align(sp(t), sp(q),
                                                              params);
        scored += ref.max_score > 0;
        for (const KernelImpl& k : KernelRegistry::instance().kernels()) {
            if (!k.usable())
                continue;
            const TileResult probe = k.gactx_score_only(sp(t), sp(q), params);
            const std::string what =
                describe(std::string(k.name) + " score-only", context, params);
            EXPECT_EQ(probe.max_score, ref.max_score) << what;
            EXPECT_EQ(probe.target_max, ref.target_max) << what;
            EXPECT_EQ(probe.query_max, ref.query_max) << what;
            EXPECT_EQ(probe.cells_computed, ref.cells_computed) << what;
        }
    }
    EXPECT_GT(scored, 60);
}

}  // namespace
}  // namespace darwin::align
