/**
 * @file
 * Cross-validation of the heuristic kernels against the full references:
 * banded SW vs full SW, GACT-X (stripe) vs the row-granular X-drop
 * reference vs full NW-extension, GACT vs GACT-X, ungapped X-drop, the
 * tiled extension driver, and the bounds of both traceback stores.
 */
#include <gtest/gtest.h>

#include "align/banded_sw.h"
#include "align/detail/pointer_grid.h"
#include "align/extension.h"
#include "align/gact.h"
#include "align/gactx.h"
#include "align/needleman_wunsch.h"
#include "align/smith_waterman.h"
#include "align/ungapped_xdrop.h"
#include "align/xdrop_reference.h"
#include "seq/sequence.h"
#include "util/rng.h"

namespace darwin::align {
namespace {

using seq::encode_string;

std::vector<std::uint8_t>
random_codes(std::size_t len, Rng& rng)
{
    std::vector<std::uint8_t> codes(len);
    for (auto& c : codes)
        c = static_cast<std::uint8_t>(rng.uniform(4));
    return codes;
}

std::span<const std::uint8_t>
sp(const std::vector<std::uint8_t>& v)
{
    return {v.data(), v.size()};
}

/** Copy with point substitutions and short indels; related sequences. */
std::vector<std::uint8_t>
mutated_copy(const std::vector<std::uint8_t>& src, double sub_rate,
             double indel_rate, Rng& rng)
{
    std::vector<std::uint8_t> out;
    out.reserve(src.size());
    for (std::size_t i = 0; i < src.size(); ++i) {
        if (rng.chance(indel_rate)) {
            if (rng.chance(0.5)) {
                continue;  // delete
            }
            out.push_back(static_cast<std::uint8_t>(rng.uniform(4)));
        }
        std::uint8_t base = src[i];
        if (rng.chance(sub_rate))
            base = static_cast<std::uint8_t>(rng.uniform(4));
        out.push_back(base);
    }
    return out;
}

TEST(BandedSw, EqualsFullSwWithFullBand)
{
    Rng rng(41);
    const auto scoring = ScoringParams::paper_defaults();
    for (int trial = 0; trial < 15; ++trial) {
        const auto t = random_codes(50, rng);
        auto q = mutated_copy(t, 0.15, 0.0, rng);
        const auto banded = banded_smith_waterman(sp(t), sp(q), scoring,
                                                  /*band=*/64);
        const auto full = smith_waterman_score(sp(t), sp(q), scoring);
        EXPECT_EQ(banded.max_score, full);
    }
}

TEST(BandedSw, NeverExceedsFullSw)
{
    Rng rng(42);
    const auto scoring = ScoringParams::paper_defaults();
    for (int trial = 0; trial < 15; ++trial) {
        const auto t = random_codes(80, rng);
        const auto q = mutated_copy(t, 0.2, 0.05, rng);
        const auto banded =
            banded_smith_waterman(sp(t), sp(q), scoring, 8);
        const auto full = smith_waterman_score(sp(t), sp(q), scoring);
        EXPECT_LE(banded.max_score, full);
        EXPECT_GE(banded.max_score, 0);
    }
}

TEST(BandedSw, FindsDiagonalSimilarity)
{
    Rng rng(43);
    const auto scoring = ScoringParams::paper_defaults();
    const auto t = random_codes(320, rng);
    const auto q = mutated_copy(t, 0.10, 0.01, rng);
    const auto result =
        banded_smith_waterman(sp(t), sp(q), scoring, 32);
    // ~90% identity over 320bp: the score must be well above Hf = 4000.
    EXPECT_GT(result.max_score, 4000);
    EXPECT_GT(result.target_max, 200u);
}

TEST(BandedSw, MissesOffBandAlignment)
{
    Rng rng(44);
    const auto scoring = ScoringParams::paper_defaults();
    // Query = 100 junk bases + copy of target: alignment sits 100 off
    // the diagonal, outside a +/-32 band.
    const auto t = random_codes(150, rng);
    auto q = random_codes(100, rng);
    q.insert(q.end(), t.begin(), t.end());
    const auto narrow =
        banded_smith_waterman(sp(t), sp(q), scoring, 32);
    const auto wide =
        banded_smith_waterman(sp(t), sp(q), scoring, 150);
    EXPECT_LT(narrow.max_score, wide.max_score / 2);
}

TEST(BandedSw, ZeroBandIsDiagonalOnly)
{
    const auto scoring = ScoringParams::unit(1, -1, 2, 1);
    const auto t = encode_string("ACGTACGT");
    const auto result = banded_smith_waterman(
        {t.data(), t.size()}, {t.data(), t.size()}, scoring, 0);
    EXPECT_EQ(result.max_score, 8);
}

TEST(BandedSw, EmptyInputs)
{
    const auto scoring = ScoringParams::unit();
    const std::vector<std::uint8_t> empty;
    const auto t = encode_string("ACGT");
    EXPECT_EQ(banded_smith_waterman({empty.data(), 0},
                                    {t.data(), t.size()}, scoring, 4)
                  .max_score,
              0);
    EXPECT_EQ(banded_smith_waterman({t.data(), t.size()},
                                    {empty.data(), 0}, scoring, 4)
                  .max_score,
              0);
}

TEST(BandedSw, EmptySpansReturnAllZeroResult)
{
    // Documented boundary semantics (banded_sw.h): empty target and/or
    // query yields the default BswResult, cells_computed included.
    const auto scoring = ScoringParams::paper_defaults();
    const std::vector<std::uint8_t> empty;
    const auto t = encode_string("ACGT");
    for (const std::size_t band : {0u, 4u, 64u}) {
        for (const auto& [tgt, qry] :
             {std::pair{sp(empty), sp(t)}, std::pair{sp(t), sp(empty)},
              std::pair{sp(empty), sp(empty)}}) {
            const auto r = banded_smith_waterman(tgt, qry, scoring, band);
            EXPECT_EQ(r, BswResult{}) << "band=" << band;
        }
    }
}

TEST(BandedSw, ColumnZeroDiagonalBoundary)
{
    // The cell (i=2, j=1) reaches its match diagonally from the
    // V(1, 0) = 0 alignment-start boundary in column 0. The seed kernel
    // read -inf there and scored 0; the documented semantics (full SW
    // restricted to the band) require the match to score.
    const auto scoring = ScoringParams::unit(1, -1, 2, 1);
    const auto t = encode_string("A");
    const auto q = encode_string("CA");
    for (const std::size_t band : {1u, 2u, 8u}) {
        const auto r = banded_smith_waterman(
            {t.data(), t.size()}, {q.data(), q.size()}, scoring, band);
        EXPECT_EQ(r.max_score, 1) << "band=" << band;
        EXPECT_EQ(r.target_max, 1u) << "band=" << band;
        EXPECT_EQ(r.query_max, 2u) << "band=" << band;
    }
}

TEST(BandedSw, ZeroBandCountsOnlyDiagonalCells)
{
    // band == 0 degenerates to an ungapped main-diagonal scan: exactly
    // min(n, m) cells, even when the query is much longer.
    const auto scoring = ScoringParams::unit(1, -1, 2, 1);
    Rng rng(45);
    const auto t = random_codes(4, rng);
    const auto q = random_codes(100, rng);
    const auto r = banded_smith_waterman(sp(t), sp(q), scoring, 0);
    EXPECT_EQ(r.cells_computed, 4u);

    const auto single = encode_string("G");
    const auto r1 = banded_smith_waterman(
        {single.data(), single.size()}, {single.data(), single.size()},
        scoring, 0);
    EXPECT_EQ(r1.cells_computed, 1u);
    EXPECT_EQ(r1.max_score, 1);
    EXPECT_EQ(r1.target_max, 1u);
    EXPECT_EQ(r1.query_max, 1u);
}

TEST(UngappedXdrop, PerfectSeedExtendsFully)
{
    Rng rng(45);
    const auto scoring = ScoringParams::paper_defaults();
    const auto t = random_codes(400, rng);
    const auto q = t;  // identical
    const auto result = ungapped_xdrop_extend(sp(t), sp(q), 200, 200, 19,
                                              scoring, 910);
    EXPECT_EQ(result.target_lo, 0u);
    EXPECT_EQ(result.target_hi, 400u);
    EXPECT_GT(result.score, 91 * 350);
}

TEST(UngappedXdrop, StopsAtDivergence)
{
    Rng rng(46);
    const auto scoring = ScoringParams::paper_defaults();
    // 100 identical bases then unrelated noise on both sides.
    auto t = random_codes(300, rng);
    auto q = random_codes(300, rng);
    for (std::size_t i = 100; i < 200; ++i)
        q[i] = t[i];
    const auto result = ungapped_xdrop_extend(sp(t), sp(q), 140, 140, 19,
                                              scoring, 910);
    // The best segment should roughly cover [100, 200).
    EXPECT_GE(result.target_lo, 80u);
    EXPECT_LE(result.target_hi, 230u);
    EXPECT_GT(result.score, 5000);
    // Anchor at the midpoint of the segment.
    EXPECT_GE(result.anchor_t, result.target_lo);
    EXPECT_LT(result.anchor_t, result.target_hi);
}

TEST(UngappedXdrop, IndelKillsExtension)
{
    Rng rng(47);
    const auto scoring = ScoringParams::paper_defaults();
    // Identical except a 10bp insertion in the query at position 150:
    // ungapped extension cannot cross it.
    auto t = random_codes(300, rng);
    auto q = t;
    const auto ins = random_codes(10, rng);
    q.insert(q.begin() + 150, ins.begin(), ins.end());
    const auto with_indel = ungapped_xdrop_extend(
        sp(t), sp(q), 50, 50, 19, scoring, 910);
    const auto clean = ungapped_xdrop_extend(
        sp(t), sp(t), 50, 50, 19, scoring, 910);
    EXPECT_LT(with_indel.score, clean.score / 2 + 1000);
    EXPECT_LE(with_indel.target_hi, 165u);
}

TEST(XdropReference, HugeYEqualsFullNwExtension)
{
    Rng rng(48);
    XDropConfig config;
    config.ydrop = INT32_MAX / 8;
    for (int trial = 0; trial < 12; ++trial) {
        const auto t = random_codes(60, rng);
        const auto q = mutated_copy(t, 0.2, 0.05, rng);
        const auto xd = xdrop_extend(sp(t), sp(q), config);
        const auto ref = nw_extend_reference(sp(t), sp(q), config.scoring);
        EXPECT_EQ(xd.max_score, ref.max_score);
        EXPECT_EQ(xd.target_max, ref.target_max);
        EXPECT_EQ(xd.query_max, ref.query_max);
    }
}

TEST(XdropReference, PathScoreMatchesMax)
{
    Rng rng(49);
    XDropConfig config;
    config.ydrop = 3000;
    for (int trial = 0; trial < 12; ++trial) {
        const auto t = random_codes(200, rng);
        const auto q = mutated_copy(t, 0.15, 0.02, rng);
        const auto xd = xdrop_extend(sp(t), sp(q), config);
        if (xd.cigar.empty())
            continue;
        EXPECT_TRUE(xd.cigar.consistent_with(sp(t), sp(q)));
        EXPECT_EQ(xd.cigar.score({t.data(), xd.target_max},
                                 {q.data(), xd.query_max},
                                 config.scoring),
                  xd.max_score);
    }
}

TEST(XdropReference, NeverExceedsFullExtension)
{
    Rng rng(50);
    XDropConfig config;
    config.ydrop = 500;
    for (int trial = 0; trial < 12; ++trial) {
        const auto t = random_codes(100, rng);
        const auto q = mutated_copy(t, 0.3, 0.05, rng);
        const auto xd = xdrop_extend(sp(t), sp(q), config);
        const auto ref = nw_extend_reference(sp(t), sp(q), config.scoring);
        EXPECT_LE(xd.max_score, ref.max_score);
        EXPECT_LE(xd.cells_computed,
                  static_cast<std::uint64_t>(t.size()) * q.size() +
                      t.size() + q.size() + 1);
    }
}

TEST(XdropReference, TracebackMemoryLimitTruncates)
{
    Rng rng(51);
    XDropConfig config;
    config.ydrop = INT32_MAX / 8;
    config.traceback_limit_bytes = 200;  // absurdly small
    const auto t = random_codes(100, rng);
    const auto q = t;
    const auto xd = xdrop_extend(sp(t), sp(q), config);
    // Still returns a valid (truncated) result.
    EXPECT_GT(xd.max_score, 0);
    EXPECT_LT(xd.query_max, 20u);
    EXPECT_TRUE(xd.cigar.consistent_with(sp(t), sp(q)));
}

TEST(GactX, HugeYEqualsFullNwExtension)
{
    Rng rng(52);
    GactXParams params;
    params.ydrop = INT32_MAX / 8;
    params.tile_size = 512;
    params.num_pe = 8;
    params.traceback_bytes = 1ULL << 30;
    const GactXTileAligner aligner(params);
    for (int trial = 0; trial < 10; ++trial) {
        const auto t = random_codes(60, rng);
        const auto q = mutated_copy(t, 0.2, 0.05, rng);
        const auto tile = aligner.align_tile(sp(t), sp(q));
        const auto ref = nw_extend_reference(sp(t), sp(q), params.scoring);
        EXPECT_EQ(tile.max_score, ref.max_score);
        EXPECT_EQ(tile.target_max, ref.target_max);
        EXPECT_EQ(tile.query_max, ref.query_max);
    }
}

TEST(GactX, StripePruningIsSupersetOfRowPruning)
{
    // Stripe-granular windows compute a superset of the row-granular
    // reference's cells, so GACT-X's Vmax can never be lower.
    Rng rng(53);
    GactXParams params;
    params.ydrop = 1500;
    params.tile_size = 512;
    params.num_pe = 16;
    const GactXTileAligner aligner(params);
    XDropConfig row_config;
    row_config.ydrop = params.ydrop;
    for (int trial = 0; trial < 15; ++trial) {
        const auto t = random_codes(300, rng);
        const auto q = mutated_copy(t, 0.25, 0.04, rng);
        const auto stripe = aligner.align_tile(sp(t), sp(q));
        const auto row = xdrop_extend(sp(t), sp(q), row_config);
        EXPECT_GE(stripe.max_score, row.max_score);
        const auto full = nw_extend_reference(sp(t), sp(q),
                                              params.scoring);
        EXPECT_LE(stripe.max_score, full.max_score);
    }
}

TEST(GactX, PathScoreMatchesMax)
{
    Rng rng(54);
    GactXParams params;  // paper defaults, Y = 9430
    params.tile_size = 512;
    const GactXTileAligner aligner(params);
    for (int trial = 0; trial < 10; ++trial) {
        const auto t = random_codes(500, rng);
        const auto q = mutated_copy(t, 0.2, 0.03, rng);
        const auto tile = aligner.align_tile(sp(t), sp(q));
        if (tile.cigar.empty())
            continue;
        EXPECT_TRUE(tile.cigar.consistent_with(sp(t), sp(q)));
        EXPECT_EQ(tile.cigar.score({t.data(), tile.target_max},
                                   {q.data(), tile.query_max},
                                   params.scoring),
                  tile.max_score);
        EXPECT_EQ(tile.cigar.target_consumed(), tile.target_max);
        EXPECT_EQ(tile.cigar.query_consumed(), tile.query_max);
    }
}

TEST(GactX, ComputesFarFewerCellsThanFullTile)
{
    Rng rng(55);
    GactXParams params;  // Y = 9430
    params.tile_size = 1024;
    const GactXTileAligner aligner(params);
    const auto t = random_codes(1024, rng);
    const auto q = mutated_copy(t, 0.1, 0.01, rng);
    const auto tile = aligner.align_tile(sp(t), sp(q));
    const std::uint64_t full_cells =
        static_cast<std::uint64_t>(t.size()) * q.size();
    EXPECT_LT(tile.cells_computed, full_cells / 2);
    EXPECT_GT(tile.max_score, 0);
}

TEST(GactX, StripeColumnsReported)
{
    Rng rng(56);
    GactXParams params;
    params.tile_size = 512;
    params.num_pe = 32;
    const GactXTileAligner aligner(params);
    const auto t = random_codes(512, rng);
    const auto q = mutated_copy(t, 0.1, 0.01, rng);
    const auto tile = aligner.align_tile(sp(t), sp(q));
    EXPECT_FALSE(tile.stripe_columns.empty());
    EXPECT_LE(tile.stripe_columns.size(), (q.size() + 31) / 32);
    std::uint64_t total = 0;
    for (const auto c : tile.stripe_columns)
        total += c;
    // Stripe columns x Npe bounds the computed cells from above.
    EXPECT_GE(total * 32, tile.cells_computed);
}

TEST(PointerStore, StripeStoreReadsBackAndFailsLikePointerGrid)
{
    using detail::kDiag;
    using detail::kHGap;
    using detail::pack_pointer;
    // Codes vary from cell to cell, so a mis-indexed read shows.
    const auto code_of = [](std::size_t i, std::size_t j) {
        return pack_pointer(static_cast<std::uint8_t>(kDiag + (i + j) % 3),
                            i % 2 != 0, j % 2 != 0);
    };
    struct Stripe {
        std::size_t rows, fdc, cols;
    };
    // num_pe = 4: a full stripe whose window starts at column 1, then a
    // partial last stripe (rows 5-6) whose window starts at column 3.
    const std::size_t npe = 4;
    const Stripe stripes[] = {{4, 1, 5}, {2, 3, 4}};
    std::vector<std::uint8_t> pool;  // empty: grows per stripe
    detail::StripePointerStore store(pool, npe);
    std::size_t i0 = 1;
    for (const Stripe& s : stripes) {
        std::uint8_t* base = store.open_stripe(s.cols + npe - 1);
        for (std::size_t r = 0; r < s.rows; ++r)
            for (std::size_t c = 0; c < s.cols; ++c)
                base[(c + r) * npe + r] = code_of(i0 + r, s.fdc + c);
        store.close_stripe(s.rows, s.fdc, s.cols);
        i0 += s.rows;
    }
    i0 = 1;
    for (const Stripe& s : stripes) {
        for (std::size_t r = 0; r < s.rows; ++r) {
            for (std::size_t c = 0; c < s.cols; ++c) {
                const std::size_t i = i0 + r;
                const std::size_t j = s.fdc + c;
                const auto want = detail::unpack_pointer(code_of(i, j));
                const auto got = store.at(i, j);
                EXPECT_EQ(got.vdir, want.vdir) << i << "," << j;
                EXPECT_EQ(got.hopen, want.hopen) << i << "," << j;
                EXPECT_EQ(got.vopen, want.vopen) << i << "," << j;
            }
        }
        i0 += s.rows;
    }

    // Rows past the last stored stripe, or past its lanes.
    EXPECT_DEATH(store.at(0, 1), detail::kRowOutOfRange);
    EXPECT_DEATH(store.at(7, 3), detail::kRowOutOfRange);
    EXPECT_DEATH(store.at(9, 3), detail::kRowOutOfRange);
    // Columns outside a stripe's stored window, on either side.
    EXPECT_DEATH(store.at(1, 0), detail::kOutsideWindow);
    EXPECT_DEATH(store.at(4, 6), detail::kOutsideWindow);
    EXPECT_DEATH(store.at(5, 2), detail::kOutsideWindow);
    EXPECT_DEATH(store.at(6, 7), detail::kOutsideWindow);

    // The row-major grid the reference engines use fails the same way.
    detail::PointerGrid grid;
    const std::uint8_t codes[] = {pack_pointer(kDiag, false, false),
                                  pack_pointer(kHGap, true, false),
                                  pack_pointer(kDiag, false, true)};
    grid.add_row_codes(2, codes, 3);
    EXPECT_EQ(grid.at(1, 3).vdir, kHGap);
    EXPECT_DEATH(grid.at(2, 2), detail::kRowOutOfRange);
    EXPECT_DEATH(grid.at(1, 1), detail::kOutsideWindow);
    EXPECT_DEATH(grid.at(1, 5), detail::kOutsideWindow);
}

TEST(Gact, TileSizeFromMemory)
{
    // (T+1)^2 / 2 <= bytes.
    EXPECT_EQ(gact_tile_size_for_memory(1ULL << 20), 1447u);
    EXPECT_EQ(gact_tile_size_for_memory(2ULL << 20), 2047u);
    const std::size_t t512k = gact_tile_size_for_memory(512ULL << 10);
    EXPECT_NEAR(static_cast<double>(t512k), 1023.0, 1.0);
}

TEST(Gact, TileEqualsFullNwExtension)
{
    Rng rng(57);
    GactParams params;
    params.traceback_bytes = 1ULL << 20;
    const GactTileAligner aligner(params);
    EXPECT_EQ(aligner.tile_size(), 1447u);
    for (int trial = 0; trial < 8; ++trial) {
        const auto t = random_codes(80, rng);
        const auto q = mutated_copy(t, 0.2, 0.05, rng);
        const auto tile = aligner.align_tile(sp(t), sp(q));
        const auto ref = nw_extend_reference(sp(t), sp(q), params.scoring);
        EXPECT_EQ(tile.max_score, ref.max_score);
    }
}

TEST(Extension, RecoversPlantedAlignment)
{
    Rng rng(58);
    const auto scoring = ScoringParams::paper_defaults();
    GactXParams params;
    params.tile_size = 256;
    params.overlap = 32;
    const GactXTileAligner aligner(params);

    // Target: noise + conserved region + noise. Query: independent noise
    // around a mutated copy of the same conserved region.
    const auto conserved = random_codes(900, rng);
    auto t = random_codes(300, rng);
    t.insert(t.end(), conserved.begin(), conserved.end());
    auto t_tail = random_codes(300, rng);
    t.insert(t.end(), t_tail.begin(), t_tail.end());

    auto q = random_codes(500, rng);
    const auto q_copy = mutated_copy(conserved, 0.08, 0.01, rng);
    const std::size_t q_start = q.size();
    q.insert(q.end(), q_copy.begin(), q_copy.end());
    auto q_tail = random_codes(200, rng);
    q.insert(q.end(), q_tail.begin(), q_tail.end());

    // Anchor in the middle of the conserved region.
    ExtensionStats stats;
    const auto alignment = extend_anchor(sp(t), sp(q), 300 + 450,
                                         q_start + 440, aligner, scoring,
                                         &stats);
    ASSERT_FALSE(alignment.empty());
    EXPECT_GT(alignment.score, 30000);
    // The alignment should cover most of the conserved region.
    EXPECT_LT(alignment.target_start, 400u);
    EXPECT_GT(alignment.target_end, 1050u);
    EXPECT_GE(stats.tiles, 2u);
    // Score must match the path.
    const std::span<const std::uint8_t> ts{
        t.data() + alignment.target_start,
        alignment.target_end - alignment.target_start};
    const std::span<const std::uint8_t> qs{
        q.data() + alignment.query_start,
        alignment.query_end - alignment.query_start};
    EXPECT_TRUE(alignment.cigar.consistent_with(ts, qs));
    EXPECT_EQ(alignment.cigar.score(ts, qs, scoring), alignment.score);
}

TEST(Extension, NoiseAnchorsGoNowhere)
{
    Rng rng(59);
    const auto scoring = ScoringParams::paper_defaults();
    GactXParams params;
    params.tile_size = 256;
    const GactXTileAligner aligner(params);
    const auto t = random_codes(2000, rng);
    const auto q = random_codes(2000, rng);
    const auto alignment =
        extend_anchor(sp(t), sp(q), 1000, 1000, aligner, scoring);
    // Random DNA at these penalties yields short, low-scoring scraps.
    EXPECT_LT(alignment.score, 4000);
}

TEST(Extension, AnchorAtSequenceEdges)
{
    Rng rng(60);
    const auto scoring = ScoringParams::paper_defaults();
    GactXParams params;
    params.tile_size = 256;
    const GactXTileAligner aligner(params);
    const auto t = random_codes(500, rng);
    const auto q = t;
    // Anchor at the very start and very end.
    const auto a0 = extend_anchor(sp(t), sp(q), 0, 0, aligner, scoring);
    EXPECT_GT(a0.score, 40000);
    EXPECT_EQ(a0.target_start, 0u);
    EXPECT_EQ(a0.target_end, 500u);
    const auto a1 =
        extend_anchor(sp(t), sp(q), 500, 500, aligner, scoring);
    EXPECT_GT(a1.score, 40000);
    EXPECT_EQ(a1.target_start, 0u);
}

TEST(Extension, CrossesLongGapThatUngappedCannot)
{
    Rng rng(61);
    const auto scoring = ScoringParams::paper_defaults();
    GactXParams params;  // Y = 9430 bridges gaps up to ~300bp per side
    params.tile_size = 1024;
    params.overlap = 128;
    const GactXTileAligner aligner(params);
    // Query = target with a 200bp insertion in the middle.
    const auto t = random_codes(1200, rng);
    auto q = t;
    const auto insert = random_codes(200, rng);
    q.insert(q.begin() + 600, insert.begin(), insert.end());
    const auto alignment =
        extend_anchor(sp(t), sp(q), 100, 100, aligner, scoring);
    ASSERT_FALSE(alignment.empty());
    // Both flanks aligned => the gap was crossed.
    EXPECT_GT(alignment.target_end, 1100u);
    EXPECT_GE(alignment.cigar.gap_bases(), 200u);
}

}  // namespace
}  // namespace darwin::align
