/**
 * Row-major banded Smith-Waterman — the original (seed) kernel layout:
 * the scalar tier (one tile after another), the baseline for
 * bench/micro_kernels and a second reference in the differential tests.
 * One fix over the seed version: the diagonal read of a column-1 cell
 * now sees the V(i-1, 0) = 0 boundary instead of -inf, per the boundary
 * semantics documented in banded_sw.h.
 *
 * Also the baseline half of the batched vector kernels: the in-band
 * cell count and the lane packing (BswLanes), which transposes a pass's
 * tiles into lane-interleaved buffers for simd_kernels.h.
 */
#include <algorithm>
#include <cstdint>
#include <vector>

#include "align/kernels/bsw_kernels.h"
#include "seq/alphabet.h"

namespace darwin::align::kernels {

BswResult
bsw_rowmajor_reference(std::span<const std::uint8_t> target,
                       std::span<const std::uint8_t> query,
                       const ScoringParams& scoring, std::size_t band)
{
    const std::size_t n = target.size();
    const std::size_t m = query.size();
    BswResult out;
    if (n == 0 || m == 0)
        return out;

    // Band-relative indexing: row i has frame base f(i) = i - band (the
    // column of slot k = 0, as a signed value). Reads:
    //   V(i-1, j)   = prev[k + 1];  V(i-1, j-1) = prev[k];
    // with k = j - f(i). Row 0 (frame base -band) holds V(0, j) = 0 for
    // 0 <= j <= n and -inf outside.
    const std::size_t width = 2 * band + 1;
    std::vector<Score> v_prev(width + 1, 0);
    std::vector<Score> g_prev(width + 1, kScoreNegInf);
    std::vector<Score> v_cur(width + 1, 0);
    std::vector<Score> g_cur(width + 1, kScoreNegInf);

    for (std::size_t k = 0; k <= width; ++k) {
        const std::int64_t j = static_cast<std::int64_t>(k) -
                               static_cast<std::int64_t>(band);
        v_prev[k] = (j >= 0 && j <= static_cast<std::int64_t>(n))
                        ? 0 : kScoreNegInf;
        g_prev[k] = kScoreNegInf;
    }

    for (std::size_t i = 1; i <= m; ++i) {
        const std::int64_t frame =
            static_cast<std::int64_t>(i) - static_cast<std::int64_t>(band);
        const std::size_t j_lo = i > band ? i - band : 1;
        const std::size_t j_hi = std::min(n, i + band);
        std::fill(v_cur.begin(), v_cur.end(), kScoreNegInf);
        std::fill(g_cur.begin(), g_cur.end(), kScoreNegInf);
        if (j_lo > j_hi) {
            std::swap(v_prev, v_cur);
            std::swap(g_prev, g_cur);
            continue;
        }
        Score h = kScoreNegInf;  // running H-gap within the row
        // Column 0 is the alignment-start boundary: V(i, 0) = 0.
        Score v_left = (j_lo == 1) ? 0 : kScoreNegInf;
        for (std::size_t j = j_lo; j <= j_hi; ++j) {
            const std::size_t k =
                static_cast<std::size_t>(static_cast<std::int64_t>(j) -
                                         frame);
            // j == 1 reads the V(i-1, 0) = 0 boundary, which row i-1
            // never wrote into its band buffer.
            const Score diag_prev =
                (j == 1) ? 0 : ((k <= width) ? v_prev[k] : kScoreNegInf);
            const Score up_prev =
                (k + 1 <= width) ? v_prev[k + 1] : kScoreNegInf;
            const Score g_up =
                (k + 1 <= width) ? g_prev[k + 1] : kScoreNegInf;

            h = std::max(v_left - scoring.gap_open,
                         h - scoring.gap_extend);
            const Score g = std::max(up_prev - scoring.gap_open,
                                     g_up - scoring.gap_extend);
            const Score diag =
                diag_prev +
                scoring.substitution(target[j - 1], query[i - 1]);

            Score val = std::max<Score>(0, diag);
            val = std::max(val, h);
            val = std::max(val, g);

            v_cur[k] = val;
            g_cur[k] = g;
            v_left = val;
            ++out.cells_computed;

            if (val > out.max_score) {
                out.max_score = val;
                out.target_max = j;
                out.query_max = i;
            }
        }
        std::swap(v_prev, v_cur);
        std::swap(g_prev, g_cur);
    }
    return out;
}

void
bsw_rowmajor_batch(std::span<const BswTile> tiles,
                   const ScoringParams& scoring, std::size_t band,
                   BswResult* out)
{
    for (std::size_t i = 0; i < tiles.size(); ++i)
        out[i] = bsw_rowmajor_reference(tiles[i].target, tiles[i].query,
                                        scoring, band);
}

namespace {

/** Sum over d = 0..B of max(0, min(a, b - d)): the cells on the B + 1
 *  diagonals j - i = d (a = m, b = n) or i - j = d (a = n, b = m). */
std::uint64_t
half_band_cells(std::uint64_t a, std::uint64_t b, std::uint64_t band)
{
    if (a == 0 || b == 0)
        return 0;
    // Diagonals d <= b - a hold a cells each; from there on, b - d.
    std::uint64_t cells = 0;
    std::uint64_t first = 0;
    if (b >= a) {
        cells = (std::min(band, b - a) + 1) * a;
        first = b - a + 1;
    }
    const std::uint64_t last = std::min(band, b - 1);
    if (first <= last)
        cells += (last - first + 1) * (2 * b - first - last) / 2;
    return cells;
}

}  // namespace

std::uint64_t
bsw_band_cells(std::size_t n, std::size_t m, std::size_t band)
{
    // Both halves count the main diagonal's min(n, m) cells.
    return half_band_cells(m, n, band) + half_band_cells(n, m, band) -
           std::min(n, m);
}

bool
BswLanes::pack(std::span<const BswTile> tiles, std::size_t* next,
               std::size_t width, std::size_t tile_band, BswResult* out)
{
    used = 0;
    n = 0;
    m = 0;
    for (; *next < tiles.size() && used < width; ++*next) {
        const BswTile& tile_i = tiles[*next];
        const std::size_t tn = tile_i.target.size();
        const std::size_t tm = tile_i.query.size();
        out[*next] = BswResult{};
        if (tn == 0 || tm == 0)
            continue;
        out[*next].cells_computed = bsw_band_cells(tn, tm, tile_band);
        tile[used] = *next;
        n_lane[used] = static_cast<Score>(tn);
        m_lane[used] = static_cast<Score>(tm);
        n = std::max(n, tn);
        m = std::max(m, tm);
        ++used;
    }
    if (used == 0)
        return false;

    // Spare lanes rerun lane 0's tile, so a full-size pass stays even.
    for (std::size_t l = used; l < width; ++l) {
        tile[l] = tile[0];
        n_lane[l] = n_lane[0];
        m_lane[l] = m_lane[0];
    }
    // Every cell of an n x m tile has |i - j| < max(n, m).
    band = std::min(tile_band, std::max(n, m));

    // Shorter lanes read code 0 past their ends.
    codes_.assign((n + m) * width, std::uint8_t{0});
    std::uint8_t* tc = codes_.data();
    std::uint8_t* qc = tc + n * width;
    for (std::size_t l = 0; l < width; ++l) {
        const BswTile& tile_l = tiles[tile[l]];
        for (std::size_t p = 0; p < tile_l.target.size(); ++p)
            tc[p * width + l] =
                static_cast<std::uint8_t>(tile_l.target[p] * seq::kNumCodes);
        for (std::size_t p = 0; p < tile_l.query.size(); ++p)
            qc[p * width + l] = tile_l.query[p];
    }
    t = tc;
    q = qc;

    // Two band rows of 2B + 2 vectors: V, then G.
    const std::size_t row = (2 * band + 2) * width;
    rows_.resize(2 * row);
    v = rows_.data();
    g = v + row;
    for (std::size_t k = 0; k <= 2 * band + 1; ++k) {
        const Score row0 = k >= band && k <= 2 * band ? 0 : kScoreNegInf;
        std::fill_n(v + k * width, width, row0);
        std::fill_n(g + k * width, width, kScoreNegInf);
    }
    return true;
}

BswLanes&
bsw_lanes()
{
    thread_local BswLanes lanes;
    return lanes;
}

}  // namespace darwin::align::kernels
