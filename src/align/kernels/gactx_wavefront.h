/**
 * @file
 * Shared anti-diagonal scaffolding of the GACT-X wavefront kernels.
 *
 * `gactx_align_wavefront<Policy>` owns everything that is identical
 * across the scalar and SIMD variants — the stripe walk, the jstart
 * frontier scan, the boundary column, the diagonal loop with its
 * buffer rotation and lane activation, the column-completion bookkeeping
 * that replays the seed engine's sequential vmax/termination order, and
 * the stripe records of the traceback store. A Policy only supplies
 * `diagonal(ctx, dd, rlo, rhi)`: compute lanes rlo..rhi of diagonal dd
 * (slots rlo+1..rhi+1 of the lane buffers), fold each value into the
 * per-column running best, and store each cell's 4-bit pointer code as
 * one byte at `ptr[r]` — the diagonal's lanes are contiguous in the
 * diagonal-major `StripePointerStore`, so a SIMD block is one store.
 * `gactx_cell` is the scalar per-cell body the SIMD policies
 * (simd_kernels.h) reuse for their tails.
 *
 * Coordinate map (see DESIGN.md "Extension kernels"): within a stripe
 * starting at query row i0 with first data column fdc, lane r handles
 * query row i0 + r and on diagonal dd computes column c = dd - r
 * (target column j = fdc + c). Dependencies:
 *
 *     left  V(r, c-1)  -> vd1[r + 1]      (same lane, diagonal dd - 1)
 *     up    V(r-1, c)  -> vd1[r]          (lane above, diagonal dd - 1)
 *     g_up  G(r-1, c)  -> gd1[r]
 *     diag  V(r-1, c-1)-> vd2[r]          (lane above, diagonal dd - 2)
 *     own H (r, c-1)   -> hd1[r + 1]
 *
 * Slot 0 is refreshed from the previous stripe's frontier whenever lane
 * 0 is active, which is exactly the systolic array's BRAM read port.
 */
#ifndef DARWIN_ALIGN_KERNELS_GACTX_WAVEFRONT_H
#define DARWIN_ALIGN_KERNELS_GACTX_WAVEFRONT_H

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>

#include "align/detail/pointer_grid.h"
#include "align/kernels/gactx_kernels.h"
#include "fault/cancel.h"
#include "seq/alphabet.h"

namespace darwin::align::kernels {

/** Per-stripe state handed to Policy::diagonal (pointers rotate). */
struct GactXDiagCtx {
    const std::uint8_t* t = nullptr;  ///< target.data()
    const std::uint8_t* q = nullptr;  ///< query.data() + i0 - 1: lane r -> q[r]
    const Score* sub = nullptr;       ///< flattened 5x5 substitution matrix
    Score open = 0;
    Score extend = 0;
    std::size_t fdc = 0;    ///< target column of c = 0
    Score* vd1 = nullptr;
    Score* vd2 = nullptr;
    Score* vcur = nullptr;
    Score* gd1 = nullptr;
    Score* gcur = nullptr;
    Score* hd1 = nullptr;
    Score* hcur = nullptr;
    Score* colmax = nullptr;
    std::int32_t* colbest = nullptr;
    std::uint8_t* ptr = nullptr;  ///< this diagonal's codes: lane r -> ptr[r]
};

/**
 * One DP cell, bit-exact to the seed engine's lane body: tie-breaks are
 * `>=` for both gap-open bits and strictly-greater for the V direction
 * precedence Diag < HGap < VGap and for the column best (ascending r
 * per column, so the smallest row among equals wins). `kScoreOnly`
 * skips the pointer store only, so a score-only pass visits the
 * identical cell set and produces the identical score trajectory.
 */
template <bool kScoreOnly>
inline void
gactx_cell(const GactXDiagCtx& c, std::size_t dd, std::size_t r)
{
    const std::size_t s = r + 1;
    const std::size_t col = dd - r;

    const Score left_v = c.vd1[s];
    const Score h_open = left_v - c.open;
    const Score h_ext = c.hd1[s] - c.extend;
    const bool hopen = h_open >= h_ext;
    const Score h = hopen ? h_open : h_ext;

    const Score g_open = c.vd1[s - 1] - c.open;
    const Score g_ext = c.gd1[s - 1] - c.extend;
    const bool vopen = g_open >= g_ext;
    const Score g = vopen ? g_open : g_ext;

    const std::size_t j = c.fdc + col;
    Score val = c.vd2[s - 1] +
                c.sub[c.t[j - 1] * seq::kNumCodes + c.q[r]];
    std::uint8_t vdir = detail::kDiag;
    if (h > val) {
        val = h;
        vdir = detail::kHGap;
    }
    if (g > val) {
        val = g;
        vdir = detail::kVGap;
    }

    c.vcur[s] = val;
    c.gcur[s] = g;
    c.hcur[s] = h;

    if (val > c.colmax[col]) {
        c.colmax[col] = val;
        c.colbest[col] = static_cast<std::int32_t>(r);
    }

    if constexpr (!kScoreOnly)
        c.ptr[r] = detail::pack_pointer(vdir, hopen, vopen);
}

/**
 * `kScoreOnly` elides every traceback side effect — the pointer store
 * and the final trace — while keeping the DP, the X-drop walk and *all*
 * accounting (cells_computed, stripe_columns, traceback_bytes, budget
 * charges) identical. Because vmax starts at 0 and only strictly-greater
 * column bests move it, max_score == 0 iff the best cell is the origin
 * iff the CIGAR is empty: a score-only result with max_score == 0 is the
 * complete bit-identical TileResult for that (dead) tile. A kScoreOnly
 * Policy must route cells through gactx_cell<true> (ctx.ptr is
 * null). Always inlined, so an ISA kernel compiles the scaffold with its
 * own target options and inlines its policy (see simd_kernels.h).
 */
template <class Policy, bool kScoreOnly = false>
[[gnu::always_inline]] inline TileResult
gactx_align_wavefront(std::span<const std::uint8_t> target,
                      std::span<const std::uint8_t> query,
                      const GactXParams& params)
{
    const std::size_t n = target.size();
    const std::size_t m = query.size();
    const ScoringParams& scoring = params.scoring;
    const Score ydrop = params.ydrop;
    const std::size_t npe = params.num_pe;

    TileResult out;
    if (n == 0 || m == 0)
        return out;

    GactXScratch& ws = gactx_scratch();
    ws.prepare(n, npe);
    Score* bram_v = ws.bram_v.data();
    Score* bram_g = ws.bram_g.data();
    Score* next_v = ws.next_v.data();
    Score* next_g = ws.next_g.data();
    std::size_t bram_start = 0;
    std::size_t bram_end = 0;

    // Row 0 boundary: leading target gap, bounded by the X-drop test.
    // Only the window [0, bram_end] is seeded — every later frontier
    // read is window-guarded, so no full-array -inf fills are needed
    // (the seed engine's per-stripe O(n) clears are gone).
    bram_v[0] = 0;
    for (std::size_t j = 1; j <= n; ++j) {
        const Score val = -scoring.gap_cost(j);
        if (val < -ydrop)
            break;
        bram_v[j] = val;
        bram_end = j;
    }
    std::fill(bram_g, bram_g + bram_end + 1, kScoreNegInf);

    Score vmax = 0;
    std::size_t best_i = 0;
    std::size_t best_j = 0;

    detail::StripePointerStore store(ws.ptr_pool, npe);
    std::uint8_t* stripe_ptr = nullptr;
    std::uint64_t traceback_bytes = 0;
    bool out_of_memory = false;

    GactXDiagCtx ctx;
    ctx.t = target.data();
    ctx.sub = scoring.matrix.front().data();
    ctx.open = scoring.gap_open;
    ctx.extend = scoring.gap_extend;
    ctx.colmax = ws.colmax.data();
    ctx.colbest = ws.colbest.data();
    Policy pol(ctx);

    for (std::size_t i0 = 1; i0 <= m && !out_of_memory; i0 += npe) {
        // Budget/injection probe once per stripe: the cooperative
        // cancellation granularity for every kernel variant (a stripe is
        // at most npe * n cells). Polling never alters any DP state, so
        // results stay bit-identical whether or not a token is armed.
        fault::poll("extend.stripe");
        const std::uint64_t stripe_cells_before = out.cells_computed;
        const std::size_t i1 = std::min(m, i0 + npe - 1);
        const std::size_t rows = i1 - i0 + 1;
        const Score stripe_threshold = vmax - ydrop;

        // jstart: first column of the previous stripe's stored row whose
        // score still clears the X-drop bound (V >= D, so scanning V and
        // the stored vertical-gap score covers both).
        std::size_t jstart = bram_start;
        while (jstart <= bram_end && bram_v[jstart] < stripe_threshold &&
               bram_g[jstart] < stripe_threshold)
            ++jstart;
        if (jstart > bram_end)
            break;  // the whole frontier fell below the bound

        const std::size_t fdc = std::max<std::size_t>(jstart, 1);
        const std::size_t num_cols = n - fdc + 1;
        const std::size_t ddmax = (num_cols - 1) + (rows - 1);
        if constexpr (!kScoreOnly)
            stripe_ptr = store.open_stripe(ddmax + 1);

        // Column-0 boundary values per lane (-gap_cost(i0 + r) when the
        // window touches column 0, pruned otherwise). These seed each
        // lane's first left neighbour and, one diagonal later, the next
        // lane's diagonal neighbour.
        if (jstart == 0) {
            Score cost = scoring.gap_cost(i0);
            for (std::size_t r = 0; r < rows; ++r) {
                ws.init_left[r] = -cost;
                cost += scoring.gap_extend;
            }
        } else {
            std::fill(ws.init_left.begin(),
                      ws.init_left.begin() +
                          static_cast<std::ptrdiff_t>(rows),
                      kScoreNegInf);
        }
        std::fill(ws.colmax.begin(),
                  ws.colmax.begin() +
                      static_cast<std::ptrdiff_t>(num_cols),
                  kScoreNegInf);

        std::uint32_t columns = 0;
        std::uint32_t data_columns = 0;
        std::size_t last_col = (jstart == 0) ? 0 : jstart - 1;

        if (jstart == 0) {
            // Boundary column: one leading-query-gap cell per lane. Its
            // pointers are never stored — the traceback stops at j == 0.
            out.cells_computed += rows;
            next_v[0] = ws.init_left[rows - 1];
            next_g[0] = ws.init_left[rows - 1];
            ++columns;
        }

        Score* vd2 = ws.v0.data();
        Score* vd1 = ws.v1.data();
        Score* vcur = ws.v2.data();
        Score* gd1 = ws.g0.data();
        Score* gcur = ws.g1.data();
        Score* hd1 = ws.h0.data();
        Score* hcur = ws.h1.data();
        vd1[1] = ws.init_left[0];
        hd1[1] = kScoreNegInf;

        ctx.q = query.data() + (i0 - 1);
        ctx.fdc = fdc;

        bool stripe_done = false;
        for (std::size_t dd = 0; dd <= ddmax && !stripe_done; ++dd) {
            const std::size_t rlo =
                (dd >= num_cols) ? dd - (num_cols - 1) : 0;
            const std::size_t rhi = std::min(rows - 1, dd);

            if (rlo == 0) {
                // Lane 0's BRAM port: the previous stripe's frontier at
                // lane 0's current column j0 = fdc + dd.
                const std::size_t j0 = fdc + dd;
                const bool in = j0 >= bram_start && j0 <= bram_end;
                vd1[0] = in ? bram_v[j0] : kScoreNegInf;
                gd1[0] = in ? bram_g[j0] : kScoreNegInf;
                vd2[0] = (j0 > bram_start && j0 <= bram_end + 1)
                             ? bram_v[j0 - 1]
                             : kScoreNegInf;
            }

            ctx.vd1 = vd1;
            ctx.vd2 = vd2;
            ctx.vcur = vcur;
            ctx.gd1 = gd1;
            ctx.gcur = gcur;
            ctx.hd1 = hd1;
            ctx.hcur = hcur;
            if constexpr (!kScoreOnly)
                ctx.ptr = stripe_ptr + dd * npe;
            pol.diagonal(ctx, dd, rlo, rhi);

            // Activate lane dd+1: this single write is its left
            // neighbour next diagonal (as vd1) and lane dd+2's diagonal
            // neighbour the diagonal after (as vd2).
            if (dd + 1 <= rows - 1) {
                vcur[dd + 2] = ws.init_left[dd + 1];
                hcur[dd + 2] = kScoreNegInf;
            }

            // Column dd - (rows - 1) just completed (its last lane ran
            // this diagonal): commit it in sequential column order —
            // vmax/best update, last-row frontier, and the live X-drop
            // stripe-termination test. Cells the wavefront has already
            // started in later columns are discarded on termination:
            // they were never counted or committed anywhere.
            if (dd >= rows - 1) {
                const std::size_t cdone = dd - (rows - 1);
                const std::size_t j = fdc + cdone;
                const Score column_best = ws.colmax[cdone];
                if (column_best > vmax) {
                    vmax = column_best;
                    best_i = i0 + static_cast<std::size_t>(
                                      ws.colbest[cdone]);
                    best_j = j;
                }
                next_v[j] = vcur[rows];
                next_g[j] = gcur[rows];
                ++columns;
                ++data_columns;
                last_col = j;
                // Termination only applies beyond the previous stripe's
                // frontier (see the seed engine: within [jstart,
                // bram_end] BRAM values further right can revive the
                // stripe).
                if (column_best < vmax - ydrop && j > bram_end)
                    stripe_done = true;
            }

            Score* vtmp = vd2;
            vd2 = vd1;
            vd1 = vcur;
            vcur = vtmp;
            std::swap(gd1, gcur);
            std::swap(hd1, hcur);
        }

        out.stripe_columns.push_back(columns);
        out.cells_computed +=
            static_cast<std::uint64_t>(data_columns) * rows;

        // traceback_bytes stays the array's 4-bit BRAM figure: per row,
        // the computed window (boundary column included) at two cells
        // per byte — not this store's one byte per cell.
        const std::size_t row_len = (jstart == 0 ? 1 : 0) + data_columns;
        const std::uint64_t traceback_before = traceback_bytes;
        traceback_bytes += rows * ((row_len + 1) / 2);
        if constexpr (!kScoreOnly)
            store.close_stripe(rows, fdc, data_columns);
        if (traceback_bytes > params.traceback_bytes)
            out_of_memory = true;
        fault::charge_cells(out.cells_computed - stripe_cells_before);
        fault::charge_heap_bytes(traceback_bytes - traceback_before);

        // Publish the stripe's last row as the next BRAM row. Every
        // column of the new window [jstart, last_col] was written (the
        // boundary column and/or the consecutive completed columns), so
        // no clearing is needed before the swap.
        std::swap(bram_v, next_v);
        std::swap(bram_g, next_g);
        bram_start = jstart;
        bram_end = last_col;
        if (bram_end < bram_start)
            break;
    }

    out.max_score = vmax;
    out.target_max = best_j;
    out.query_max = best_i;
    out.traceback_bytes = traceback_bytes;
    if constexpr (!kScoreOnly) {
        if (best_i != 0 || best_j != 0)
            out.cigar =
                detail::trace_from(store, target, query, best_i, best_j);
    }
    return out;
}

}  // namespace darwin::align::kernels

#endif  // DARWIN_ALIGN_KERNELS_GACTX_WAVEFRONT_H
