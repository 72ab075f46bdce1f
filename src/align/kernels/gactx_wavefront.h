/**
 * @file
 * Shared anti-diagonal scaffolding of the GACT-X wavefront kernels.
 *
 * `gactx_align_wavefront<Policy>` owns everything that is identical
 * across the scalar and SIMD variants — the stripe walk, the jstart
 * frontier scan, the boundary column, the column commit that replays
 * the seed engine's sequential vmax/termination order
 * (`GactXColumns::commit`), the frontier swap and the stripe records of
 * the traceback store. A Policy supplies `walk(ctx, stripe, ws, cols)`:
 * sweep one stripe's anti-diagonals, storing each cell's 4-bit pointer
 * code as one byte at `stripe.ptr[dd * npe + r]` (the diagonal's lanes
 * are contiguous in the diagonal-major `StripePointerStore`, so a SIMD
 * block is one store), and commit every completed column through
 * `cols.commit` until it returns true or the last diagonal is done.
 * Its static `pads(npe)` says whether that walk reads the padded tile
 * copies, which `GactXScratch::prepare` then builds.
 *
 * Two walks exist. `gactx_lane_buffer_walk` keeps the lane state in
 * slot-indexed buffers that rotate each diagonal and runs `gactx_cell`
 * on each diagonal's live lanes rlo..rhi; the scalar tier runs it, and
 * so do the vector tiers past kGactXPad rows per stripe. The register
 * walk (simd_kernels.h) keeps the same state in vector registers.
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
 *     column best of c over rows 0..r-1 -> cd1[r] (lane above, dd - 1)
 *
 * Slot 0 is refreshed from the previous stripe's frontier whenever lane
 * 0 is active, which is exactly the systolic array's BRAM read port.
 * The column best travels down the lanes with its column, so the best
 * of the column completing at diagonal dd is lane rows - 1's.
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

/** The lane-buffer walk's cell context (its pointers rotate). */
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
    Score* cd1 = nullptr;          ///< column best, diagonal dd - 1
    Score* ccur = nullptr;
    std::int32_t* bd1 = nullptr;   ///< its row, diagonal dd - 1
    std::int32_t* bcur = nullptr;
    std::uint8_t* ptr = nullptr;  ///< this diagonal's codes: lane r -> ptr[r]
};

/** One stripe, as the scaffold hands it to a walk. */
struct GactXStripe {
    std::size_t i0 = 0;        ///< first query row (1-based)
    std::size_t rows = 0;      ///< lanes, at most num_pe
    std::size_t npe = 0;       ///< num_pe: the store's diagonal stride
    std::size_t fdc = 0;       ///< target column of c = 0
    std::size_t num_cols = 0;  ///< data columns fdc..n
    const Score* init_left = nullptr;  ///< column-0 boundary per lane
    const Score* bram_v = nullptr;     ///< previous stripe's frontier
    const Score* bram_g = nullptr;
    std::size_t bram_start = 0;  ///< its window [bram_start, bram_end]
    std::size_t bram_end = 0;
    std::uint8_t* ptr = nullptr;  ///< diagonal-major codes; null score-only

    /** Last diagonal: the last column's last lane. */
    std::size_t ddmax() const { return (num_cols - 1) + (rows - 1); }

    /** The BRAM port: frontier value at target column j, -inf outside
     *  the window. */
    Score
    port(const Score* frontier, std::size_t j) const
    {
        return j >= bram_start && j <= bram_end ? frontier[j]
                                                : kScoreNegInf;
    }
};

/**
 * The column walk every stripe walk commits through, in sequential
 * column order: vmax/best update, last-row frontier, and the live
 * X-drop stripe-termination test. Cells the wavefront has already
 * started in later columns are discarded on termination: they were
 * never counted or committed anywhere.
 */
struct GactXColumns {
    Score ydrop = 0;
    Score vmax = 0;
    std::size_t best_i = 0;
    std::size_t best_j = 0;
    // Per stripe (set by the scaffold):
    Score* next_v = nullptr;  ///< the frontier being produced
    Score* next_g = nullptr;
    std::uint32_t data_columns = 0;  ///< columns committed so far

    /**
     * The next column of stripe `st` completed with best `best` at
     * stripe row `row` and last-row values `v`, `g`. Returns true when
     * the stripe terminates there.
     */
    [[gnu::always_inline]] bool
    commit(const GactXStripe& st, Score best, std::int32_t row, Score v,
           Score g)
    {
        const std::size_t j = st.fdc + data_columns++;
        if (best > vmax) {
            vmax = best;
            best_i = st.i0 + static_cast<std::size_t>(row);
            best_j = j;
        }
        next_v[j] = v;
        next_g[j] = g;
        // Termination only applies beyond the previous stripe's
        // frontier (see the seed engine: within [jstart, bram_end] BRAM
        // values further right can revive the stripe).
        return best < vmax - ydrop && j > st.bram_end;
    }
};

/**
 * One DP cell, bit-exact to the seed engine's lane body: tie-breaks are
 * `>=` for both gap-open bits and strictly-greater for the V direction
 * precedence Diag < HGap < VGap and for the column best (folded down
 * the column in ascending r, so the smallest row among equals wins).
 * `kScoreOnly` skips the pointer store only, so a score-only pass
 * visits the identical cell set and produces the identical score
 * trajectory.
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

    const bool better = val > c.cd1[s - 1];
    c.ccur[s] = better ? val : c.cd1[s - 1];
    c.bcur[s] = better ? static_cast<std::int32_t>(r) : c.bd1[s - 1];

    if constexpr (!kScoreOnly)
        c.ptr[r] = detail::pack_pointer(vdir, hopen, vopen);
}

/**
 * The lane-buffer stripe walk: per diagonal, refresh slot 0 from the
 * BRAM port, run `gactx_cell` on the live lanes, activate the next
 * lane, commit the completed column and rotate the buffers.
 */
template <bool kScoreOnly>
[[gnu::always_inline]] inline void
gactx_lane_buffer_walk(GactXDiagCtx& ctx, const GactXStripe& st,
                       GactXScratch& ws, GactXColumns& cols)
{
    const std::size_t rows = st.rows;
    const std::size_t num_cols = st.num_cols;
    const std::size_t ddmax = st.ddmax();

    Score* vd2 = ws.v0.data();
    Score* vd1 = ws.v1.data();
    Score* vcur = ws.v2.data();
    Score* gd1 = ws.g0.data();
    Score* gcur = ws.g1.data();
    Score* hd1 = ws.h0.data();
    Score* hcur = ws.h1.data();
    Score* cd1 = ws.c0.data();
    Score* ccur = ws.c1.data();
    std::int32_t* bd1 = ws.b0.data();
    std::int32_t* bcur = ws.b1.data();
    vd1[1] = st.init_left[0];
    hd1[1] = kScoreNegInf;
    cd1[0] = kScoreNegInf;  // every column starts at lane 0 from -inf
    ccur[0] = kScoreNegInf;

    for (std::size_t dd = 0; dd <= ddmax; ++dd) {
        const std::size_t rlo = (dd >= num_cols) ? dd - (num_cols - 1) : 0;
        const std::size_t rhi = std::min(rows - 1, dd);

        if (rlo == 0) {
            // Lane 0's BRAM port at its current column j0 = fdc + dd.
            const std::size_t j0 = st.fdc + dd;
            vd1[0] = st.port(st.bram_v, j0);
            gd1[0] = st.port(st.bram_g, j0);
            vd2[0] = st.port(st.bram_v, j0 - 1);
        }

        ctx.vd1 = vd1;
        ctx.vd2 = vd2;
        ctx.vcur = vcur;
        ctx.gd1 = gd1;
        ctx.gcur = gcur;
        ctx.hd1 = hd1;
        ctx.hcur = hcur;
        ctx.cd1 = cd1;
        ctx.ccur = ccur;
        ctx.bd1 = bd1;
        ctx.bcur = bcur;
        if (st.ptr != nullptr)
            ctx.ptr = st.ptr + dd * st.npe;
        for (std::size_t r = rlo; r <= rhi; ++r)
            gactx_cell<kScoreOnly>(ctx, dd, r);

        // Activate lane dd+1: this single write is its left neighbour
        // next diagonal (as vd1) and lane dd+2's diagonal neighbour the
        // diagonal after (as vd2).
        if (dd + 1 <= rows - 1) {
            vcur[dd + 2] = st.init_left[dd + 1];
            hcur[dd + 2] = kScoreNegInf;
        }

        // Column dd - (rows - 1) just completed (its last lane ran
        // this diagonal).
        if (dd >= rows - 1 &&
            cols.commit(st, ccur[rows], bcur[rows], vcur[rows], gcur[rows]))
            return;

        Score* vtmp = vd2;
        vd2 = vd1;
        vd1 = vcur;
        vcur = vtmp;
        std::swap(gd1, gcur);
        std::swap(hd1, hcur);
        std::swap(cd1, ccur);
        std::swap(bd1, bcur);
    }
}

/**
 * `kScoreOnly` elides every traceback side effect — the pointer store
 * and the final trace — while keeping the DP, the X-drop walk and *all*
 * accounting (cells_computed, stripe_columns, traceback_bytes, budget
 * charges) identical. Because vmax starts at 0 and only strictly-greater
 * column bests move it, max_score == 0 iff the best cell is the origin
 * iff the CIGAR is empty: a score-only result with max_score == 0 is the
 * complete bit-identical TileResult for that (dead) tile. A kScoreOnly
 * Policy must store no pointer codes (stripe.ptr is null). Always
 * inlined, so an ISA kernel compiles the scaffold with its own target
 * options and inlines its policy (see simd_kernels.h).
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
    ws.prepare(target, query, npe, Policy::pads(npe));
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

    detail::StripePointerStore store(ws.ptr_pool, npe);
    std::uint64_t traceback_bytes = 0;
    bool out_of_memory = false;

    GactXDiagCtx ctx;
    ctx.t = target.data();
    ctx.sub = scoring.matrix.front().data();
    ctx.open = scoring.gap_open;
    ctx.extend = scoring.gap_extend;
    Policy pol(ctx);

    GactXColumns cols;
    cols.ydrop = ydrop;

    for (std::size_t i0 = 1; i0 <= m && !out_of_memory; i0 += npe) {
        // Budget/injection probe once per stripe: the cooperative
        // cancellation granularity for every kernel variant (a stripe is
        // at most npe * n cells). Polling never alters any DP state, so
        // results stay bit-identical whether or not a token is armed.
        fault::poll("extend.stripe");
        const std::uint64_t stripe_cells_before = out.cells_computed;
        const std::size_t i1 = std::min(m, i0 + npe - 1);
        const std::size_t rows = i1 - i0 + 1;
        const Score stripe_threshold = cols.vmax - ydrop;

        // jstart: first column of the previous stripe's stored row whose
        // score still clears the X-drop bound (V >= D, so scanning V and
        // the stored vertical-gap score covers both).
        std::size_t jstart = bram_start;
        while (jstart <= bram_end && bram_v[jstart] < stripe_threshold &&
               bram_g[jstart] < stripe_threshold)
            ++jstart;
        if (jstart > bram_end)
            break;  // the whole frontier fell below the bound

        GactXStripe st;
        st.i0 = i0;
        st.rows = rows;
        st.npe = npe;
        st.fdc = std::max<std::size_t>(jstart, 1);
        st.num_cols = n - st.fdc + 1;
        st.init_left = ws.init_left.data();
        st.bram_v = bram_v;
        st.bram_g = bram_g;
        st.bram_start = bram_start;
        st.bram_end = bram_end;
        if constexpr (!kScoreOnly)
            st.ptr = store.open_stripe(st.ddmax() + 1);

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

        std::uint32_t columns = 0;
        if (jstart == 0) {
            // Boundary column: one leading-query-gap cell per lane. Its
            // pointers are never stored — the traceback stops at j == 0.
            out.cells_computed += rows;
            next_v[0] = ws.init_left[rows - 1];
            next_g[0] = ws.init_left[rows - 1];
            ++columns;
        }

        ctx.q = query.data() + (i0 - 1);
        ctx.fdc = st.fdc;
        cols.next_v = next_v;
        cols.next_g = next_g;
        cols.data_columns = 0;
        pol.walk(ctx, st, ws, cols);

        const std::uint32_t data_columns = cols.data_columns;
        columns += data_columns;
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
            store.close_stripe(rows, st.fdc, data_columns);
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
        bram_end = st.fdc + data_columns - 1;  // the last column committed
        if (bram_end < bram_start)
            break;
    }

    out.max_score = cols.vmax;
    out.target_max = cols.best_j;
    out.query_max = cols.best_i;
    out.traceback_bytes = traceback_bytes;
    if constexpr (!kScoreOnly) {
        if (cols.best_i != 0 || cols.best_j != 0)
            out.cigar = detail::trace_from(store, target, query, cols.best_i,
                                           cols.best_j);
    }
    return out;
}

}  // namespace darwin::align::kernels

#endif  // DARWIN_ALIGN_KERNELS_GACTX_WAVEFRONT_H
