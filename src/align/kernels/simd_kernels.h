/**
 * @file
 * The SIMD filter and extension kernels, written once over GCC vector
 * types and instantiated per ISA: kernels_sse42.cpp at W = 4 lanes,
 * kernels_avx2.cpp at W = 8 and kernels_avx512.cpp at W = 16 (the
 * paper's systolic arrays likewise take the PE count as a parameter).
 * `SimdKernels<Isa>` holds the banded-SW diagonal policy with its
 * row-major-first best reduction, the ungapped x-drop kernel with its
 * block prefix-sum/prefix-max, and the GACT-X stripe policy (full and
 * score-only): a register-resident stripe walk over up to kGactXPad
 * rows, in blocks of W lanes.
 * Every lane op is exact integer arithmetic, so each instantiation is
 * bit-identical to the scalar tier.
 *
 * The Isa shim supplies the four operations plain vector code would
 * scalarise through general-purpose registers:
 *
 *     using V = std::int32_t __attribute__((vector_size(4 * W)));
 *     static V widen(const std::uint8_t* p);     // p[0..W) -> int32 lanes
 *     static unsigned bits(V mask);              // lane k's sign -> bit k
 *     static void store_codes(std::uint8_t* p, V code);  // low bytes
 *     struct Lut {                               // substitution lookup
 *         explicit Lut(const Score* sub);        // flattened 5x5 matrix
 *         V operator()(V idx) const;             // lane k = sub[idx[k]]
 *     };
 *
 * A Lut is built once per kernel call, so a tier can hold the matrix in
 * registers (AVX-512) or keep the pointer for a gather (AVX2, SSE4.2).
 *
 * Linkage contract. An ISA TU defines DARWIN_SIMD_TARGET (a
 * `#pragma GCC target` string) and includes this header first. All
 * dependencies are included above the target region, so only the code
 * in the region is compiled for the ISA, and all of it has internal
 * linkage: no ISA-encoded copy of a shared inline function (std::,
 * trace_from, gactx_cell, ...) can become the COMDAT copy the linker
 * keeps. The region is GCC on x86-64 only; elsewhere the registry
 * gets nullptr stubs and runs the scalar tier.
 * The walks (bsw_align_wavefront, gactx_align_wavefront) are
 * always_inline, so they compile into the ISA entry points with the
 * ISA's options and inline the policies below.
 */
#ifndef DARWIN_ALIGN_KERNELS_SIMD_KERNELS_H
#define DARWIN_ALIGN_KERNELS_SIMD_KERNELS_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <type_traits>
#include <utility>

#include "align/kernels/bsw_kernels.h"
#include "align/kernels/gactx_wavefront.h"
#include "align/kernels/kernel_registry.h"
#include "util/logging.h"

#if defined(__GNUC__) && !defined(__clang__) && defined(__x86_64__)
#define DARWIN_SIMD_KERNELS 1

#include <immintrin.h>

#define DARWIN_PRAGMA_(x) _Pragma(#x)
#define DARWIN_PRAGMA(x) DARWIN_PRAGMA_(x)
/** Open/close a region compiled for DARWIN_SIMD_TARGET. */
#define DARWIN_SIMD_BEGIN \
    DARWIN_PRAGMA(GCC push_options) \
    DARWIN_PRAGMA(GCC target(DARWIN_SIMD_TARGET))
#define DARWIN_SIMD_END DARWIN_PRAGMA(GCC pop_options)

DARWIN_SIMD_BEGIN
namespace darwin::align::kernels {
namespace {

template <class Isa>
struct SimdKernels {
    using V = typename Isa::V;
    using Lut = typename Isa::Lut;
    static constexpr std::size_t W = sizeof(V) / sizeof(Score);

    static V splat(Score s) { return V{} + s; }
    static V max(V a, V b) { return a > b ? a : b; }

    static V
    load(const Score* p)
    {
        V v;
        std::memcpy(&v, p, sizeof v);
        return v;
    }

    static void store(Score* p, V v) { std::memcpy(p, &v, sizeof v); }

    /** The constant vector with lane k = f(k). */
    template <class F>
    static constexpr V
    lanes(F f)
    {
        return [f]<std::size_t... K>(std::index_sequence<K...>) {
            return V{static_cast<Score>(f(K))...};
        }(std::make_index_sequence<W>{});
    }

    static V
    reverse(V v)
    {
        constexpr V kRev = lanes([](std::size_t k) { return W - 1 - k; });
        return __builtin_shuffle(v, kRev);
    }

    /** Lane k = v[k - S] for k >= S, fill[k] below. */
    template <std::size_t S>
    static V
    shift_in(V v, V fill)
    {
        constexpr V kIdx =
            lanes([](std::size_t k) { return k >= S ? k - S : k + W; });
        return __builtin_shuffle(v, fill, kIdx);
    }

    /** Inclusive prefix sum (S = 1) or prefix max over W lanes. */
    template <std::size_t S = 1>
    static V
    prefix_sum(V v)
    {
        v += shift_in<S>(v, V{});
        if constexpr (2 * S < W)
            return prefix_sum<2 * S>(v);
        return v;
    }

    template <std::size_t S = 1>
    static V
    prefix_max(V v)
    {
        v = max(v, shift_in<S>(v, splat(kScoreNegInf)));
        if constexpr (2 * S < W)
            return prefix_max<2 * S>(v);
        return v;
    }

    /** Substitution scores of W (target, query) code pairs. */
    static V
    subs(V tc, V qc, const Lut& sub)
    {
        return sub(tc * seq::kNumCodes + qc);
    }

    /** Horizontal max: log2(W) lane-swap steps (S = W/2, ..., 1). */
    template <std::size_t S = W / 2>
    static Score
    hmax(V v)
    {
        constexpr V kSwap = lanes([](std::size_t k) { return k ^ S; });
        v = max(v, __builtin_shuffle(v, kSwap));
        if constexpr (S > 1)
            return hmax<S / 2>(v);
        return v[0];
    }

    /**
     * Banded-SW diagonal in W-lane blocks plus a scalar tail. Lane k
     * handles cell (i + k, d - i - k): contiguous loads of the three
     * neighbour diagonals, query codes load forward from q[i - 1],
     * target codes are the W bytes ending at t[d - i - 1], reversed.
     */
    struct Bsw {
        V vopen, vext;
        Lut sub;

        explicit Bsw(const BswDiagCtx& c)
            : vopen(splat(c.open)), vext(splat(c.extend)), sub(c.sub)
        {
        }

        void
        diagonal(const BswDiagCtx& c, std::size_t d, std::size_t lo,
                 std::size_t hi, BswBest& best) const
        {
            V bestv = splat(best.score);
            // One past block i's lane-reversed target bytes; moves down W.
            const std::uint8_t* tend = c.t + (d - lo);
            std::size_t i = lo;
            for (; i + W <= hi + 1; i += W, tend -= W) {
                const V subv = subs(reverse(Isa::widen(tend - W)),
                                    Isa::widen(c.q + (i - 1)), sub);
                const V h = max(load(c.vd1 + i) - vopen,
                                load(c.hd1 + i) - vext);
                const V g = max(load(c.vd1 + i - 1) - vopen,
                                load(c.gd1 + i - 1) - vext);
                const V val =
                    max(max(load(c.vd2 + i - 1) + subv, V{}), max(h, g));
                store(c.vcur + i, val);
                store(c.gcur + i, g);
                store(c.hcur + i, h);

                // Row-major-first max reduction (see BswBest::consider).
                if (Isa::bits(val > bestv) != 0) {
                    best.score = hmax(val);
                    bestv = splat(best.score);
                    best.i = i + static_cast<std::size_t>(
                                     __builtin_ctz(Isa::bits(val == bestv)));
                    best.j = d - best.i;
                } else if (best.score > 0 && best.i > i) {
                    const unsigned eq = Isa::bits(val == bestv);
                    if (eq != 0) {
                        const std::size_t ci =
                            i + static_cast<std::size_t>(__builtin_ctz(eq));
                        if (ci < best.i) {
                            best.i = ci;
                            best.j = d - ci;
                        }
                    }
                }
            }
            for (; i <= hi; ++i)
                bsw_cell(c, d, i, best);
        }
    };

    static BswResult
    bsw(std::span<const std::uint8_t> target,
        std::span<const std::uint8_t> query, const ScoringParams& scoring,
        std::size_t band)
    {
        return bsw_align_wavefront<Bsw>(target, query, scoring, band);
    }

    /**
     * Ungapped x-drop extension. Substitution scores are looked up in
     * W-cell blocks and the scalar run/best/break chain is evaluated
     * in-register: P[b] = running score after cell b (prefix sum plus
     * the incoming run), and with M the prefix max of P, the best
     * before cell b is max(incoming best, M[b-1]) and after it
     * max(incoming best, M[b]). The improve mask marks lanes where the
     * scalar chain updates best (strict >), the break mask lanes where
     * its post-update x-drop test fires; the first break lane bounds
     * both, so the termination point and cells_computed match scalar.
     */
    static UngappedResult
    ungapped(std::span<const std::uint8_t> target,
             std::span<const std::uint8_t> query, std::size_t seed_t,
             std::size_t seed_q, std::size_t seed_len,
             const ScoringParams& scoring, Score xdrop)
    {
        require(seed_t + seed_len <= target.size() &&
                    seed_q + seed_len <= query.size(),
                "ungapped_xdrop_extend: seed outside spans");

        UngappedResult out;
        const Score* sub = scoring.matrix.front().data();
        const Lut lut(sub);
        const std::uint8_t* tb = target.data();
        const std::uint8_t* qb = query.data();

        // Seed span: integer adds are exact and order-independent.
        Score seed_score = 0;
        {
            std::size_t k = 0;
            V acc{};
            for (; k + W <= seed_len; k += W)
                acc += subs(Isa::widen(tb + seed_t + k),
                            Isa::widen(qb + seed_q + k), lut);
            for (std::size_t b = 0; b < W; ++b)
                seed_score += acc[b];
            for (; k < seed_len; ++k)
                seed_score += sub[tb[seed_t + k] * seq::kNumCodes +
                                  qb[seed_q + k]];
            out.cells_computed += seed_len;
        }

        // One direction: block(len) scores cells len..len+W-1, cell(len)
        // scores cell len; returns the best score, its length in
        // *best_len.
        const auto extend = [&](std::size_t avail, auto block, auto cell,
                                std::size_t* best_len) {
            Score run = 0;
            Score best = 0;
            std::size_t len = 0;
            bool broke = false;
            while (len + W <= avail && !broke) {
                const V p = prefix_sum(block(len)) + run;
                const V m = prefix_max(p);
                const V bestv = splat(best);
                unsigned mask = Isa::bits(
                    p > max(bestv, shift_in<1>(m, splat(kScoreNegInf))));
                const unsigned brk = Isa::bits(max(bestv, m) - xdrop > p);
                std::size_t consumed = W;
                if (brk != 0) {
                    const int bstar = __builtin_ctz(brk);
                    consumed = static_cast<std::size_t>(bstar) + 1;
                    mask &= (2u << bstar) - 1;  // lanes up to the break
                    broke = true;
                }
                if (mask != 0) {
                    const int last = 31 - __builtin_clz(mask);
                    best = p[last];
                    *best_len = len + static_cast<std::size_t>(last) + 1;
                }
                run = p[W - 1];  // stale after a break; the loop stops
                out.cells_computed += consumed;
                len += consumed;
            }
            while (len < avail && !broke) {
                run += cell(len);
                ++len;
                ++out.cells_computed;
                if (run > best) {
                    best = run;
                    *best_len = len;
                }
                if (run < best - xdrop)
                    broke = true;
            }
            return best;
        };

        // Right: cell len reads t[te + len]. Left: cell len reads
        // t[seed_t - len - 1], so a block is a reversed contiguous load.
        const std::uint8_t* te = tb + seed_t + seed_len;
        const std::uint8_t* qe = qb + seed_q + seed_len;
        std::size_t best_right_len = 0;
        const Score best_right = extend(
            std::min(target.size() - (seed_t + seed_len),
                     query.size() - (seed_q + seed_len)),
            [&](std::size_t len) {
                return subs(Isa::widen(te + len), Isa::widen(qe + len),
                            lut);
            },
            [&](std::size_t len) {
                return sub[te[len] * seq::kNumCodes + qe[len]];
            },
            &best_right_len);
        std::size_t best_left_len = 0;
        const Score best_left = extend(
            std::min(seed_t, seed_q),
            [&](std::size_t len) {
                return subs(reverse(Isa::widen(tb + seed_t - len - W)),
                            reverse(Isa::widen(qb + seed_q - len - W)),
                            lut);
            },
            [&](std::size_t len) {
                return sub[tb[seed_t - len - 1] * seq::kNumCodes +
                           qb[seed_q - len - 1]];
            },
            &best_left_len);

        out.score = seed_score + best_right + best_left;
        out.target_lo = seed_t - best_left_len;
        out.target_hi = seed_t + seed_len + best_right_len;
        out.query_lo = seed_q - best_left_len;
        const std::size_t mid = (out.target_hi - out.target_lo) / 2;
        out.anchor_t = out.target_lo + mid;
        out.anchor_q = out.query_lo + mid;
        return out;
    }

    /** Lane k = v[k - 1], lane 0 = above[W - 1]: one row down a
     *  column of blocks. */
    static V
    down(V v, V above)
    {
        constexpr V kIdx =
            lanes([](std::size_t k) { return k == 0 ? 2 * W - 1 : k - 1; });
        return __builtin_shuffle(v, above, kIdx);
    }

    /** Call f(integral_constant<b>) for b = N-1 down to 0, unrolled:
     *  block b may read block b - 1 before that is updated. */
    template <std::size_t N, class F>
    [[gnu::always_inline]] static void
    for_blocks(F&& f)
    {
        [&]<std::size_t... B>(std::index_sequence<B...>) {
            (f(std::integral_constant<std::size_t, N - 1 - B>{}), ...);
        }(std::make_index_sequence<N>{});
    }

    /**
     * GACT-X stripe walk (see gactx_wavefront.h for the dataflow). When
     * num_pe <= kGactXPad, every stripe runs the register walk,
     * instantiated once per block count up to kGactXPad / W; wider
     * stripes (no production caller) run the scalar lane-buffer walk.
     * The score-only instantiation elides the pointer codes.
     */
    template <bool kScoreOnly>
    struct GactX {
        static_assert(W <= detail::StripePointerStore::kSlack);

        /** One block of cells and its W pointer codes. */
        struct Block {
            V val, g, h, code;
        };

        V vopen, vext;
        Lut sub;

        explicit GactX(const GactXDiagCtx& c)
            : vopen(splat(c.open)), vext(splat(c.extend)), sub(c.sub)
        {
        }

        /** The lane body of gactx_cell over W lanes. */
        [[gnu::always_inline]] Block
        cells(V left, V h_left, V up, V g_up, V diag, V subv) const
        {
            const V h_open = left - vopen;
            const V h_ext = h_left - vext;
            const V h = max(h_open, h_ext);
            const V g_open = up - vopen;
            const V g_ext = g_up - vext;
            const V g = max(g_open, g_ext);
            const V dval = diag + subv;
            const V vh = max(dval, h);
            const V val = max(vh, g);
            V code{};
            if constexpr (!kScoreOnly) {
                code = h > dval ? splat(detail::kHGap) : splat(detail::kDiag);
                code = g > vh ? splat(detail::kVGap) : code;
                code |= ~(h_ext > h_open) & 0x4;  // hopen: h_open >= h_ext
                code |= ~(g_ext > g_open) & 0x8;  // vopen
            }
            return {val, g, h, code};
        }

        /**
         * Register walk over NB blocks: V, G, H, the column bests and
         * the previous diagonal's up neighbours (this diagonal's
         * diagonal neighbours) stay in registers for the whole stripe.
         * Up and diagonal neighbours shift in one lane from the block
         * above; block 0's lane 0 takes the BRAM port. Lanes whose row
         * is past the diagonal are masked to their column-0 boundary
         * until they start; lanes at or past `rows` are phantom rows
         * below the stripe, and lanes past the last column compute on
         * the guard bytes of the padded tile copies: nothing reads
         * either. The column completing at diagonal dd is read off
         * lane rows - 1, which is in the last block.
         */
        template <std::size_t NB>
        void
        registers(const GactXStripe& stripe, GactXScratch& ws,
                  GactXColumns& cols) const
        {
            // Local copies: the commit's stores may alias the members
            // and the stripe, which would otherwise be reloaded every
            // diagonal.
            const GactX self = *this;
            const GactXStripe st = stripe;
            using Blocks = V[NB];
            const std::size_t rows = st.rows;
            const std::size_t ddmax = st.ddmax();
            Score* init = ws.init_left.data();
            std::fill(init + rows, init + NB * W, kScoreNegInf);

            const V ninf = splat(kScoreNegInf);
            Blocks qc, initv, vd1, up1, gd1, hd1, best, best_row;
            for_blocks<NB>([&](auto b) {
                qc[b] = Isa::widen(ws.qpad.data() + (st.i0 - 1) + b * W);
                initv[b] = load(init + b * W);
                vd1[b] = initv[b];
                gd1[b] = ninf;
                hd1[b] = ninf;
                best[b] = ninf;
                best_row[b] = V{};
            });
            // Block b's target codes on diagonal dd start at
            // tcodes - dd + b * W (tpad is reversed).
            const std::uint8_t* tcodes =
                ws.tpad.data() + kGactXPad + (st.num_cols - 1);
            const V last = splat(static_cast<Score>(rows - 1 - (NB - 1) * W));
            const auto at_last = [&](V v) {
                return __builtin_shuffle(v, last)[0];
            };
            // The up neighbours of diagonal -1: lane 0's is the port at
            // column fdc - 1, the diagonal neighbour of diagonal 0.
            for_blocks<NB>([&](auto b) {
                constexpr std::size_t kB = decltype(b)::value;
                if constexpr (kB == 0)
                    up1[kB] = down(initv[kB],
                                   splat(st.port(st.bram_v, st.fdc - 1)));
                else
                    up1[kB] = down(initv[kB], initv[kB - 1]);
            });

            // One diagonal; returns true when the stripe terminates.
            // `ramp` (some lane has not started) masks lanes by row.
            const auto step = [&](std::size_t dd, auto ramp)
                                  __attribute__((always_inline)) {
                const Score up_port = st.port(st.bram_v, st.fdc + dd);
                const Score g_port = st.port(st.bram_g, st.fdc + dd);
                for_blocks<NB>([&](auto b) {
                    constexpr std::size_t kB = decltype(b)::value;
                    const auto above = [&](const Blocks& x, V port) {
                        if constexpr (kB == 0)
                            return port;
                        else
                            return x[kB - 1];
                    };
                    const V up = down(vd1[kB], above(vd1, splat(up_port)));
                    const V g_up = down(gd1[kB], above(gd1, splat(g_port)));
                    const V subv =
                        self.sub(Isa::widen(tcodes - dd + kB * W) + qc[kB]);
                    Block x =
                        self.cells(vd1[kB], hd1[kB], up, g_up, up1[kB], subv);
                    // The column bests arrive from the row above; strict
                    // >, so the smallest row keeps a tie.
                    const V best_up = down(best[kB], above(best, ninf));
                    const V better = x.val > best_up;
                    constexpr V kRow = lanes(
                        [](std::size_t k) { return kB * W + k; });
                    best[kB] = better ? x.val : best_up;
                    best_row[kB] = better
                                       ? kRow
                                       : down(best_row[kB],
                                              above(best_row, V{}));
                    if constexpr (decltype(ramp)::value) {
                        const V live = kRow <= splat(static_cast<Score>(dd));
                        x.val = live ? x.val : initv[kB];
                        x.g = live ? x.g : ninf;
                        x.h = live ? x.h : ninf;
                    }
                    vd1[kB] = x.val;
                    gd1[kB] = x.g;
                    hd1[kB] = x.h;
                    up1[kB] = up;
                    if constexpr (!kScoreOnly)
                        Isa::store_codes(st.ptr + dd * st.npe + kB * W,
                                         x.code);
                });
                if (decltype(ramp)::value && dd < rows - 1)
                    return false;
                return cols.commit(st, at_last(best[NB - 1]),
                                   at_last(best_row[NB - 1]),
                                   at_last(vd1[NB - 1]), at_last(gd1[NB - 1]));
            };

            // Until diagonal NB * W - 2 some lane has not started.
            std::size_t dd = 0;
            for (const std::size_t ramp_end = std::min(ddmax + 1, NB * W - 1);
                 dd < ramp_end; ++dd)
                if (step(dd, std::true_type{}))
                    return;
            for (; dd <= ddmax; ++dd)
                if (step(dd, std::false_type{}))
                    return;
        }

        /** Whether stripes of npe rows run the register walk, which
         *  reads the padded tile copies. */
        static bool pads(std::size_t npe) { return npe <= kGactXPad; }

        void
        walk(GactXDiagCtx& ctx, const GactXStripe& st, GactXScratch& ws,
             GactXColumns& cols) const
        {
            if (!pads(st.npe))
                return gactx_lane_buffer_walk<kScoreOnly>(ctx, st, ws, cols);
            const std::size_t nb = (st.rows + W - 1) / W;
            [&]<std::size_t... B>(std::index_sequence<B...>) {
                ((nb == B + 1 ? registers<B + 1>(st, ws, cols) : void()),
                 ...);
            }(std::make_index_sequence<kGactXPad / W>{});
        }
    };

    template <bool kScoreOnly>
    static TileResult
    gactx(std::span<const std::uint8_t> target,
          std::span<const std::uint8_t> query, const GactXParams& params)
    {
        return gactx_align_wavefront<GactX<kScoreOnly>, kScoreOnly>(
            target, query, params);
    }
};

/** The registry entry points of one instantiation; no code runs here. */
template <class Isa>
constexpr KernelOps kSimdKernelOps{
    &SimdKernels<Isa>::bsw, &SimdKernels<Isa>::ungapped,
    &SimdKernels<Isa>::template gactx<false>,
    &SimdKernels<Isa>::template gactx<true>};

}  // namespace
}  // namespace darwin::align::kernels
DARWIN_SIMD_END

#endif  // GCC on x86-64

#endif  // DARWIN_ALIGN_KERNELS_SIMD_KERNELS_H
