/**
 * AVX2 filter kernels (8 x int32 lanes). Compiled with -mavx2 when the
 * compiler supports it (see src/CMakeLists.txt); otherwise the stub at
 * the bottom reports the ISA as uncompiled and the registry skips it.
 *
 * Banded SW: the wavefront layout of bsw_wavefront.cpp with the inner
 * diagonal loop in 8-lane blocks — contiguous loads of the three
 * neighbour diagonals, substitution scores fetched with a hardware
 * gather from the flattened 5x5 matrix, and a movemask-guarded max
 * reduction that reproduces the row-major-first tie-break. Ungapped
 * x-drop: substitution scores are gathered in 8-cell blocks and the
 * run/best/break chain is evaluated in-register — an inclusive prefix
 * sum gives every running score in the block, an inclusive prefix max
 * gives every intermediate best, and two compare/movemask steps locate
 * the last best-improving lane and the first x-drop break lane. The
 * lane arithmetic reproduces the scalar chain exactly (same strict-
 * greater best update, same post-update break test), so the early
 * termination point (and cells_computed) never diverges from scalar.
 * All integer ops are exact, so results are bit-identical.
 */
#include "align/kernels/bsw_kernels.h"
#include "align/kernels/gactx_wavefront.h"
#include "align/kernels/kernel_registry.h"

#if defined(__AVX2__)

#include <immintrin.h>

#include "util/logging.h"

namespace darwin::align::kernels {
namespace {

inline Score hmax8(__m256i v) {
    __m128i m = _mm_max_epi32(_mm256_castsi256_si128(v),
                              _mm256_extracti128_si256(v, 1));
    m = _mm_max_epi32(m, _mm_shuffle_epi32(m, _MM_SHUFFLE(1, 0, 3, 2)));
    m = _mm_max_epi32(m, _mm_shuffle_epi32(m, _MM_SHUFFLE(2, 3, 0, 1)));
    return _mm_cvtsi128_si32(m);
}

inline Score hsum8(__m256i v) {
    __m128i s = _mm_add_epi32(_mm256_castsi256_si128(v),
                              _mm256_extracti128_si256(v, 1));
    s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(1, 0, 3, 2)));
    s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(2, 3, 0, 1)));
    return _mm_cvtsi128_si32(s);
}

inline int movemask32(__m256i v) {
    return _mm256_movemask_ps(_mm256_castsi256_ps(v));
}

/** 8 base codes widened to int32 lanes. */
inline __m256i load_codes8(const std::uint8_t* p) {
    return _mm256_cvtepu8_epi32(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p)));
}

/** Substitution scores for 8 (target, query) code pairs. */
inline __m256i gather_subs(const Score* sub, __m256i tc, __m256i qc) {
    const __m256i idx = _mm256_add_epi32(
        _mm256_mullo_epi32(tc, _mm256_set1_epi32(seq::kNumCodes)), qc);
    return _mm256_i32gather_epi32(reinterpret_cast<const int*>(sub), idx, 4);
}

/** Inclusive 8-lane prefix sum (lane b = x[0] + ... + x[b]). */
inline __m256i prefix_sum8(__m256i x) {
    x = _mm256_add_epi32(x, _mm256_slli_si256(x, 4));
    x = _mm256_add_epi32(x, _mm256_slli_si256(x, 8));
    // Propagate the low half's total into every high-half lane.
    __m256i low = _mm256_permute2x128_si256(x, x, 0x08);
    low = _mm256_shuffle_epi32(low, _MM_SHUFFLE(3, 3, 3, 3));
    return _mm256_add_epi32(x, low);
}

/** Inclusive 8-lane prefix max (shifted-in lanes act as -inf). */
inline __m256i prefix_max8(__m256i x) {
    const __m256i ninf = _mm256_set1_epi32(kScoreNegInf);
    __m256i s = _mm256_permutevar8x32_epi32(
        x, _mm256_setr_epi32(0, 0, 1, 2, 3, 4, 5, 6));
    x = _mm256_max_epi32(x, _mm256_blend_epi32(s, ninf, 0x01));
    s = _mm256_permutevar8x32_epi32(
        x, _mm256_setr_epi32(0, 0, 0, 1, 2, 3, 4, 5));
    x = _mm256_max_epi32(x, _mm256_blend_epi32(s, ninf, 0x03));
    s = _mm256_permutevar8x32_epi32(
        x, _mm256_setr_epi32(0, 0, 0, 0, 0, 1, 2, 3));
    x = _mm256_max_epi32(x, _mm256_blend_epi32(s, ninf, 0x0F));
    return x;
}

BswResult
bsw_avx2(std::span<const std::uint8_t> target,
         std::span<const std::uint8_t> query,
         const ScoringParams& scoring, std::size_t band)
{
    const std::size_t n = target.size();
    const std::size_t m = query.size();
    BswResult out;
    if (n == 0 || m == 0)
        return out;

    WavefrontScratch& ws = wavefront_scratch();
    ws.prepare(m);
    Score* vd2 = ws.v0.data();
    Score* vd1 = ws.v1.data();
    Score* vcur = ws.v2.data();
    Score* gd1 = ws.g0.data();
    Score* gcur = ws.g1.data();
    Score* hd1 = ws.h0.data();
    Score* hcur = ws.h1.data();

    const Score open = scoring.gap_open;
    const Score extend = scoring.gap_extend;
    const Score* sub = scoring.matrix.front().data();
    const std::uint8_t* t = target.data();
    const std::uint8_t* q = query.data();

    const __m256i vopen = _mm256_set1_epi32(open);
    const __m256i vext = _mm256_set1_epi32(extend);
    const __m256i vzero = _mm256_setzero_si256();
    const __m256i krev = _mm256_setr_epi32(7, 6, 5, 4, 3, 2, 1, 0);

    BswBest best;
    __m256i bestv = vzero;
    for (std::size_t d = 2; d <= m + n; ++d) {
        const auto [lo, hi] = bsw_diagonal_range(d, n, m, band);
        if (lo > hi) {  // band == 0 parity gap: keep invariants, move on
            bsw_write_empty_diagonal(d, n, m, band, vcur, gcur, hcur);
            Score* vtmp = vd2;
            vd2 = vd1;
            vd1 = vcur;
            vcur = vtmp;
            std::swap(gd1, gcur);
            std::swap(hd1, hcur);
            continue;
        }
        std::size_t i = lo;
        for (; i + 7 <= hi; i += 8) {
            const __m256i left_v = _mm256_loadu_si256(
                reinterpret_cast<const __m256i*>(vd1 + i));
            const __m256i left_h = _mm256_loadu_si256(
                reinterpret_cast<const __m256i*>(hd1 + i));
            const __m256i up_v = _mm256_loadu_si256(
                reinterpret_cast<const __m256i*>(vd1 + i - 1));
            const __m256i up_g = _mm256_loadu_si256(
                reinterpret_cast<const __m256i*>(gd1 + i - 1));
            const __m256i diag_v = _mm256_loadu_si256(
                reinterpret_cast<const __m256i*>(vd2 + i - 1));

            // Lane k handles cell (i+k, d-i-k): query codes load forward
            // from q[i-1], target codes load as 8 bytes ending at
            // t[d-i-1] and are lane-reversed.
            const __m256i qc = load_codes8(q + (i - 1));
            const __m256i tc = _mm256_permutevar8x32_epi32(
                load_codes8(t + (d - i - 8)), krev);
            const __m256i subv = gather_subs(sub, tc, qc);

            const __m256i h =
                _mm256_max_epi32(_mm256_sub_epi32(left_v, vopen),
                                 _mm256_sub_epi32(left_h, vext));
            const __m256i g =
                _mm256_max_epi32(_mm256_sub_epi32(up_v, vopen),
                                 _mm256_sub_epi32(up_g, vext));
            __m256i val =
                _mm256_max_epi32(_mm256_add_epi32(diag_v, subv), vzero);
            val = _mm256_max_epi32(val, _mm256_max_epi32(h, g));

            _mm256_storeu_si256(reinterpret_cast<__m256i*>(vcur + i), val);
            _mm256_storeu_si256(reinterpret_cast<__m256i*>(gcur + i), g);
            _mm256_storeu_si256(reinterpret_cast<__m256i*>(hcur + i), h);

            // Row-major-first max reduction (see BswBest::consider).
            if (movemask32(_mm256_cmpgt_epi32(val, bestv)) != 0) {
                const Score dmax = hmax8(val);
                const int eqm = movemask32(
                    _mm256_cmpeq_epi32(val, _mm256_set1_epi32(dmax)));
                best.score = dmax;
                best.i = i + static_cast<std::size_t>(__builtin_ctz(
                                 static_cast<unsigned>(eqm)));
                best.j = d - best.i;
                bestv = _mm256_set1_epi32(dmax);
            } else if (best.score > 0 && best.i > i) {
                const int eqm = movemask32(_mm256_cmpeq_epi32(val, bestv));
                if (eqm != 0) {
                    const std::size_t ci =
                        i + static_cast<std::size_t>(__builtin_ctz(
                                static_cast<unsigned>(eqm)));
                    if (ci < best.i) {
                        best.i = ci;
                        best.j = d - ci;
                    }
                }
            }
        }
        for (; i <= hi; ++i) {
            const std::size_t j = d - i;
            const Score h = std::max(vd1[i] - open, hd1[i] - extend);
            const Score g =
                std::max(vd1[i - 1] - open, gd1[i - 1] - extend);
            Score val =
                vd2[i - 1] + sub[t[j - 1] * seq::kNumCodes + q[i - 1]];
            if (val < 0) val = 0;
            if (h > val) val = h;
            if (g > val) val = g;
            vcur[i] = val;
            gcur[i] = g;
            hcur[i] = h;
            const Score prev_best = best.score;
            best.consider(val, i, j);
            if (best.score != prev_best)
                bestv = _mm256_set1_epi32(best.score);
        }
        out.cells_computed += hi - lo + 1;

        if (lo > 1) {
            vcur[lo - 1] = kScoreNegInf;
            gcur[lo - 1] = kScoreNegInf;
            hcur[lo - 1] = kScoreNegInf;
        }
        vcur[hi + 1] = kScoreNegInf;
        gcur[hi + 1] = kScoreNegInf;
        hcur[hi + 1] = kScoreNegInf;
        if (d <= m) {
            vcur[d] = 0;
            gcur[d] = kScoreNegInf;
            hcur[d] = kScoreNegInf;
        }

        Score* vtmp = vd2;
        vd2 = vd1;
        vd1 = vcur;
        vcur = vtmp;
        std::swap(gd1, gcur);
        std::swap(hd1, hcur);
    }

    out.max_score = best.score;
    out.query_max = best.i;
    out.target_max = best.j;
    return out;
}

UngappedResult
ungapped_avx2(std::span<const std::uint8_t> target,
              std::span<const std::uint8_t> query, std::size_t seed_t,
              std::size_t seed_q, std::size_t seed_len,
              const ScoringParams& scoring, Score xdrop)
{
    require(seed_t + seed_len <= target.size() &&
            seed_q + seed_len <= query.size(),
            "ungapped_xdrop_extend: seed outside spans");

    UngappedResult out;
    const Score* sub = scoring.matrix.front().data();
    const std::uint8_t* tb = target.data();
    const std::uint8_t* qb = query.data();
    const __m256i krev = _mm256_setr_epi32(7, 6, 5, 4, 3, 2, 1, 0);

    // Seed span: integer adds are exact and order-independent, so the
    // vector sum matches the scalar accumulation.
    Score seed_score = 0;
    {
        std::size_t k = 0;
        __m256i acc = _mm256_setzero_si256();
        for (; k + 8 <= seed_len; k += 8)
            acc = _mm256_add_epi32(
                acc, gather_subs(sub, load_codes8(tb + seed_t + k),
                                 load_codes8(qb + seed_q + k)));
        seed_score = hsum8(acc);
        for (; k < seed_len; ++k)
            seed_score += sub[tb[seed_t + k] * seq::kNumCodes +
                              qb[seed_q + k]];
        out.cells_computed += seed_len;
    }

    // One 8-cell block of the run/best/break chain, fully in-register.
    // P[b] = running score after cell b (prefix sum + incoming run);
    // best before cell b = max(incoming best, M[b-1]) where M is the
    // prefix max of P; best after cell b = max(incoming best, M[b]).
    // The improve mask marks lanes where the scalar chain would update
    // best (strict >), the break mask lanes where the post-update x-drop
    // test fires; the first break lane bounds both. Returns the number
    // of cells consumed (8, or fewer when the x-drop test fired).
    const __m256i xdropv = _mm256_set1_epi32(xdrop);
    const auto scan8 = [&](__m256i subs, Score& run, Score& best,
                           std::size_t& best_len, std::size_t len_before,
                           bool* broke) -> std::size_t {
        const __m256i p = _mm256_add_epi32(prefix_sum8(subs),
                                           _mm256_set1_epi32(run));
        const __m256i m = prefix_max8(p);
        const __m256i bestv = _mm256_set1_epi32(best);
        __m256i mprev = _mm256_permutevar8x32_epi32(
            m, _mm256_setr_epi32(0, 0, 1, 2, 3, 4, 5, 6));
        mprev = _mm256_blend_epi32(mprev,
                                   _mm256_set1_epi32(kScoreNegInf), 0x01);
        const __m256i best_before = _mm256_max_epi32(bestv, mprev);
        const __m256i best_after = _mm256_max_epi32(bestv, m);
        const unsigned improve = static_cast<unsigned>(
            movemask32(_mm256_cmpgt_epi32(p, best_before)));
        const unsigned brk = static_cast<unsigned>(movemask32(
            _mm256_cmpgt_epi32(_mm256_sub_epi32(best_after, xdropv), p)));
        alignas(32) Score pbuf[8];
        _mm256_store_si256(reinterpret_cast<__m256i*>(pbuf), p);
        std::size_t consumed = 8;
        unsigned mask = improve;
        if (brk != 0) {
            const int bstar = __builtin_ctz(brk);
            consumed = static_cast<std::size_t>(bstar) + 1;
            mask &= (2u << bstar) - 1;  // lanes at or before the break
            *broke = true;
        }
        if (mask != 0) {
            const int last = 31 - __builtin_clz(mask);
            best = pbuf[last];
            best_len = len_before + static_cast<std::size_t>(last) + 1;
        }
        run = pbuf[7];  // stale after a break; the caller stops anyway
        return consumed;
    };

    // Right extension: 8-cell gathered blocks + scalar tail.
    Score run = 0;
    Score best_right = 0;
    std::size_t best_right_len = 0;
    {
        const std::size_t avail =
            std::min(target.size() - (seed_t + seed_len),
                     query.size() - (seed_q + seed_len));
        const std::uint8_t* tp = tb + seed_t + seed_len;
        const std::uint8_t* qp = qb + seed_q + seed_len;
        std::size_t len = 0;
        bool broke = false;
        while (len + 8 <= avail && !broke) {
            const __m256i subs = gather_subs(sub, load_codes8(tp + len),
                                             load_codes8(qp + len));
            const std::size_t consumed =
                scan8(subs, run, best_right, best_right_len, len, &broke);
            out.cells_computed += consumed;
            len += consumed;
        }
        while (len < avail && !broke) {
            run += sub[tp[len] * seq::kNumCodes + qp[len]];
            ++len;
            ++out.cells_computed;
            if (run > best_right) {
                best_right = run;
                best_right_len = len;
            }
            if (run < best_right - xdrop)
                broke = true;
        }
    }

    // Left extension: cell len+b reads t[seed_t - len - b - 1], so an
    // 8-byte block is a reversed contiguous load.
    run = 0;
    Score best_left = 0;
    std::size_t best_left_len = 0;
    {
        const std::size_t avail = std::min(seed_t, seed_q);
        std::size_t len = 0;
        bool broke = false;
        while (len + 8 <= avail && !broke) {
            const __m256i tc = _mm256_permutevar8x32_epi32(
                load_codes8(tb + seed_t - len - 8), krev);
            const __m256i qc = _mm256_permutevar8x32_epi32(
                load_codes8(qb + seed_q - len - 8), krev);
            const std::size_t consumed =
                scan8(gather_subs(sub, tc, qc), run, best_left,
                      best_left_len, len, &broke);
            out.cells_computed += consumed;
            len += consumed;
        }
        while (len < avail && !broke) {
            run += sub[tb[seed_t - len - 1] * seq::kNumCodes +
                       qb[seed_q - len - 1]];
            ++len;
            ++out.cells_computed;
            if (run > best_left) {
                best_left = run;
                best_left_len = len;
            }
            if (run < best_left - xdrop)
                broke = true;
        }
    }

    out.score = seed_score + best_right + best_left;
    out.target_lo = seed_t - best_left_len;
    out.target_hi = seed_t + seed_len + best_right_len;
    out.query_lo = seed_q - best_left_len;
    const std::size_t mid = (out.target_hi - out.target_lo) / 2;
    out.anchor_t = out.target_lo + mid;
    out.anchor_q = out.query_lo + mid;
    return out;
}

/**
 * GACT-X stripe diagonals in 8-lane blocks (see gactx_wavefront.h for
 * the dataflow). Lane k of a block handles stripe row r + k and target
 * column fdc + dd - r - k: neighbour loads are contiguous in the
 * slot-indexed lane buffers, query codes load forward, target codes are
 * a lane-reversed 8-byte load, and the per-column best fold hits
 * colmax[dd-r-7 .. dd-r] with the value vector reversed (strict
 * compare keeps the smallest-row winner the column walk demands).
 * The block's eight pointer codes are contiguous in the diagonal-major
 * store, so they are narrowed to bytes and written with one 8-byte
 * store.
 */
template <bool kScoreOnly>
struct GactXAvx2Policy {
    __m256i vopen_, vext_, krev_, iota_;
    __m256i kdiag_, khgap_, kvgap_, khopen_, kvopen_;

    explicit GactXAvx2Policy(const GactXDiagCtx& ctx)
        : vopen_(_mm256_set1_epi32(ctx.open)),
          vext_(_mm256_set1_epi32(ctx.extend)),
          krev_(_mm256_setr_epi32(7, 6, 5, 4, 3, 2, 1, 0)),
          iota_(_mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7)),
          kdiag_(_mm256_set1_epi32(detail::kDiag)),
          khgap_(_mm256_set1_epi32(detail::kHGap)),
          kvgap_(_mm256_set1_epi32(detail::kVGap)),
          khopen_(_mm256_set1_epi32(0x4)),
          kvopen_(_mm256_set1_epi32(0x8))
    {
    }

    void
    diagonal(const GactXDiagCtx& c, std::size_t dd, std::size_t rlo,
             std::size_t rhi) const
    {
        std::size_t r = rlo;
        for (; r + 7 <= rhi; r += 8) {
            const std::size_t s = r + 1;
            const __m256i left_v = _mm256_loadu_si256(
                reinterpret_cast<const __m256i*>(c.vd1 + s));
            const __m256i left_h = _mm256_loadu_si256(
                reinterpret_cast<const __m256i*>(c.hd1 + s));
            const __m256i up_v = _mm256_loadu_si256(
                reinterpret_cast<const __m256i*>(c.vd1 + s - 1));
            const __m256i up_g = _mm256_loadu_si256(
                reinterpret_cast<const __m256i*>(c.gd1 + s - 1));
            const __m256i diag_v = _mm256_loadu_si256(
                reinterpret_cast<const __m256i*>(c.vd2 + s - 1));

            const __m256i qc = load_codes8(c.q + r);
            const __m256i tc = _mm256_permutevar8x32_epi32(
                load_codes8(c.t + (c.fdc + dd - r - 8)), krev_);
            const __m256i subv = gather_subs(c.sub, tc, qc);

            const __m256i h_open = _mm256_sub_epi32(left_v, vopen_);
            const __m256i h_ext = _mm256_sub_epi32(left_h, vext_);
            const __m256i h = _mm256_max_epi32(h_open, h_ext);

            const __m256i g_open = _mm256_sub_epi32(up_v, vopen_);
            const __m256i g_ext = _mm256_sub_epi32(up_g, vext_);
            const __m256i g = _mm256_max_epi32(g_open, g_ext);

            const __m256i dval = _mm256_add_epi32(diag_v, subv);
            const __m256i vh = _mm256_max_epi32(dval, h);
            const __m256i val = _mm256_max_epi32(vh, g);

            _mm256_storeu_si256(reinterpret_cast<__m256i*>(c.vcur + s),
                                val);
            _mm256_storeu_si256(reinterpret_cast<__m256i*>(c.gcur + s),
                                g);
            _mm256_storeu_si256(reinterpret_cast<__m256i*>(c.hcur + s),
                                h);

            const std::size_t cbase = dd - r - 7;
            const __m256i valrev =
                _mm256_permutevar8x32_epi32(val, krev_);
            const __m256i cm = _mm256_loadu_si256(
                reinterpret_cast<const __m256i*>(c.colmax + cbase));
            const __m256i upd = _mm256_cmpgt_epi32(valrev, cm);
            if (movemask32(upd) != 0) {
                _mm256_storeu_si256(
                    reinterpret_cast<__m256i*>(c.colmax + cbase),
                    _mm256_max_epi32(cm, valrev));
                const __m256i cb = _mm256_loadu_si256(
                    reinterpret_cast<const __m256i*>(c.colbest + cbase));
                const __m256i rrev = _mm256_sub_epi32(
                    _mm256_set1_epi32(static_cast<int>(r + 7)), iota_);
                _mm256_storeu_si256(
                    reinterpret_cast<__m256i*>(c.colbest + cbase),
                    _mm256_blendv_epi8(cb, rrev, upd));
            }

            // Pointer codes only exist on the traceback path; the
            // score-only instantiation elides the code blend and store.
            if constexpr (!kScoreOnly) {
                const __m256i not_hopen =
                    _mm256_cmpgt_epi32(h_ext, h_open);
                const __m256i not_vopen =
                    _mm256_cmpgt_epi32(g_ext, g_open);
                const __m256i mh = _mm256_cmpgt_epi32(h, dval);
                const __m256i mg = _mm256_cmpgt_epi32(g, vh);
                __m256i code = _mm256_blendv_epi8(kdiag_, khgap_, mh);
                code = _mm256_blendv_epi8(code, kvgap_, mg);
                code = _mm256_or_si256(
                    code, _mm256_andnot_si256(not_hopen, khopen_));
                code = _mm256_or_si256(
                    code, _mm256_andnot_si256(not_vopen, kvopen_));

                const __m128i words = _mm_packs_epi32(
                    _mm256_castsi256_si128(code),
                    _mm256_extracti128_si256(code, 1));
                _mm_storel_epi64(reinterpret_cast<__m128i*>(c.ptr + r),
                                 _mm_packus_epi16(words, words));
            }
        }
        for (; r <= rhi; ++r) {
            if constexpr (kScoreOnly)
                gactx_cell_score_only(c, dd, r);
            else
                gactx_cell(c, dd, r);
        }
    }
};

TileResult
gactx_avx2(std::span<const std::uint8_t> target,
           std::span<const std::uint8_t> query, const GactXParams& params)
{
    return gactx_align_wavefront<GactXAvx2Policy<false>>(target, query,
                                                         params);
}

TileResult
gactx_avx2_score_only(std::span<const std::uint8_t> target,
                      std::span<const std::uint8_t> query,
                      const GactXParams& params)
{
    return gactx_align_wavefront<GactXAvx2Policy<true>, true>(target, query,
                                                              params);
}

}  // namespace

const KernelOps* avx2_kernel_ops() {
    static const KernelOps ops{&bsw_avx2, &ungapped_avx2, &gactx_avx2,
                               &gactx_avx2_score_only};
    return &ops;
}

}  // namespace darwin::align::kernels

#else  // !defined(__AVX2__)

namespace darwin::align::kernels {

const KernelOps* avx2_kernel_ops() { return nullptr; }

}  // namespace darwin::align::kernels

#endif
