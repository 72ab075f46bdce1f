/**
 * SSE4.2 filter kernels (4 x int32 lanes). Compiled with -msse4.2 when
 * the compiler supports it (see src/CMakeLists.txt); otherwise the stub
 * at the bottom reports the ISA as uncompiled and the registry skips it.
 *
 * The banded-SW kernel is the wavefront layout of bsw_wavefront.cpp
 * with the inner diagonal loop vectorized: full 4-lane blocks first,
 * then a scalar tail that shares the exact per-cell arithmetic.
 * Substitution scores are gathered scalar-wise (SSE has no gather); the
 * DP arithmetic and the max-cell reduction are vectorized. Integer ops
 * are exact, so results are bit-identical to the scalar kernel.
 */
#include "align/kernels/bsw_kernels.h"
#include "align/kernels/gactx_wavefront.h"
#include "align/kernels/kernel_registry.h"

#if defined(__SSE4_2__)

#include <nmmintrin.h>

#include <cstring>

namespace darwin::align::kernels {
namespace {

inline Score hmax4(__m128i v) {
    __m128i m = _mm_max_epi32(v, _mm_shuffle_epi32(v, _MM_SHUFFLE(1, 0, 3, 2)));
    m = _mm_max_epi32(m, _mm_shuffle_epi32(m, _MM_SHUFFLE(2, 3, 0, 1)));
    return _mm_cvtsi128_si32(m);
}

inline int movemask32(__m128i v) {
    return _mm_movemask_ps(_mm_castsi128_ps(v));
}

BswResult
bsw_sse42(std::span<const std::uint8_t> target,
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

    const __m128i vopen = _mm_set1_epi32(open);
    const __m128i vext = _mm_set1_epi32(extend);
    const __m128i vzero = _mm_setzero_si128();

    BswBest best;
    __m128i bestv = vzero;
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
        for (; i + 3 <= hi; i += 4) {
            const __m128i left_v =
                _mm_loadu_si128(reinterpret_cast<const __m128i*>(vd1 + i));
            const __m128i left_h =
                _mm_loadu_si128(reinterpret_cast<const __m128i*>(hd1 + i));
            const __m128i up_v = _mm_loadu_si128(
                reinterpret_cast<const __m128i*>(vd1 + i - 1));
            const __m128i up_g = _mm_loadu_si128(
                reinterpret_cast<const __m128i*>(gd1 + i - 1));
            const __m128i diag_v = _mm_loadu_si128(
                reinterpret_cast<const __m128i*>(vd2 + i - 1));

            alignas(16) Score subs[4];
            const std::uint8_t* tp = t + (d - i - 1);
            const std::uint8_t* qp = q + (i - 1);
            subs[0] = sub[tp[0] * seq::kNumCodes + qp[0]];
            subs[1] = sub[tp[-1] * seq::kNumCodes + qp[1]];
            subs[2] = sub[tp[-2] * seq::kNumCodes + qp[2]];
            subs[3] = sub[tp[-3] * seq::kNumCodes + qp[3]];
            const __m128i subv =
                _mm_load_si128(reinterpret_cast<const __m128i*>(subs));

            const __m128i h = _mm_max_epi32(_mm_sub_epi32(left_v, vopen),
                                            _mm_sub_epi32(left_h, vext));
            const __m128i g = _mm_max_epi32(_mm_sub_epi32(up_v, vopen),
                                            _mm_sub_epi32(up_g, vext));
            __m128i val =
                _mm_max_epi32(_mm_add_epi32(diag_v, subv), vzero);
            val = _mm_max_epi32(val, _mm_max_epi32(h, g));

            _mm_storeu_si128(reinterpret_cast<__m128i*>(vcur + i), val);
            _mm_storeu_si128(reinterpret_cast<__m128i*>(gcur + i), g);
            _mm_storeu_si128(reinterpret_cast<__m128i*>(hcur + i), h);

            // Row-major-first max reduction (see BswBest::consider).
            if (movemask32(_mm_cmpgt_epi32(val, bestv)) != 0) {
                const Score dmax = hmax4(val);
                const int eqm = movemask32(
                    _mm_cmpeq_epi32(val, _mm_set1_epi32(dmax)));
                best.score = dmax;
                best.i = i + static_cast<std::size_t>(__builtin_ctz(
                                 static_cast<unsigned>(eqm)));
                best.j = d - best.i;
                bestv = _mm_set1_epi32(dmax);
            } else if (best.score > 0 && best.i > i) {
                const int eqm = movemask32(_mm_cmpeq_epi32(val, bestv));
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
                bestv = _mm_set1_epi32(best.score);
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

/**
 * GACT-X stripe diagonals in 4-lane blocks — the AVX2 policy's layout
 * (see kernels_avx2.cpp and gactx_wavefront.h) at half width, with the
 * substitution scores gathered scalar-wise (SSE has no gather) and
 * the four pointer codes written with one 4-byte store. All integer ops
 * are exact, so results are bit-identical to scalar.
 */
template <bool kScoreOnly>
struct GactXSse42Policy {
    __m128i vopen_, vext_, iota_;
    __m128i kdiag_, khgap_, kvgap_, khopen_, kvopen_;

    explicit GactXSse42Policy(const GactXDiagCtx& ctx)
        : vopen_(_mm_set1_epi32(ctx.open)),
          vext_(_mm_set1_epi32(ctx.extend)),
          iota_(_mm_setr_epi32(0, 1, 2, 3)),
          kdiag_(_mm_set1_epi32(detail::kDiag)),
          khgap_(_mm_set1_epi32(detail::kHGap)),
          kvgap_(_mm_set1_epi32(detail::kVGap)),
          khopen_(_mm_set1_epi32(0x4)),
          kvopen_(_mm_set1_epi32(0x8))
    {
    }

    void
    diagonal(const GactXDiagCtx& c, std::size_t dd, std::size_t rlo,
             std::size_t rhi) const
    {
        std::size_t r = rlo;
        for (; r + 3 <= rhi; r += 4) {
            const std::size_t s = r + 1;
            const __m128i left_v = _mm_loadu_si128(
                reinterpret_cast<const __m128i*>(c.vd1 + s));
            const __m128i left_h = _mm_loadu_si128(
                reinterpret_cast<const __m128i*>(c.hd1 + s));
            const __m128i up_v = _mm_loadu_si128(
                reinterpret_cast<const __m128i*>(c.vd1 + s - 1));
            const __m128i up_g = _mm_loadu_si128(
                reinterpret_cast<const __m128i*>(c.gd1 + s - 1));
            const __m128i diag_v = _mm_loadu_si128(
                reinterpret_cast<const __m128i*>(c.vd2 + s - 1));

            // Lane k: stripe row r + k, target column fdc + dd - r - k.
            alignas(16) Score subs[4];
            const std::uint8_t* tp = c.t + (c.fdc + dd - r - 1);
            const std::uint8_t* qp = c.q + r;
            subs[0] = c.sub[tp[0] * seq::kNumCodes + qp[0]];
            subs[1] = c.sub[tp[-1] * seq::kNumCodes + qp[1]];
            subs[2] = c.sub[tp[-2] * seq::kNumCodes + qp[2]];
            subs[3] = c.sub[tp[-3] * seq::kNumCodes + qp[3]];
            const __m128i subv =
                _mm_load_si128(reinterpret_cast<const __m128i*>(subs));

            const __m128i h_open = _mm_sub_epi32(left_v, vopen_);
            const __m128i h_ext = _mm_sub_epi32(left_h, vext_);
            const __m128i h = _mm_max_epi32(h_open, h_ext);

            const __m128i g_open = _mm_sub_epi32(up_v, vopen_);
            const __m128i g_ext = _mm_sub_epi32(up_g, vext_);
            const __m128i g = _mm_max_epi32(g_open, g_ext);

            const __m128i dval = _mm_add_epi32(diag_v, subv);
            const __m128i vh = _mm_max_epi32(dval, h);
            const __m128i val = _mm_max_epi32(vh, g);

            _mm_storeu_si128(reinterpret_cast<__m128i*>(c.vcur + s), val);
            _mm_storeu_si128(reinterpret_cast<__m128i*>(c.gcur + s), g);
            _mm_storeu_si128(reinterpret_cast<__m128i*>(c.hcur + s), h);

            // Column-best fold over colmax[dd-r-3 .. dd-r], values
            // lane-reversed; strict compare keeps the smallest row.
            const std::size_t cbase = dd - r - 3;
            const __m128i valrev =
                _mm_shuffle_epi32(val, _MM_SHUFFLE(0, 1, 2, 3));
            const __m128i cm = _mm_loadu_si128(
                reinterpret_cast<const __m128i*>(c.colmax + cbase));
            const __m128i upd = _mm_cmpgt_epi32(valrev, cm);
            if (movemask32(upd) != 0) {
                _mm_storeu_si128(
                    reinterpret_cast<__m128i*>(c.colmax + cbase),
                    _mm_max_epi32(cm, valrev));
                const __m128i cb = _mm_loadu_si128(
                    reinterpret_cast<const __m128i*>(c.colbest + cbase));
                const __m128i rrev = _mm_sub_epi32(
                    _mm_set1_epi32(static_cast<int>(r + 3)), iota_);
                _mm_storeu_si128(
                    reinterpret_cast<__m128i*>(c.colbest + cbase),
                    _mm_blendv_epi8(cb, rrev, upd));
            }

            // Pointer codes only exist on the traceback path; the
            // score-only instantiation elides the code blend and store.
            if constexpr (!kScoreOnly) {
                const __m128i not_hopen = _mm_cmpgt_epi32(h_ext, h_open);
                const __m128i not_vopen = _mm_cmpgt_epi32(g_ext, g_open);
                const __m128i mh = _mm_cmpgt_epi32(h, dval);
                const __m128i mg = _mm_cmpgt_epi32(g, vh);
                __m128i code = _mm_blendv_epi8(kdiag_, khgap_, mh);
                code = _mm_blendv_epi8(code, kvgap_, mg);
                code = _mm_or_si128(code,
                                    _mm_andnot_si128(not_hopen, khopen_));
                code = _mm_or_si128(code,
                                    _mm_andnot_si128(not_vopen, kvopen_));

                const __m128i words = _mm_packs_epi32(code, code);
                const std::int32_t bytes =
                    _mm_cvtsi128_si32(_mm_packus_epi16(words, words));
                std::memcpy(c.ptr + r, &bytes, sizeof bytes);
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
gactx_sse42(std::span<const std::uint8_t> target,
            std::span<const std::uint8_t> query, const GactXParams& params)
{
    return gactx_align_wavefront<GactXSse42Policy<false>>(target, query,
                                                          params);
}

TileResult
gactx_sse42_score_only(std::span<const std::uint8_t> target,
                       std::span<const std::uint8_t> query,
                       const GactXParams& params)
{
    return gactx_align_wavefront<GactXSse42Policy<true>, true>(target, query,
                                                               params);
}

}  // namespace

const KernelOps* sse42_kernel_ops() {
    // No dedicated ungapped kernel: without a hardware gather the block
    // formulation is a wash, so the registry falls back to scalar.
    static const KernelOps ops{&bsw_sse42, nullptr, &gactx_sse42,
                               &gactx_sse42_score_only};
    return &ops;
}

}  // namespace darwin::align::kernels

#else  // !defined(__SSE4_2__)

namespace darwin::align::kernels {

const KernelOps* sse42_kernel_ops() { return nullptr; }

}  // namespace darwin::align::kernels

#endif
