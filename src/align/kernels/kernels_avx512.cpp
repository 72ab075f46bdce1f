/**
 * AVX-512 tier: the width-generic kernels (simd_kernels.h) at W = 16
 * int32 lanes, plus the four-op shim. The substitution lookup is one
 * two-source permute over the flattened 5x5 matrix held in two zmm
 * registers, not a 16-lane gather. cpu_features probes exactly the
 * extensions DARWIN_SIMD_TARGET enables. Without GCC on x86-64 the
 * registry sees nullptr and reports the tier as uncompiled.
 */
#define DARWIN_SIMD_TARGET "avx512f"
#include "align/kernels/simd_kernels.h"

namespace darwin::align::kernels {

#if defined(DARWIN_SIMD_KERNELS)

DARWIN_SIMD_BEGIN
namespace {

struct Avx512 {
    using V = std::int32_t __attribute__((vector_size(64)));

    /** vpmovzxbd; the all-ones maskz form because GCC 12's unmasked
     *  intrinsic trips -Wmaybe-uninitialized on its undefined source. */
    static V
    widen(const std::uint8_t* p)
    {
        return (V)_mm512_maskz_cvtepu8_epi32(
            0xFFFF, _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
    }

    static unsigned
    bits(V mask)
    {
        return _mm512_cmplt_epi32_mask((__m512i)mask, _mm512_setzero_si512());
    }

    static void
    store_codes(std::uint8_t* p, V code)
    {
        _mm512_mask_cvtepi32_storeu_epi8(p, 0xFFFF, (__m512i)code);
    }

    /** Entries 0..15 in `lo`, 16..24 in `hi`: permutex2var picks the
     *  table by index bit 4. The masked load stops at entry 24. */
    struct Lut {
        static_assert(seq::kNumCodes * seq::kNumCodes <= 32);
        __m512i lo, hi;

        explicit Lut(const Score* sub)
            : lo(_mm512_loadu_si512(sub)),
              hi(_mm512_maskz_loadu_epi32(
                  (1u << (seq::kNumCodes * seq::kNumCodes - 16)) - 1,
                  sub + 16))
        {
        }

        V
        operator()(V idx) const
        {
            return (V)_mm512_permutex2var_epi32(lo, (__m512i)idx, hi);
        }
    };
};

}  // namespace
DARWIN_SIMD_END

const KernelOps* avx512_kernel_ops() { return &kSimdKernelOps<Avx512>; }

#else

const KernelOps* avx512_kernel_ops() { return nullptr; }

#endif

}  // namespace darwin::align::kernels
