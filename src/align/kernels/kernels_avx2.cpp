/**
 * AVX2 tier: the width-generic kernels (simd_kernels.h) at W = 8 int32
 * lanes, plus the four-op shim. Substitution scores use the hardware
 * gather. Without GCC on x86-64 the registry sees nullptr and reports the
 * tier as uncompiled.
 */
#define DARWIN_SIMD_TARGET "avx2"
#include "align/kernels/simd_kernels.h"

namespace darwin::align::kernels {

#if defined(DARWIN_SIMD_KERNELS)

DARWIN_SIMD_BEGIN
namespace {

struct Avx2 {
    using V = std::int32_t __attribute__((vector_size(32)));

    static V
    widen(const std::uint8_t* p)
    {
        return (V)_mm256_cvtepu8_epi32(
            _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p)));
    }

    static unsigned
    bits(V mask)
    {
        return static_cast<unsigned>(_mm256_movemask_ps((__m256)mask));
    }

    static void
    store_codes(std::uint8_t* p, V code)
    {
        const __m128i words =
            _mm_packs_epi32(_mm256_castsi256_si128((__m256i)code),
                            _mm256_extracti128_si256((__m256i)code, 1));
        _mm_storel_epi64(reinterpret_cast<__m128i*>(p),
                         _mm_packus_epi16(words, words));
    }

    struct Lut {
        const Score* sub;

        explicit Lut(const Score* s) : sub(s) {}

        V
        operator()(V idx) const
        {
            return (V)_mm256_i32gather_epi32(sub, (__m256i)idx, 4);
        }
    };
};

}  // namespace
DARWIN_SIMD_END

const KernelOps* avx2_kernel_ops() { return &kSimdKernelOps<Avx2>; }

#else

const KernelOps* avx2_kernel_ops() { return nullptr; }

#endif

}  // namespace darwin::align::kernels
