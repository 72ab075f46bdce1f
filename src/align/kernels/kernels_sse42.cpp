/**
 * SSE4.2 tier: the width-generic kernels (simd_kernels.h) at W = 4
 * int32 lanes, plus the four-op shim. SSE has no gather, so the
 * substitution lookup is four scalar loads. Without GCC on x86-64 the
 * registry sees nullptr and reports the tier as uncompiled.
 */
#define DARWIN_SIMD_TARGET "sse4.2"
#include "align/kernels/simd_kernels.h"

namespace darwin::align::kernels {

#if defined(DARWIN_SIMD_KERNELS)

DARWIN_SIMD_BEGIN
namespace {

struct Sse42 {
    using V = std::int32_t __attribute__((vector_size(16)));

    static V
    widen(const std::uint8_t* p)
    {
        std::int32_t word;
        std::memcpy(&word, p, sizeof word);
        return (V)_mm_cvtepu8_epi32(_mm_cvtsi32_si128(word));
    }

    static unsigned
    bits(V mask)
    {
        return static_cast<unsigned>(_mm_movemask_ps((__m128)mask));
    }

    static void
    store_codes(std::uint8_t* p, V code)
    {
        const __m128i words = _mm_packs_epi32((__m128i)code, (__m128i)code);
        const std::int32_t bytes =
            _mm_cvtsi128_si32(_mm_packus_epi16(words, words));
        std::memcpy(p, &bytes, sizeof bytes);
    }

    struct Lut {
        const Score* sub;

        explicit Lut(const Score* s) : sub(s) {}

        /** Two 64-bit extracts (indices are non-negative) keep the lane
         *  moves off the shuffle port, which four 32-bit extracts crowd. */
        V
        operator()(V idx) const
        {
            const auto lo = static_cast<std::uint64_t>(
                _mm_cvtsi128_si64((__m128i)idx));
            const auto hi = static_cast<std::uint64_t>(
                _mm_extract_epi64((__m128i)idx, 1));
            return V{sub[static_cast<std::uint32_t>(lo)], sub[lo >> 32],
                     sub[static_cast<std::uint32_t>(hi)], sub[hi >> 32]};
        }
    };
};

}  // namespace
DARWIN_SIMD_END

const KernelOps* sse42_kernel_ops() { return &kSimdKernelOps<Sse42>; }

#else

const KernelOps* sse42_kernel_ops() { return nullptr; }

#endif

}  // namespace darwin::align::kernels
