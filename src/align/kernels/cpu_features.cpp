#include "align/kernels/cpu_features.h"

namespace darwin::align::kernels {

CpuFeatures probe_cpu_features() {
    CpuFeatures f;
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
    // __builtin_cpu_supports also verifies OS support (XSAVE/YMM state)
    // for AVX2 and ZMM/opmask state for AVX-512, which a raw CPUID leaf
    // check would miss.
    f.sse42 = __builtin_cpu_supports("sse4.2") != 0;
    f.avx2 = __builtin_cpu_supports("avx2") != 0;
    f.avx512 = __builtin_cpu_supports("avx512f") != 0;
#endif
    return f;
}

}  // namespace darwin::align::kernels
