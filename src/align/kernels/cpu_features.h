/**
 * @file
 * Runtime CPU feature probing for the kernel dispatch registry.
 *
 * The vector tiers are compiled per ISA (kernels_sse42.cpp,
 * kernels_avx2.cpp and kernels_avx512.cpp instantiate simd_kernels.h
 * inside a `#pragma GCC target` region); whether the *running* CPU can
 * execute them is a separate question answered here, once, at registry
 * construction. Each flag probes exactly the extensions its TU's
 * DARWIN_SIMD_TARGET enables.
 */
#ifndef DARWIN_ALIGN_KERNELS_CPU_FEATURES_H
#define DARWIN_ALIGN_KERNELS_CPU_FEATURES_H

namespace darwin::align::kernels {

/** ISA extensions the dispatch registry cares about. */
struct CpuFeatures {
    bool sse42 = false;
    bool avx2 = false;
    bool avx512 = false;  ///< AVX-512F (kernels_avx512.cpp's target)
};

/**
 * Probe the running CPU. On x86 this uses the compiler's CPUID support
 * (which also accounts for OS XSAVE state for AVX2 and AVX-512); on other
 * architectures everything is false and only the scalar kernels run.
 */
CpuFeatures probe_cpu_features();

}  // namespace darwin::align::kernels

#endif  // DARWIN_ALIGN_KERNELS_CPU_FEATURES_H
