/**
 * @file
 * Runtime dispatch registry for the filter and extension kernels.
 *
 * All implementations of the three alignment kernels (banded
 * Smith-Waterman and ungapped x-drop extension, see bsw_kernels.h; the
 * GACT-X tile extension engine, see gactx_kernels.h) are listed in a
 * fixed table with stable ids. At startup the registry probes the CPU
 * (cpu_features.h) and selects the fastest usable entry; the selection
 * can be overridden with the `DARWIN_KERNEL` environment variable
 * (`auto|scalar|sse42|avx2|avx512`). The scalar entry is the plain
 * kernels in bsw_kernels.h / gactx_kernels.h; sse42, avx2 and avx512
 * are one width-generic source (simd_kernels.h) instantiated at 4, 8
 * and 16 lanes. Every entry fills all four slots, so there is no
 * per-kernel fallback. The BSW slot takes a batch of tiles: the vector
 * tiers run one tile per lane, the scalar tier one tile after another.
 *
 * `banded_smith_waterman_batch()` (and its one-tile form),
 * `ungapped_xdrop_extend()` and `GactXTileAligner::align_tile()` are
 * thin façades over the active entry, so every caller (wga/filter_stage,
 * wga/extend_stage, the batch scheduler, benches) transparently picks
 * up the fast path. The active
 * id (0 scalar, 1 sse42, 2 avx2, 3 avx512) is published as the
 * `wga.filter.kernel` and `wga.extend.kernel` gauges.
 */
#ifndef DARWIN_ALIGN_KERNELS_KERNEL_REGISTRY_H
#define DARWIN_ALIGN_KERNELS_KERNEL_REGISTRY_H

#include <atomic>
#include <string>
#include <vector>

#include "align/banded_sw.h"
#include "align/kernels/cpu_features.h"
#include "align/kernels/gactx_kernels.h"
#include "align/ungapped_xdrop.h"

namespace darwin::align::kernels {

/** Banded SW over a batch of tiles: out[i] is tiles[i]'s result. Each
 *  tile is at most kBswMaxTile long (banded_sw.h). */
using BswKernelFn = void (*)(std::span<const BswTile> tiles,
                             const ScoringParams& scoring, std::size_t band,
                             BswResult* out);

using UngappedKernelFn = UngappedResult (*)(
    std::span<const std::uint8_t> target,
    std::span<const std::uint8_t> query, std::size_t seed_t,
    std::size_t seed_q, std::size_t seed_len, const ScoringParams& scoring,
    Score xdrop);

/** One registered implementation of the filter + extension kernels. */
struct KernelImpl {
    int id = 0;              ///< stable: 0 scalar, 1 sse42, 2 avx2, 3 avx512
    const char* name = "";   ///< the DARWIN_KERNEL spelling
    bool compiled = false;   ///< translation unit built with the ISA
    bool cpu_ok = false;     ///< running CPU supports the ISA
    BswKernelFn bsw = nullptr;
    UngappedKernelFn ungapped = nullptr;
    GactXKernelFn gactx = nullptr;
    /** GACT-X score-only variant (no traceback machinery): same scores
     *  and accounting as gactx, empty CIGAR. */
    GactXKernelFn gactx_score_only = nullptr;

    bool usable() const { return compiled && cpu_ok; }
};

/**
 * One tier's kernel entry points, exported by each per-ISA translation
 * unit with every slot set. A `*_kernel_ops()` call returns nullptr when
 * the TU was built without its SIMD code (not GCC on x86-64), so the
 * registry marks the entry uncompiled instead of link-failing.
 */
struct KernelOps {
    BswKernelFn bsw = nullptr;
    UngappedKernelFn ungapped = nullptr;
    GactXKernelFn gactx = nullptr;
    GactXKernelFn gactx_score_only = nullptr;
};
const KernelOps* sse42_kernel_ops();
const KernelOps* avx2_kernel_ops();
const KernelOps* avx512_kernel_ops();

/**
 * Process-wide kernel table + active selection.
 *
 * Construction applies `DARWIN_KERNEL` (unset/empty means "auto");
 * selection errors go through fatal() with an actionable message.
 * The active pointer is atomic: `select()` may race with in-flight
 * alignment calls without tearing, though tests that compare kernels
 * should quiesce between selections.
 */
class KernelRegistry {
  public:
    static constexpr const char* kEnvVar = "DARWIN_KERNEL";

    static KernelRegistry& instance();

    /**
     * The table as it would be on a CPU with `cpu`'s features, with
     * "auto" selected and `DARWIN_KERNEL` not read. instance() is this
     * for the probed CPU plus the override; tests build their own to
     * see the table of another CPU.
     */
    explicit KernelRegistry(const CpuFeatures& cpu);

    /** All entries in id order (including uncompiled/unsupported ones). */
    const std::vector<KernelImpl>& kernels() const { return kernels_; }

    /** The entry dispatched by the façades. */
    const KernelImpl& active() const {
        return *active_.load(std::memory_order_acquire);
    }

    /**
     * Select by name: "auto" (fastest usable) or an exact kernel name.
     * fatal() — i.e. throws darwin::FatalError — on an unknown name
     * or a kernel that is not usable on this build/CPU.
     */
    void select(const std::string& name);

    /** Lookup by name; nullptr when unknown (no fatal). */
    const KernelImpl* find(const std::string& name) const;

    KernelRegistry(const KernelRegistry&) = delete;
    KernelRegistry& operator=(const KernelRegistry&) = delete;

  private:
    KernelRegistry();

    const KernelImpl& best_usable() const;

    std::vector<KernelImpl> kernels_;
    std::atomic<const KernelImpl*> active_{nullptr};
};

}  // namespace darwin::align::kernels

#endif  // DARWIN_ALIGN_KERNELS_KERNEL_REGISTRY_H
