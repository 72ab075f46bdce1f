#include "align/kernels/kernel_registry.h"

#include <cstdlib>
#include <sstream>

#include "align/kernels/bsw_kernels.h"
#include "util/logging.h"

namespace darwin::align::kernels {

KernelRegistry& KernelRegistry::instance() {
    static KernelRegistry registry;
    return registry;
}

KernelRegistry::KernelRegistry() : KernelRegistry(probe_cpu_features()) {
    if (const char* env = std::getenv(kEnvVar); env != nullptr && *env != '\0')
        select(env);
}

KernelRegistry::KernelRegistry(const CpuFeatures& cpu) {
    // The table is explicit (no static self-registration: static-library
    // linking silently drops unreferenced registrars). Ids are stable —
    // they are published as the wga.filter.kernel gauge value.
    static constexpr KernelOps kScalar{
        &bsw_rowmajor_batch, &ungapped_xdrop_scalar,
        &gactx_wavefront_scalar, &gactx_wavefront_scalar_score_only};
    const struct {
        const char* name;
        const KernelOps* ops;  // nullptr: tier not compiled
        bool cpu_ok;
    } tiers[] = {{"scalar", &kScalar, true},
                 {"sse42", sse42_kernel_ops(), cpu.sse42},
                 {"avx2", avx2_kernel_ops(), cpu.avx2},
                 {"avx512", avx512_kernel_ops(), cpu.avx512}};
    for (const auto& tier : tiers) {
        KernelImpl k{static_cast<int>(kernels_.size()), tier.name,
                     tier.ops != nullptr, tier.cpu_ok};
        if (tier.ops != nullptr) {
            k.bsw = tier.ops->bsw;
            k.ungapped = tier.ops->ungapped;
            k.gactx = tier.ops->gactx;
            k.gactx_score_only = tier.ops->gactx_score_only;
        }
        kernels_.push_back(k);
    }

    active_.store(&best_usable(), std::memory_order_release);
}

const KernelImpl& KernelRegistry::best_usable() const {
    const KernelImpl* best = &kernels_.front();  // scalar is always usable
    for (const KernelImpl& k : kernels_)
        if (k.usable() && k.id > best->id)
            best = &k;
    return *best;
}

const KernelImpl* KernelRegistry::find(const std::string& name) const {
    for (const KernelImpl& k : kernels_)
        if (name == k.name)
            return &k;
    return nullptr;
}

void KernelRegistry::select(const std::string& name) {
    if (name == "auto") {
        active_.store(&best_usable(), std::memory_order_release);
        return;
    }
    const KernelImpl* k = find(name);
    if (k == nullptr) {
        std::ostringstream msg;
        msg << "DARWIN_KERNEL: unknown kernel '" << name
            << "' (valid: auto";
        for (const KernelImpl& cand : kernels_)
            msg << ", " << cand.name;
        msg << ")";
        fatal(msg.str());
    }
    if (!k->usable()) {
        std::ostringstream msg;
        msg << "DARWIN_KERNEL: kernel '" << name << "' is "
            << (!k->compiled ? "not compiled into this build"
                             : "not supported by this CPU");
        fatal(msg.str());
    }
    active_.store(k, std::memory_order_release);
}

}  // namespace darwin::align::kernels
