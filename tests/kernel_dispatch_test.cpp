/**
 * @file
 * Property tests for the kernel dispatch registry: DARWIN_KERNEL name
 * parsing, the tier table (0 scalar, 1 sse42, 2 avx2, 3 avx512) as the
 * running CPU and a CPU without AVX-512 see it, selection state, and the
 * end-to-end guarantee that every usable tier (scalar, sse42, avx2,
 * avx512, and auto) runs WgaPipeline to a byte-identical MAF with
 * reconciling wga.filter.* and wga.extend.* counters, under both the
 * darwin (BSW filter) and lastz (ungapped filter) presets.
 */
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "align/kernels/bsw_kernels.h"
#include "align/kernels/cpu_features.h"
#include "align/kernels/kernel_registry.h"
#include "obs/metrics.h"
#include "synth/species.h"
#include "util/logging.h"
#include "wga/maf.h"
#include "wga/params.h"
#include "wga/pipeline.h"

namespace darwin::align::kernels {
namespace {

/** Restore "auto" selection however a test exits. */
struct SelectionGuard {
    ~SelectionGuard() { KernelRegistry::instance().select("auto"); }
};

TEST(KernelRegistry, TableIsStable)
{
    const auto& kernels = KernelRegistry::instance().kernels();
    ASSERT_EQ(kernels.size(), 4u);
    EXPECT_EQ(kernels[0].id, 0);
    EXPECT_STREQ(kernels[0].name, "scalar");
    EXPECT_TRUE(kernels[0].usable());
    EXPECT_EQ(kernels[1].id, 1);
    EXPECT_STREQ(kernels[1].name, "sse42");
    EXPECT_EQ(kernels[2].id, 2);
    EXPECT_STREQ(kernels[2].name, "avx2");
    EXPECT_EQ(kernels[3].id, 3);
    EXPECT_STREQ(kernels[3].name, "avx512");
}

TEST(KernelRegistry, AutoResolvesToAvx512WhereUsable)
{
    SelectionGuard guard;
    auto& registry = KernelRegistry::instance();
    registry.select("auto");
    const KernelImpl* avx512 = registry.find("avx512");
    ASSERT_NE(avx512, nullptr);
    if (!avx512->usable())
        GTEST_SKIP() << "avx512 is not usable on this build/CPU";
    EXPECT_STREQ(registry.active().name, "avx512");
    EXPECT_EQ(registry.active().id, 3);
}

TEST(KernelRegistry, Avx512OnCpuWithoutItIsTaggedFatal)
{
    // The table of an AVX2-only CPU: same rows, avx512 not usable, auto
    // stops at avx2 (or lower where the build lacks the SIMD tiers).
    KernelRegistry registry(CpuFeatures{.sse42 = true, .avx2 = true});
    ASSERT_EQ(registry.kernels().size(), 4u);
    const KernelImpl& avx512 = registry.kernels()[3];
    EXPECT_STREQ(avx512.name, "avx512");
    EXPECT_FALSE(avx512.cpu_ok);
    EXPECT_FALSE(avx512.usable());
    EXPECT_LT(registry.active().id, 3);
    if (registry.kernels()[2].usable()) {
        EXPECT_STREQ(registry.active().name, "avx2");
    }
    try {
        registry.select("avx512");  // same path DARWIN_KERNEL takes
        FAIL() << "expected FatalError";
    } catch (const FatalError& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("DARWIN_KERNEL: kernel 'avx512' is not"),
                  std::string::npos)
            << msg;
        if (avx512.compiled) {
            EXPECT_NE(msg.find("not supported by this CPU"), std::string::npos)
                << msg;
        }
    }
    EXPECT_LT(registry.active().id, 3);
}

TEST(KernelRegistry, SelectByNameAndAuto)
{
    SelectionGuard guard;
    auto& registry = KernelRegistry::instance();
    registry.select("scalar");
    EXPECT_STREQ(registry.active().name, "scalar");
    EXPECT_EQ(registry.active().id, 0);

    registry.select("auto");
    // Auto picks the highest-id usable kernel.
    int best = 0;
    for (const KernelImpl& k : registry.kernels())
        if (k.usable())
            best = std::max(best, k.id);
    EXPECT_EQ(registry.active().id, best);
}

TEST(KernelRegistry, BadNameIsClearFatal)
{
    SelectionGuard guard;
    auto& registry = KernelRegistry::instance();
    const KernelImpl& before = registry.active();
    try {
        registry.select("sse999");  // same path DARWIN_KERNEL takes
        FAIL() << "expected FatalError";
    } catch (const FatalError& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("unknown kernel 'sse999'"), std::string::npos)
            << msg;
        EXPECT_NE(msg.find("DARWIN_KERNEL"), std::string::npos) << msg;
        EXPECT_NE(msg.find("scalar"), std::string::npos) << msg;
    }
    // A failed selection must not change the active kernel.
    EXPECT_EQ(registry.active().id, before.id);
}

TEST(KernelRegistry, UnusableKernelIsFatalNotCrash)
{
    SelectionGuard guard;
    auto& registry = KernelRegistry::instance();
    for (const KernelImpl& k : registry.kernels()) {
        if (k.usable())
            continue;
        EXPECT_THROW(registry.select(k.name), FatalError) << k.name;
    }
}

TEST(KernelDispatch, ForcedScalarAndAutoProduceIdenticalMaf)
{
    SelectionGuard guard;
    auto& registry = KernelRegistry::instance();

    synth::AncestorConfig config;
    config.num_chromosomes = 1;
    config.chromosome_length = 15000;
    config.exons_per_chromosome = 10;
    const auto pair = synth::make_species_pair(
        synth::find_species_pair("dm6-droSim1"), config, 4242);

    // Every usable vector tier by name, then auto (the best tier).
    std::vector<std::string> tiers;
    for (const KernelImpl& k : registry.kernels())
        if (k.usable() && k.id > 0)
            tiers.emplace_back(k.name);
    tiers.emplace_back("auto");

    for (const auto& [preset, params] :
         {std::pair{"darwin", wga::WgaParams::darwin_defaults()},
          std::pair{"lastz", wga::WgaParams::lastz_defaults()}}) {
        const wga::WgaPipeline pipeline(params);
        const auto run_with = [&](const std::string& kernel,
                                  obs::MetricsRegistry& metrics) {
            registry.select(kernel);
            const auto result = pipeline.run(pair.target.genome,
                                             pair.query.genome,
                                             {.metrics = &metrics});
            std::ostringstream maf;
            wga::write_maf(maf, result.alignments, pair.target.genome,
                           pair.query.genome);
            return maf.str();
        };

        obs::MetricsRegistry scalar_metrics;
        const std::string scalar_maf = run_with("scalar", scalar_metrics);
        EXPECT_FALSE(scalar_maf.empty()) << preset;

        for (const std::string& tier : tiers) {
            SCOPED_TRACE(std::string(preset) + " preset, kernel " + tier);
            obs::MetricsRegistry metrics;
            // Byte-identical alignment output regardless of kernel.
            EXPECT_EQ(run_with(tier, metrics), scalar_maf);

            // The filter and extension counters must reconcile exactly:
            // same tiles, same DP cells (cells_computed is part of the
            // bit-identity contract for the BSW, ungapped and GACT-X
            // kernels), same pass/drop split, same stripe/traceback
            // accounting.
            for (const char* name :
                 {"wga.filter.tiles", "wga.filter.cells",
                  "wga.filter.passed", "wga.filter.dropped",
                  "wga.extend.tiles", "wga.extend.cells",
                  "wga.extend.stripes", "wga.extend.traceback_ops",
                  "wga.extend.alignments", "wga.extend.matched_bases"}) {
                const auto* s = scalar_metrics.find_counter(name);
                const auto* k = metrics.find_counter(name);
                ASSERT_NE(s, nullptr) << name;
                ASSERT_NE(k, nullptr) << name;
                EXPECT_EQ(s->value(), k->value()) << name;
                EXPECT_GT(s->value(), 0) << name;
            }

            // The gauges record which kernel each run dispatched to — the
            // filter and extension stages always share the registry's
            // active entry.
            for (const char* name :
                 {"wga.filter.kernel", "wga.extend.kernel"}) {
                const auto* scalar_gauge = scalar_metrics.find_gauge(name);
                const auto* gauge = metrics.find_gauge(name);
                ASSERT_NE(scalar_gauge, nullptr) << name;
                ASSERT_NE(gauge, nullptr) << name;
                EXPECT_EQ(scalar_gauge->value(), 0) << name;
                EXPECT_EQ(gauge->value(), registry.active().id) << name;
            }
        }
    }
}

}  // namespace
}  // namespace darwin::align::kernels
