/**
 * @file
 * Shared support for the per-table/figure bench binaries: workload
 * construction, pipeline runs, and the software->device workload bridge.
 *
 * Scale note: the paper's genomes are 100-140 Mbp and its software
 * baseline is a 36-thread c4.8xlarge. The benches default to megabase
 * -scale synthetic genomes (configurable via --size) and a single-thread
 * host; the BASELINE_EFFECTIVE_THREADS constant converts our measured
 * single-thread software time into a c4.8xlarge-equivalent so the
 * perf/$ and perf/W columns are comparable to the paper's.
 */
#ifndef DARWIN_BENCH_BENCH_COMMON_H
#define DARWIN_BENCH_BENCH_COMMON_H

#include <cstdio>
#include <ctime>
#include <string>

#include "hw/perf_model.h"
#include "synth/species.h"
#include "util/args.h"
#include "util/strings.h"
#include "util/thread_pool.h"
#include "wga/pipeline.h"

namespace darwin::bench {

/** 36 hardware threads at ~90% parallel efficiency (c4.8xlarge). */
inline constexpr double kBaselineEffectiveThreads = 32.4;

/** Register the options every pair-based bench shares. */
inline void
add_workload_options(ArgParser& args)
{
    args.add_option("size", "120000", "chromosome length (bp) per genome");
    args.add_option("chromosomes", "1", "chromosomes per genome");
    args.add_option("seed", "42", "workload generator seed");
    args.add_option("exon-every", "2500", "one planted exon per N bp");
}

/** Build one of the paper's species pairs at bench scale. */
inline synth::SpeciesPair
make_bench_pair(const std::string& pair_name, const ArgParser& args)
{
    synth::AncestorConfig shape;
    shape.num_chromosomes = args.get_uint("chromosomes");
    shape.chromosome_length = args.get_uint("size");
    shape.exons_per_chromosome =
        shape.chromosome_length /
        args.get_uint("exon-every");
    return synth::make_species_pair(synth::find_species_pair(pair_name),
                                    shape,
                                    args.get_uint("seed"));
}

/** Translate one run's pipeline stats into the device workload model. */
inline hw::WorkloadCounts
to_workload(const wga::WgaResult& result, const wga::WgaParams& params)
{
    hw::WorkloadCounts workload;
    workload.seed_lookups = result.stats.seeding.seed_lookups;
    workload.filter_tiles = result.stats.filter.tiles;
    workload.filter_tile_size = params.filter_tile;
    workload.filter_band = params.filter_band;
    workload.extension_tiles = result.stats.extend.extension.tiles;
    workload.extension_tile_size = params.gactx.tile_size;
    workload.extension = result.stats.extend.extension;
    workload.seeding_software_seconds =
        result.stats.seed_seconds / kBaselineEffectiveThreads;
    return workload;
}

/** Our measured single-thread time as a c4.8xlarge-equivalent. */
inline double
as_baseline_host_seconds(double single_thread_seconds)
{
    return single_thread_seconds / kBaselineEffectiveThreads;
}

/** Print a horizontal rule sized for the bench tables. */
inline void
rule(int width = 100)
{
    for (int i = 0; i < width; ++i)
        std::fputc('-', stdout);
    std::fputc('\n', stdout);
}

// Short git revision baked in by bench/CMakeLists.txt at configure time.
#ifndef DARWIN_GIT_REV
#define DARWIN_GIT_REV "unknown"
#endif

/** Current UTC time as ISO-8601 ("2026-08-07T12:34:56Z"). */
inline std::string
iso8601_utc_now()
{
    const std::time_t now = std::time(nullptr);
    std::tm tm{};
    gmtime_r(&now, &tm);
    char buf[32];
    std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &tm);
    return buf;
}

/**
 * Provenance fragment every bench JSON report carries:
 *   "timestamp": "<ISO-8601 UTC>", "git_rev": "<short rev>"
 * (no surrounding braces — splice it into the report object).
 */
inline std::string
json_stamp()
{
    return "\"timestamp\": \"" + iso8601_utc_now() +
           "\", \"git_rev\": \"" DARWIN_GIT_REV "\"";
}

}  // namespace darwin::bench

#endif  // DARWIN_BENCH_BENCH_COMMON_H
