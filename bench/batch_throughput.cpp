/**
 * @file
 * Batch-engine throughput: serial per-pair WgaPipeline::run vs the
 * batch engine on a multi-pair manifest.
 *
 * The manifest defaults to the paper's four species pairs at two seeds
 * each (8 pairs). The serial baseline runs each pair to completion with
 * no thread pool — exactly what `darwin-wga align` does per invocation —
 * and the batch engine runs the same manifest with --threads workers,
 * each pair one task on one worker. Emits a JSON report (stdout or
 * --json FILE) with both wall-clock times, the speedup, and the
 * engine's metrics dump; results are asserted bit-identical before
 * timing is reported. Wall-clock speedup is bounded by the host's core
 * count (the JSON carries "host_cores" so the figure is
 * interpretable): roughly min(threads, cores, pairs), less the tail of
 * the longest pair.
 *
 *   batch_throughput --threads 4 --size 60000
 *
 * --budget-heap M arms each pair's CancelToken with an M-MiB heap
 * budget; a budget overrun cancels the pair and the identity check
 * fails the bench.
 */
#include "bench_common.h"

#include <fstream>
#include <sstream>
#include <thread>

#include "batch/scheduler.h"
#include "util/timer.h"

using namespace darwin;

namespace {

/** Cheap structural identity check between two runs of the same pair. */
bool
same_result(const wga::WgaResult& a, const wga::WgaResult& b)
{
    if (a.alignments.size() != b.alignments.size() ||
        a.chains.size() != b.chains.size())
        return false;
    for (std::size_t i = 0; i < a.alignments.size(); ++i) {
        const auto& x = a.alignments[i];
        const auto& y = b.alignments[i];
        if (x.target_start != y.target_start || x.target_end != y.target_end ||
            x.query_start != y.query_start || x.query_end != y.query_end ||
            x.score != y.score || x.cigar.to_string() != y.cigar.to_string())
            return false;
    }
    for (std::size_t i = 0; i < a.chains.size(); ++i) {
        if (a.chains[i].score != b.chains[i].score ||
            a.chains[i].members != b.chains[i].members)
            return false;
    }
    return true;
}

}  // namespace

int
main(int argc, char** argv)
{
    ArgParser args("Batch-engine throughput: serial per-pair pipeline vs "
                   "the batch engine.");
    bench::add_workload_options(args);
    args.add_option("threads", "4", "batch engine worker threads");
    args.add_option("seeds-per-pair", "2",
                    "manifest entries per species pair");
    args.add_option("pairs", "0",
                    "species pairs from the paper manifest (0 = all)");
    args.add_option("budget-heap", "0",
                    "per-pair heap budget in MiB enforced via the pair's "
                    "CancelToken (0 = unlimited)");
    args.add_option("json", "", "also write the JSON report to this file");
    if (!args.parse(argc, argv))
        return 1;

    const auto threads = args.get_uint("threads");
    const auto seeds_per_pair = args.get_uint("seeds-per-pair");
    const std::size_t host_cores =
        std::max<std::size_t>(1, std::thread::hardware_concurrency());
    if (threads > host_cores) {
        std::fprintf(stderr,
                     "note: %zu threads on a %zu-core host; wall-clock "
                     "speedup is bounded by the core count\n",
                     threads, host_cores);
    }

    synth::AncestorConfig shape;
    shape.num_chromosomes = args.get_uint("chromosomes");
    shape.chromosome_length = args.get_uint("size");
    shape.exons_per_chromosome =
        shape.chromosome_length /
        args.get_uint("exon-every");

    std::vector<synth::SpeciesPair> pairs;
    std::vector<batch::BatchJob> jobs;
    auto seed = args.get_uint("seed");
    auto species = synth::paper_species_pairs();
    const auto max_species = args.get_uint("pairs");
    if (max_species > 0 && max_species < species.size())
        species.resize(max_species);
    for (const auto& spec : species)
        for (std::size_t s = 0; s < seeds_per_pair; ++s)
            pairs.push_back(synth::make_species_pair(spec, shape, seed++));
    jobs.reserve(pairs.size());
    for (std::size_t i = 0; i < pairs.size(); ++i) {
        jobs.push_back({pairs[i].spec.pair_name + "#" + std::to_string(i),
                        &pairs[i].target.genome, &pairs[i].query.genome});
    }
    std::fprintf(stderr, "manifest: %zu pairs x %lld bp\n", jobs.size(),
                 static_cast<long long>(args.get_int("size")));

    const auto params = wga::WgaParams::darwin_defaults();

    // Serial baseline: one pair after another, no pool.
    const wga::WgaPipeline pipeline(params);
    std::vector<wga::WgaResult> serial;
    serial.reserve(pairs.size());
    Timer serial_timer;
    for (const auto& pair : pairs)
        serial.push_back(pipeline.run(pair.target.genome, pair.query.genome));
    const double serial_seconds = serial_timer.seconds();
    std::fprintf(stderr, "serial:  %.2fs\n", serial_seconds);

    // Batch engine over the same manifest.
    batch::BatchOptions options;
    options.params = params;
    options.num_threads = threads;
    const auto budget_heap_mb = args.get_uint("budget-heap");
    options.pair_budget.max_heap_bytes = budget_heap_mb * (1ull << 20);
    batch::MetricsRegistry metrics;
    batch::BatchScheduler scheduler(options, &metrics);
    Timer batch_timer;
    const auto batch_results = scheduler.run(jobs);
    const double batch_seconds = batch_timer.seconds();
    std::fprintf(stderr, "batch:   %.2fs (%zu threads)\n", batch_seconds,
                 threads);

    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < serial.size(); ++i)
        if (!same_result(serial[i], batch_results[i].result))
            ++mismatches;
    if (mismatches != 0) {
        std::fprintf(stderr,
                     "ERROR: %zu pairs differ between serial and batch\n",
                     mismatches);
        return 1;
    }

    const double speedup =
        batch_seconds > 0.0 ? serial_seconds / batch_seconds : 0.0;
    // Per-stage breakdown: summed stage seconds from the pipeline's
    // wga.*.seconds histograms (CPU-time-like across workers, not
    // wall-clock; seed includes the index builds).
    const auto stage_seconds = [&metrics](const char* name) {
        const auto* hist = metrics.find_histogram(name);
        return hist != nullptr ? hist->sum() : 0.0;
    };
    std::ostringstream json;
    json << "{\n"
         << "  " << bench::json_stamp() << ",\n"
         << "  \"pairs\": " << jobs.size() << ",\n"
         << "  \"threads\": " << threads << ",\n"
         << "  \"host_cores\": " << host_cores << ",\n"
         << "  \"genome_bp\": " << shape.chromosome_length << ",\n"
         << "  \"budget_heap_mb\": " << budget_heap_mb << ",\n"
         << "  \"identical\": true,\n"
         << "  \"serial_seconds\": " << strprintf("%.4f", serial_seconds)
         << ",\n"
         << "  \"batch_seconds\": " << strprintf("%.4f", batch_seconds)
         << ",\n"
         << "  \"speedup\": " << strprintf("%.3f", speedup) << ",\n"
         << "  \"stage_seconds\": {"
         << "\"seed\": " << strprintf("%.4f", stage_seconds("wga.seed.seconds"))
         << ", \"filter\": "
         << strprintf("%.4f", stage_seconds("wga.filter.seconds"))
         << ", \"extend\": "
         << strprintf("%.4f", stage_seconds("wga.extend.seconds"))
         << ", \"chain\": "
         << strprintf("%.4f", stage_seconds("wga.chain.seconds")) << "},\n"
         << "  \"metrics\": " << metrics.to_json() << "\n"
         << "}\n";
    std::fputs(json.str().c_str(), stdout);
    if (!args.get("json").empty()) {
        std::ofstream out(args.get("json"));
        out << json.str();
    }
    std::fprintf(stderr, "speedup: %.2fx at %zu threads\n", speedup, threads);
    return 0;
}
