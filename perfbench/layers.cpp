/**
 * @file
 * perfbench-layers — the benchmark's per-layer timer.
 *
 * Runs the FASTA -> MAF path of `darwin-wga align` one layer call at a
 * time, with the arguments WgaPipeline::run uses, and records a span
 * around each call:
 *
 *   ingest     read both FASTA files and flatten them
 *   index      build the target seed table
 *   seed       D-SOFT lookups over the query
 *   filter     gapped BSW filter
 *   extend     GACT-X extension, absorption and duplicate suppression
 *   chain      chain the alignments
 *   maf_write  write the MAF file
 *
 * A second extension pass over the same candidates ("extend_split") runs
 * on one thread through a timing TileAligner, so extension splits into
 * tile DP fill (the score-only kernel on each tile), pointer writes plus
 * traceback (full tile minus score-only) and everything outside the
 * kernel (absorption, dedup, stitching). Its alignments must match the
 * main pass. The timing aligner is not a GactXTileAligner, so this pass
 * takes ExtendStage's serial per-anchor path: every tile gets a full
 * traceback, where the CLI's default batched path skips traceback on
 * tiles its score-only probe finds dead. The split describes the serial
 * path's work, not the CLI's.
 *
 * Prints the spans and work counters as one JSON object on stdout:
 *
 *   perfbench-layers --target t.fa --query q.fa --out o.maf
 *
 * Parameters are the CLI's default darwin preset.
 */
#include <chrono>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "align/gactx.h"
#include "align/kernels/kernel_registry.h"
#include "chain/chainer.h"
#include "seed/dsoft.h"
#include "seed/seed_index.h"
#include "seq/fasta.h"
#include "util/args.h"
#include "util/logging.h"
#include "util/thread_pool.h"
#include "wga/extend_stage.h"
#include "wga/filter_stage.h"
#include "wga/maf.h"
#include "wga/params.h"

using namespace darwin;

namespace {

using Clock = std::chrono::steady_clock;

std::int64_t
since(Clock::time_point origin)
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin)
        .count();
}

/** Spans of one run, kept in memory until the run ends. */
class SpanLog {
  public:
    explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

    template <typename Fn>
    auto
    span(const char* name, const char* parent, Fn&& fn)
    {
        const std::int64_t start = since(origin_);
        struct Close {
            SpanLog* log;
            const char* name;
            const char* parent;
            std::int64_t start;
            ~Close()
            {
                log->spans_.push_back(
                    {name, parent, start, since(log->origin_)});
            }
        } close{this, name, parent, start};
        return fn();
    }

    std::string
    json() const
    {
        std::string out = "[";
        for (const Span& s : spans_) {
            if (out.size() > 1)
                out += ",";
            out += "{\"name\":\"" + std::string(s.name) +
                   "\",\"parent\":\"" + s.parent +
                   "\",\"start_ns\":" + std::to_string(s.start_ns) +
                   ",\"end_ns\":" + std::to_string(s.end_ns) + "}";
        }
        return out + "]";
    }

  private:
    struct Span {
        const char* name;
        const char* parent;
        std::int64_t start_ns;
        std::int64_t end_ns;
    };
    Clock::time_point origin_;
    std::vector<Span> spans_;
};

/**
 * Runs every tile through the GACT-X engine, timing it, then through the
 * score-only kernel of the active ISA on the same inputs. Not a
 * GactXTileAligner, so ExtendStage takes its per-anchor path with it.
 * Single-threaded use only.
 */
class TimedTileAligner final : public align::TileAligner {
  public:
    explicit TimedTileAligner(const align::GactXTileAligner& inner)
        : inner_(inner),
          score_only_(align::kernels::KernelRegistry::instance()
                          .active()
                          .gactx_score_only)
    {
        require(score_only_ != nullptr,
                "perfbench-layers: active kernel has no score-only GACT-X");
    }

    align::TileResult
    align_tile(std::span<const std::uint8_t> target,
               std::span<const std::uint8_t> query) const override
    {
        // The second call finds the tile's inputs in cache; alternating
        // which kernel goes first shares that advantage evenly.
        align::TileResult result;
        align::TileResult probe;
        const auto full = [&] {
            const Clock::time_point t0 = Clock::now();
            result = inner_.align_tile(target, query);
            tile_ns += since(t0);
        };
        const auto score_only = [&] {
            const Clock::time_point t0 = Clock::now();
            probe = score_only_(target, query, inner_.params());
            score_only_ns += since(t0);
        };
        if (calls_++ % 2 == 0) {
            full();
            score_only();
        } else {
            score_only();
            full();
        }
        if (probe.max_score != result.max_score)
            fatal("perfbench-layers: score-only tile score differs");
        return result;
    }

    std::size_t tile_size() const override { return inner_.tile_size(); }
    std::size_t tile_overlap() const override { return inner_.tile_overlap(); }

    mutable std::int64_t tile_ns = 0;
    mutable std::int64_t score_only_ns = 0;

  private:
    const align::GactXTileAligner& inner_;
    align::kernels::GactXKernelFn score_only_;
    mutable std::uint64_t calls_ = 0;
};

std::span<const std::uint8_t>
codes(const seq::Sequence& sequence)
{
    return {sequence.codes().data(), sequence.size()};
}

void
run_layers(const ArgParser& args, const wga::WgaParams& params,
           ThreadPool& pool)
{
    SpanLog log(Clock::now());
    const std::string counts = log.span("run", "", [&] {
        seq::Genome target;
        seq::Genome query;
        log.span("ingest", "run", [&] {
            target = seq::read_genome(args.get("target"));
            query = seq::read_genome(args.get("query"));
            target.flattened();
            query.flattened();
        });
        const seq::Sequence& target_flat = target.flattened();
        const seq::Sequence& query_flat = query.flattened();
        const auto index = log.span("index", "run", [&] {
            return seed::SeedIndex(target_flat,
                                   seed::SeedPattern(params.seed_pattern));
        });

        seed::SeedingStats seeding;
        const auto hits = log.span("seed", "run", [&] {
            return seed::DsoftSeeder(index, params.dsoft)
                .seed_all(query_flat, &seeding, &pool);
        });

        wga::FilterStats filter_stats;
        const auto candidates = log.span("filter", "run", [&] {
            return wga::FilterStage(params, codes(target_flat),
                                    codes(query_flat))
                .filter_all(hits, &filter_stats, &pool);
        });

        const align::GactXTileAligner aligner(params.gactx);
        wga::ExtendStats extend_stats;
        const auto alignments = log.span("extend", "run", [&] {
            wga::ExtendStage stage(params, codes(target_flat),
                                   codes(query_flat));
            return stage.extend_all(candidates, aligner, &extend_stats,
                                    &pool);
        });

        const auto chains = log.span("chain", "run", [&] {
            return chain::chain_alignments(alignments);
        });
        log.span("maf_write", "run", [&] {
            wga::write_maf_file(args.get("out"), alignments, target, query);
        });

        TimedTileAligner timed(aligner);
        wga::ExtendStats split_stats;
        const auto split = log.span("extend_split", "run", [&] {
            wga::ExtendStage stage(params, codes(target_flat),
                                   codes(query_flat));
            return stage.extend_all(candidates, timed, &split_stats);
        });
        if (split.size() != alignments.size() ||
            split_stats.matched_bases != extend_stats.matched_bases)
            fatal("perfbench-layers: single-threaded extension pass "
                  "disagrees with the main pass");

        const std::vector<std::pair<const char*, std::uint64_t>> fields = {
            {"timer_ns.extend_split.tile",
             static_cast<std::uint64_t>(timed.tile_ns)},
            {"timer_ns.extend_split.score_only",
             static_cast<std::uint64_t>(timed.score_only_ns)},
            {"target_bp", target_flat.size()},
            {"query_bp", query_flat.size()},
            {"index_positions", index.num_positions()},
            {"seed_lookups", seeding.seed_lookups},
            {"seed_hits", seeding.seed_hits},
            {"filter_tiles", filter_stats.tiles},
            {"filter_cells", filter_stats.cells},
            {"filter_passed", filter_stats.passed},
            {"anchors_in", extend_stats.anchors_in},
            {"absorbed", extend_stats.absorbed},
            {"extended", extend_stats.extended},
            {"duplicates", extend_stats.duplicates},
            {"alignments", extend_stats.alignments_out},
            {"matched_bases", extend_stats.matched_bases},
            {"extend_tiles", extend_stats.extension.tiles},
            {"extend_cells", extend_stats.extension.cells},
            {"traceback_ops", extend_stats.extension.traceback_ops},
            {"chains", chains.size()},
        };
        std::string counts;
        for (const auto& [name, value] : fields)
            counts += std::string(counts.empty() ? "" : ",") + "\"" + name +
                      "\":" + std::to_string(value);
        return counts;
    });
    std::printf("{\"spans\":%s,\"counts\":{%s}}\n", log.json().c_str(),
                counts.c_str());
}

}  // namespace

int
main(int argc, char** argv)
{
    ArgParser args("perfbench-layers: time each layer of one FASTA -> MAF "
                   "alignment.");
    args.add_option("target", "", "target genome FASTA (required)");
    args.add_option("query", "", "query genome FASTA (required)");
    args.add_option("out", "out.maf", "output MAF path");
    if (!args.parse(argc, argv))
        return 1;
    if (args.get("target").empty() || args.get("query").empty()) {
        std::fprintf(stderr, "perfbench-layers: --target and --query are "
                             "required\n");
        return 1;
    }
    try {
        const wga::WgaParams params = wga::WgaParams::darwin_defaults();
        ThreadPool pool;
        run_layers(args, params, pool);
    } catch (const FatalError& error) {
        std::fprintf(stderr, "error: %s\n", error.what());
        return 1;
    }
    return 0;
}
