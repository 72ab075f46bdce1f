/**
 * @file
 * `darwin-wga-index` — build and inspect persistent reference indexes.
 *
 * Subcommands:
 *   build   FASTA target -> .dwi seed-position table (src/index/ format)
 *   info    print a .dwi header (version, digest, seed shape, sizes)
 *   fsck    validate artifacts (.dwi / .2bit / batch journals)
 *
 *   darwin-wga-index build --target t.fa --out t.dwi
 *   darwin-wga-index build --target t.fa --out t.dwi --preset lastz
 *   darwin-wga-index info --index t.dwi
 *   darwin-wga-index fsck t.dwi t.fa.2bit run/checkpoint.jsonl
 *
 * The index is exactly the table the aligner would build in memory for
 * `--target t.fa`, so `darwin-wga-serve` (or anything loading it via
 * index::load_index) produces bit-identical alignments from it.
 */
#include <cstdio>

#include "index/fsck.h"
#include "index/index_io.h"
#include "seed/seed_index.h"
#include "seq/fasta.h"
#include "util/args.h"
#include "util/logging.h"
#include "util/strings.h"
#include "util/timer.h"
#include "wga/params.h"

using namespace darwin;

namespace {

int
cmd_build(int argc, char** argv)
{
    ArgParser args("darwin-wga-index build: persist the seed-position "
                   "table of a target FASTA as a .dwi file.");
    args.add_option("target", "", "target genome FASTA (required)");
    args.add_option("out", "", "output .dwi path (required)");
    args.add_option("preset", "darwin",
                    "seed-shape preset: darwin | lastz (both use the "
                    "12-of-19 spaced seed today)");
    args.add_option("pattern", "",
                    "explicit seed shape of '1'/'0' (overrides --preset)");
    args.add_option("max-bucket", "256",
                    "repeat-seed truncation cap (must match the "
                    "aligner's; the default is what it uses)");
    if (!args.parse(argc, argv))
        return 1;
    if (args.get("target").empty() || args.get("out").empty()) {
        std::fprintf(stderr,
                     "build: --target and --out are required\n");
        return 1;
    }

    const wga::WgaParams preset = args.get("preset") == "lastz"
                                      ? wga::WgaParams::lastz_defaults()
                                      : wga::WgaParams::darwin_defaults();
    std::string pattern_text = args.get("pattern");
    if (pattern_text.empty())
        pattern_text = preset.seed_pattern;
    const std::uint64_t max_bucket = args.get_uint("max-bucket");
    if (max_bucket == 0 || max_bucket > UINT32_MAX)
        fatal(strprintf("option --max-bucket: %llu is outside [1, 2^32)",
                        static_cast<unsigned long long>(max_bucket)));

    const auto genome = seq::read_genome(args.get("target"));
    const seq::Sequence& flat = genome.flattened();
    inform(strprintf("target: %zu chromosomes, %zu bp",
                     genome.num_chromosomes(), genome.total_length()));

    Timer timer;
    const seed::SeedPattern pattern(pattern_text);
    const seed::SeedIndex index(flat, pattern,
                                static_cast<std::uint32_t>(max_bucket));
    const double build_seconds = timer.seconds();
    timer.reset();
    index::save_index(args.get("out"), index, index::sequence_digest(flat),
                      flat.size());
    const index::IndexInfo info = index::read_index_info(args.get("out"));

    std::printf("wrote %s (%s bytes)\n", args.get("out").c_str(),
                with_commas(info.total_bytes).c_str());
    std::printf("seed shape %s (weight %zu), %s positions, "
                "%s truncated buckets\n",
                info.pattern.c_str(), pattern.weight(),
                with_commas(info.num_positions).c_str(),
                with_commas(info.truncated_buckets).c_str());
    std::printf("sequence digest %016llx   build %.2fs   write %.2fs\n",
                static_cast<unsigned long long>(info.sequence_digest),
                build_seconds, timer.seconds());
    return 0;
}

int
cmd_info(int argc, char** argv)
{
    ArgParser args("darwin-wga-index info: print a .dwi file's header.");
    args.add_option("index", "", ".dwi file (required)");
    args.add_flag("json", "print the header as one JSON object");
    if (!args.parse(argc, argv))
        return 1;
    if (args.get("index").empty()) {
        std::fprintf(stderr, "info: --index is required\n");
        return 1;
    }

    const index::IndexInfo info =
        index::read_index_info(args.get("index"));
    if (args.get_flag("json")) {
        std::printf(
            "{\"version\": %u, \"sequence_digest\": \"%016llx\", "
            "\"sequence_length\": %llu, \"pattern\": %s, "
            "\"max_bucket\": %u, \"num_buckets\": %llu, "
            "\"dir_bits\": %u, \"num_positions\": %llu, "
            "\"skipped_windows\": %llu, "
            "\"truncated_buckets\": %llu, \"total_bytes\": %llu}\n",
            info.version,
            static_cast<unsigned long long>(info.sequence_digest),
            static_cast<unsigned long long>(info.sequence_length),
            json_quote(info.pattern).c_str(), info.max_bucket,
            static_cast<unsigned long long>(info.num_buckets),
            info.dir_bits,
            static_cast<unsigned long long>(info.num_positions),
            static_cast<unsigned long long>(info.skipped_windows),
            static_cast<unsigned long long>(info.truncated_buckets),
            static_cast<unsigned long long>(info.total_bytes));
        return 0;
    }
    std::printf("format version:    %u\n", info.version);
    std::printf("sequence digest:   %016llx\n",
                static_cast<unsigned long long>(info.sequence_digest));
    std::printf("sequence length:   %s bp\n",
                with_commas(info.sequence_length).c_str());
    std::printf("seed shape:        %s\n", info.pattern.c_str());
    std::printf("max bucket:        %u\n", info.max_bucket);
    std::printf("buckets:           %s\n",
                with_commas(info.num_buckets).c_str());
    std::printf("directory bits b:  %u (%s slices)\n", info.dir_bits,
                with_commas(std::uint64_t{1} << info.dir_bits).c_str());
    std::printf("positions:         %s\n",
                with_commas(info.num_positions).c_str());
    std::printf("skipped windows:   %s\n",
                with_commas(info.skipped_windows).c_str());
    std::printf("truncated buckets: %s\n",
                with_commas(info.truncated_buckets).c_str());
    std::printf("file size:         %s bytes\n",
                with_commas(info.total_bytes).c_str());
    return 0;
}

int
cmd_fsck(int argc, char** argv)
{
    ArgParser args("darwin-wga-index fsck: validate darwin-wga disk "
                   "artifacts (.dwi indexes, .2bit sidecars, batch "
                   "checkpoint journals). Exit 0 when every file is "
                   "clean, 1 when any finding is reported.");
    args.add_flag("json", "print findings as JSONL");
    if (!args.parse(argc, argv))
        return 1;
    if (args.positional().empty()) {
        std::fprintf(stderr, "fsck: at least one FILE is required\n");
        return 1;
    }

    std::size_t total_findings = 0;
    for (const std::string& path : args.positional()) {
        std::string kind;
        const auto findings = index::fsck_file(path, &kind);
        if (findings.empty()) {
            if (!args.get_flag("json"))
                std::printf("%s: clean (%s)\n", path.c_str(),
                            kind.c_str());
            continue;
        }
        total_findings += findings.size();
        for (const auto& finding : findings) {
            if (args.get_flag("json")) {
                std::printf("{\"path\": %s, \"code\": %s, "
                            "\"detail\": %s}\n",
                            json_quote(finding.path).c_str(),
                            json_quote(finding.code).c_str(),
                            json_quote(finding.detail).c_str());
            } else {
                std::fprintf(stderr, "%s: [%s] %s\n",
                             finding.path.c_str(), finding.code.c_str(),
                             finding.detail.c_str());
            }
        }
    }
    if (total_findings > 0) {
        std::fprintf(stderr, "fsck: %zu finding(s) across %zu file(s)\n",
                     total_findings, args.positional().size());
        return 1;
    }
    return 0;
}

}  // namespace

int
main(int argc, char** argv)
{
    if (argc < 2) {
        std::fprintf(stderr,
                     "usage: darwin-wga-index <build|info|fsck> "
                     "[options]\n"
                     "  run a subcommand with --help for its options\n");
        return 1;
    }
    const std::string command = argv[1];
    init_log_level_from_env();
    try {
        if (command == "build")
            return cmd_build(argc - 1, argv + 1);
        if (command == "info")
            return cmd_info(argc - 1, argv + 1);
        if (command == "fsck")
            return cmd_fsck(argc - 1, argv + 1);
    } catch (const FatalError& error) {
        std::fprintf(stderr, "error: %s\n", error.what());
        return 1;
    }
    std::fprintf(stderr, "unknown subcommand '%s'\n", command.c_str());
    return 1;
}
