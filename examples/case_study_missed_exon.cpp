/**
 * @file
 * Figure 9 analogue: find a biologically-significant region (a planted
 * orthologous exon) that Darwin-WGA aligns but the LASTZ-like baseline
 * misses, and show *why* — the base-level alignment with the indels that
 * flank the seed hits, which kill ungapped extension but are absorbed by
 * gapped filtering.
 *
 *   $ ./examples/case_study_missed_exon --pair ce11-cb4 --size 150000
 */
#include <cstdio>

#include "eval/block_stats.h"
#include "eval/exon_eval.h"
#include "synth/species.h"
#include "util/args.h"
#include "util/strings.h"
#include "util/thread_pool.h"
#include "wga/pipeline.h"

using namespace darwin;

namespace {

/** Pretty-print an alignment slice in three rows (target/bars/query). */
void
print_alignment(const align::Alignment& alignment,
                const seq::Sequence& target_flat,
                const seq::Sequence& query_flat, std::size_t max_cols)
{
    std::string t_row, m_row, q_row;
    std::uint64_t t = alignment.target_start;
    std::uint64_t q = alignment.query_start;
    for (const auto& run : alignment.cigar.runs()) {
        for (std::uint32_t k = 0;
             k < run.length && t_row.size() < max_cols; ++k) {
            switch (run.op) {
              case align::EditOp::Match:
                t_row += seq::decode_base(target_flat[t]);
                q_row += seq::decode_base(query_flat[q]);
                m_row += '|';
                ++t;
                ++q;
                break;
              case align::EditOp::Mismatch:
                t_row += seq::decode_base(target_flat[t]);
                q_row += seq::decode_base(query_flat[q]);
                m_row += ' ';
                ++t;
                ++q;
                break;
              case align::EditOp::Insert:
                t_row += '-';
                q_row += seq::decode_base(query_flat[q]);
                m_row += ' ';
                ++q;
                break;
              case align::EditOp::Delete:
                t_row += seq::decode_base(target_flat[t]);
                q_row += '-';
                m_row += ' ';
                ++t;
                break;
            }
        }
    }
    for (std::size_t off = 0; off < t_row.size(); off += 80) {
        std::printf("  t  %s\n     %s\n  q  %s\n\n",
                    t_row.substr(off, 80).c_str(),
                    m_row.substr(off, 80).c_str(),
                    q_row.substr(off, 80).c_str());
    }
}

}  // namespace

int
main(int argc, char** argv)
{
    ArgParser args("Find an exon Darwin-WGA aligns but the LASTZ-like "
                   "baseline misses, and display the alignment.");
    args.add_option("pair", "ce11-cb4", "paper species pair");
    args.add_option("size", "150000", "chromosome length (bp)");
    args.add_option("seed", "2", "workload generator seed");
    args.add_option("threads", "0", "worker threads (0 = all cores)");
    if (!args.parse(argc, argv))
        return 1;

    synth::AncestorConfig shape;
    shape.num_chromosomes = 1;
    shape.chromosome_length = args.get_uint("size");
    shape.exons_per_chromosome = shape.chromosome_length / 2000;
    const auto pair = synth::make_species_pair(
        synth::find_species_pair(args.get("pair")), shape,
        args.get_uint("seed"));
    ThreadPool pool(args.get_uint("threads"));

    const wga::WgaPipeline darwin_wga(wga::WgaParams::darwin_defaults());
    const wga::WgaPipeline lastz_like(wga::WgaParams::lastz_defaults());
    const auto darwin_result =
        darwin_wga.run(pair.target.genome, pair.query.genome, {.pool = &pool});
    const auto lastz_result =
        lastz_like.run(pair.target.genome, pair.query.genome, {.pool = &pool});

    // Score each exon under both aligners; keep ones only Darwin found.
    const auto exons = eval::flatten_exons(pair.target, pair.query);
    std::vector<eval::FlatExon> only_darwin;
    for (const auto& exon : exons) {
        const auto d = eval::count_recovered_exons({exon}, darwin_result);
        const auto l = eval::count_recovered_exons({exon}, lastz_result);
        if (d.recovered == 1 && l.recovered == 0)
            only_darwin.push_back(exon);
    }
    std::printf("%zu exons total; %zu aligned by Darwin-WGA but missed "
                "by the LASTZ-like baseline\n\n",
                exons.size(), only_darwin.size());
    if (only_darwin.empty()) {
        std::printf("(none on this workload — try a more distant pair "
                    "or another seed)\n");
        return 0;
    }

    // Show the first case: the covering Darwin alignment and its indel
    // structure around the exon (the Fig. 9b view).
    const auto& exon = only_darwin.front();
    std::printf("case study: %s  target[%llu,%llu)  query[%llu,%llu)\n",
                exon.name.c_str(),
                static_cast<unsigned long long>(exon.target.start),
                static_cast<unsigned long long>(exon.target.end),
                static_cast<unsigned long long>(exon.query.start),
                static_cast<unsigned long long>(exon.query.end));

    for (const auto& chain : darwin_result.chains) {
        for (const auto idx : chain.members) {
            const auto& a = darwin_result.alignments[idx];
            if (a.target_start <= exon.target.start &&
                a.target_end >= exon.target.end) {
                std::printf("covering alignment: %s\n",
                            a.summary().c_str());
                const auto blocks = eval::ungapped_blocks(a.cigar);
                std::printf("ungapped blocks: %zu (LASTZ's ungapped "
                            "filter needs ~30bp clean blocks)\n",
                            blocks.size());
                std::printf("block lengths:");
                std::size_t shown = 0;
                for (const auto len : blocks) {
                    if (++shown > 20) {
                        std::printf(" ...");
                        break;
                    }
                    std::printf(" %llu",
                                static_cast<unsigned long long>(len));
                }
                std::printf("\n\nalignment detail (first 400 columns):\n");
                print_alignment(a, pair.target.genome.flattened(),
                                pair.query.genome.flattened(), 400);
                return 0;
            }
        }
    }
    std::printf("exon covered by multiple partial blocks — inspect the "
                "MAF output of align_two_species for details\n");
    return 0;
}
