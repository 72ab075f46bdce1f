/**
 * @file
 * End-to-end pipeline parameters.
 *
 * Two factory configurations mirror the paper's comparison:
 *  - darwin_defaults(): D-SOFT seeding -> gapped (BSW) filtering with
 *    Hf = 4000 -> GACT-X extension with He = 4000 (Table II + §VI-B).
 *  - lastz_defaults(): identical seeding and extension, but the filter is
 *    LASTZ's ungapped X-drop stage with threshold 3000 (§V-B: "LASTZ
 *    default scoring parameters are identical ... except the filtration
 *    and extension thresholds are lower, at 3000").
 */
#ifndef DARWIN_WGA_PARAMS_H
#define DARWIN_WGA_PARAMS_H

#include <string>

#include "align/gactx.h"
#include "align/scoring.h"
#include "seed/dsoft.h"

namespace darwin::wga {

/** Which filtering algorithm the pipeline runs. */
enum class FilterMode {
    Gapped,    ///< banded Smith-Waterman (Darwin-WGA)
    Ungapped,  ///< X-drop ungapped extension (LASTZ baseline)
};

/** Full pipeline configuration. */
struct WgaParams {
    /** Spaced seed pattern (string of 1/0). */
    std::string seed_pattern = "1110100110010101111";

    seed::DsoftParams dsoft;

    FilterMode filter_mode = FilterMode::Gapped;

    /** Gapped filter tile size Tf. */
    std::size_t filter_tile = 320;

    /** Gapped filter band half-width B. */
    std::size_t filter_band = 32;

    /** Filter threshold Hf. */
    align::Score filter_threshold = 4000;

    /** Ungapped filter X-drop bound (LASTZ mode only). */
    align::Score ungapped_xdrop = 910;

    /** GACT-X extension engine parameters (Table II defaults). */
    align::GactXParams gactx;

    /** Extension threshold He: alignments scoring below are dropped. */
    align::Score extension_threshold = 4000;

    align::ScoringParams scoring = align::ScoringParams::paper_defaults();

    /** Cell granularity (bp) of the anchor-absorption grid. */
    std::size_t absorb_cell = 64;

    /**
     * Also align the reverse complement of the query (second pass).
     * Alignments from that pass carry Strand::Reverse with query
     * coordinates in reverse-complement space (MAF '-' convention).
     * Off by default: the paper's synthetic evaluation plants no
     * inversions, and the second pass doubles seeding/filter work.
     */
    bool align_both_strands = false;

    /** Darwin-WGA defaults (gapped filtering). */
    static WgaParams darwin_defaults();

    /** LASTZ-like baseline (ungapped filtering, thresholds 3000). */
    static WgaParams lastz_defaults();
};

}  // namespace darwin::wga

#endif  // DARWIN_WGA_PARAMS_H
