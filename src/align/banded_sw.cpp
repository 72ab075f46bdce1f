#include "align/banded_sw.h"

#include "align/kernels/kernel_registry.h"
#include "fault/cancel.h"
#include "util/logging.h"

namespace darwin::align {

BswResult
banded_smith_waterman(std::span<const std::uint8_t> target,
                      std::span<const std::uint8_t> query,
                      const ScoringParams& scoring, std::size_t band)
{
    const BswTile tile{target, query};
    BswResult result;
    banded_smith_waterman_batch({&tile, 1}, scoring, band, &result);
    return result;
}

void
banded_smith_waterman_batch(std::span<const BswTile> tiles,
                            const ScoringParams& scoring, std::size_t band,
                            BswResult* out)
{
    // Budget probe per tile: a filter tile is bounded work (tile bp x
    // band width), so per-tile polling and charging keep the probe and
    // budget accounting of a one-tile call without touching the
    // kernels' inner loops.
    for (const BswTile& tile : tiles) {
        require(tile.target.size() <= kBswMaxTile &&
                    tile.query.size() <= kBswMaxTile,
                "banded_smith_waterman: tile longer than kBswMaxTile");
        fault::poll("filter.tile");
    }
    // Thin façade: dispatch to the active registry kernel. Every kernel
    // is bit-identical (tests/kernel_diff_test.cpp), so callers never
    // observe which implementation ran.
    kernels::KernelRegistry::instance().active().bsw(tiles, scoring, band,
                                                     out);
    for (std::size_t i = 0; i < tiles.size(); ++i)
        fault::charge_cells(out[i].cells_computed);
}

}  // namespace darwin::align
