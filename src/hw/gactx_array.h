/**
 * @file
 * Cycle model of the GACT-X extension systolic array.
 *
 * The software GACT-X engine (align/gactx.h) is stripe-faithful: the
 * per-stripe column counts it reports are exactly the columns the
 * hardware wavefront sweeps, so the array's cycle count is derived
 * directly from a TileResult — wavefront cycles per stripe plus the
 * traceback walk (1 step/cycle from the max cell to the origin) and the
 * fixed tile setup. align_tile() dispatches to a runtime-selected
 * extension kernel (align/kernels/), all of which are bit-identical in
 * every TileResult field including stripe_columns — so the cycle counts
 * derived here are invariant under DARWIN_KERNEL.
 */
#ifndef DARWIN_HW_GACTX_ARRAY_H
#define DARWIN_HW_GACTX_ARRAY_H

#include "align/extension.h"
#include "align/gactx.h"
#include "hw/pe_array.h"

namespace darwin::hw {

/** Result of simulating one extension tile. */
struct GactXTileSim {
    align::TileResult tile;  ///< identical to the software engine's result
    std::uint64_t cycles = 0;
};

/** One GACT-X systolic array. */
class GactXArrayModel {
  public:
    explicit GactXArrayModel(align::GactXParams params);

    /** Run the stripe-faithful engine and attach the cycle count. */
    GactXTileSim run_tile(std::span<const std::uint8_t> target,
                          std::span<const std::uint8_t> query) const;

    /** Cycle count for an already-computed tile result. */
    static std::uint64_t tile_cycles(const align::TileResult& tile,
                                     std::size_t npe);

    /**
     * Cycle count for a whole extension workload from its aggregated
     * stats (stripes, stripe columns, traceback ops, tiles).
     */
    static std::uint64_t workload_cycles(const align::ExtensionStats& stats,
                                         std::size_t npe);

    const align::GactXParams& params() const { return params_; }

  private:
    align::GactXParams params_;
    align::GactXTileAligner engine_;
};

}  // namespace darwin::hw

#endif  // DARWIN_HW_GACTX_ARRAY_H
