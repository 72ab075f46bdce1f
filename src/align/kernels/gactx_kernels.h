/**
 * @file
 * GACT-X extension-kernel implementations behind the dispatch registry.
 *
 * The seed stripe engine marches each stripe column by column with a
 * lane-serial dependency chain (`up = val`, `g_up = g`, `diag_carry`)
 * that mirrors the systolic array but defeats SIMD. The registered
 * kernels instead sweep each stripe along anti-diagonals: within a
 * stripe of `num_pe` rows, cell (r, c) on diagonal d = r + c depends
 * only on diagonals d-1 (left and up neighbours, plus the running gap
 * rows) and d-2 (diagonal neighbour), so all lanes of a diagonal update
 * independently and vectorize. Column-granular state — the column best
 * (for Vmax and the X-drop stripe termination), which travels down the
 * lanes with its column, and the stripe's last-row V/G frontier — is
 * committed when a column *completes*, i.e. when its last lane computes
 * it at diagonal c + rows - 1; columns the wavefront had started beyond
 * a terminating column are discarded, so the column walk (vmax updates,
 * termination point, cells_computed, stripe_columns) replays the seed
 * engine's sequential order exactly.
 * The scalar kernels are declared here; the vector tiers' policy is
 * written once in simd_kernels.h and instantiated per ISA, and both run
 * on the shared scaffold in gactx_wavefront.h. Up to kGactXPad rows
 * per stripe, the vector tiers keep the lane state in registers (the
 * register walk); the scalar tier, and wider stripes, rotate it through
 * the lane buffers below.
 *
 * Bit-identity contract: every kernel must return *exactly* the same
 * TileResult as `gactx_reference_align` (the seed engine) for every
 * input — max_score, the (target_max, query_max) tie-break (first
 * strictly-greater column, smallest row within a column),
 * cells_computed, stripe_columns, traceback_bytes, and the CIGAR — so
 * the hw/gactx_array cycle model stays valid under dispatch.
 * tests/kernel_diff_test.cpp enforces the contract field-for-field.
 */
#ifndef DARWIN_ALIGN_KERNELS_GACTX_KERNELS_H
#define DARWIN_ALIGN_KERNELS_GACTX_KERNELS_H

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "align/gactx.h"

namespace darwin::align::kernels {

using GactXKernelFn = TileResult (*)(std::span<const std::uint8_t> target,
                                     std::span<const std::uint8_t> query,
                                     const GactXParams& params);

/**
 * The seed column-serial stripe engine. Kept unregistered as the
 * micro-benchmark baseline and as the oracle for the differential
 * tests; the registry dispatches the wavefront kernels below.
 */
TileResult gactx_reference_align(std::span<const std::uint8_t> target,
                                 std::span<const std::uint8_t> query,
                                 const GactXParams& params);

/** Anti-diagonal stripe wavefront, tuned scalar (`scalar` entry). */
TileResult gactx_wavefront_scalar(std::span<const std::uint8_t> target,
                                  std::span<const std::uint8_t> query,
                                  const GactXParams& params);

/**
 * Score-only probe: the scalar wavefront with every traceback side
 * effect elided but *all* accounting intact (same max_score/x_max cell,
 * cells_computed, stripe_columns, traceback_bytes — and the same
 * budget charges and probe polls). A probe returning max_score == 0
 * is the complete bit-identical TileResult of an x-drop-dead tile
 * (empty CIGAR). The differential suite checks every ISA's variant
 * against its full kernel.
 */
TileResult gactx_wavefront_scalar_score_only(
    std::span<const std::uint8_t> target,
    std::span<const std::uint8_t> query, const GactXParams& params);

/**
 * Guard bytes of the padded tile copies, and the most rows per stripe
 * the register stripe walk (simd_kernels.h) takes, so no block read of
 * its lanes leaves a copy.
 */
inline constexpr std::size_t kGactXPad = 64;

/**
 * Reusable per-thread buffers for the wavefront kernels.
 *
 * The frontier ("BRAM") arrays are indexed by target column; the lane
 * arrays of the lane-buffer walk by slot r + 1 (slot 0 carries the
 * previous stripe's frontier values for lane 0, mirroring the systolic
 * array's BRAM port; in the column-best buffers it is the -inf a new
 * column starts from). The register walk keeps the same lane state in
 * vector registers and reads the tile through the padded copies
 * instead: `tpad` is the target reversed and premultiplied by
 * kNumCodes, so a block of lanes on one anti-diagonal reads its target
 * codes forward, and `qpad` is the query. Code-0 guard bytes —
 * kGactXPad on both sides of `tpad`, after `qpad` — are what the
 * walk's phantom lanes and its lanes past the stripe's last column
 * read. The kernels maintain the invariant that every slot a later
 * diagonal (or stripe) reads was written earlier in the same call, so
 * no buffer is ever cleared — `prepare` only grows capacity and, when
 * the walk reads them (`padded`), refreshes the copies. The pointer
 * pool grows on demand, stripe by stripe, and keeps its size between
 * tiles (at paper defaults at most ~3.8 MB: 1920 columns + 31 skew
 * diagonals, x 32 lanes, x 60 stripes, one byte per cell).
 */
struct GactXScratch {
    std::vector<Score> bram_v, bram_g;  ///< previous stripe's last row
    std::vector<Score> next_v, next_g;  ///< frontier being produced
    std::vector<Score> v0, v1, v2;      ///< lane V: diag d-2, d-1, current
    std::vector<Score> g0, g1;          ///< lane G: diag d-1, current
    std::vector<Score> h0, h1;          ///< lane H: diag d-1, current
    std::vector<Score> c0, c1;          ///< lane column best: d-1, current
    std::vector<std::int32_t> b0, b1;   ///< its smallest row: d-1, current
    std::vector<Score> init_left;       ///< column-0 boundary per lane
    std::vector<std::uint8_t> tpad;     ///< reversed target x kNumCodes
    std::vector<std::uint8_t> qpad;     ///< query
    std::vector<std::uint8_t> ptr_pool; ///< StripePointerStore codes

    void prepare(std::span<const std::uint8_t> target,
                 std::span<const std::uint8_t> query, std::size_t npe,
                 bool padded);
};

/** Per-thread scratch instance (kernels may run on pool threads). */
GactXScratch& gactx_scratch();

}  // namespace darwin::align::kernels

#endif  // DARWIN_ALIGN_KERNELS_GACTX_KERNELS_H
