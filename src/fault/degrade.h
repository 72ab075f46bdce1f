/**
 * @file
 * Degraded-mode parameter policy, shared by the batch engine and the
 * serve daemon.
 *
 * When a pair blows a budget the batch engine gives it one retry with
 * cheaper parameters before quarantining it; when the serve daemon's
 * circuit breaker is open it serves requests with the same transform
 * (see fault/breaker.h). The policy lives here — not in the scheduler
 * or the server — so a serial run with apply_degrade'd params is
 * bit-identical to either consumer's degraded attempt: the degraded
 * contract is testable outside both.
 *
 * The transform: a narrower filter band, a tighter GACT-X / ungapped
 * X-drop, and a per-chunk seed-hit cap.
 */
#ifndef DARWIN_FAULT_DEGRADE_H
#define DARWIN_FAULT_DEGRADE_H

#include <cstddef>

#include "wga/params.h"

namespace darwin::fault {

/** Knobs of the degraded mode; defaults roughly quarter the DP work. */
struct DegradePolicy {
    /** Filter band half-width divisor (floored at min_band). */
    std::size_t band_divisor = 2;
    std::size_t min_band = 8;

    /** X-drop divisor for gactx.ydrop and ungapped_xdrop (floored at
     *  min_ydrop). */
    std::size_t ydrop_divisor = 2;
    align::Score min_ydrop = 100;

    /** DsoftParams::max_hits_per_chunk for the retry (0 keeps the
     *  original). */
    std::size_t max_hits_per_chunk = 256;
};

/** The degraded parameter set for one retry of `params`. */
wga::WgaParams apply_degrade(const wga::WgaParams& params,
                             const DegradePolicy& policy);

}  // namespace darwin::fault

#endif  // DARWIN_FAULT_DEGRADE_H
