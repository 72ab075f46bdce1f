#include "fault/degrade.h"

#include <algorithm>

namespace darwin::fault {

wga::WgaParams
apply_degrade(const wga::WgaParams& params, const DegradePolicy& policy)
{
    wga::WgaParams out = params;
    if (policy.band_divisor > 1) {
        out.filter_band = std::max(policy.min_band,
                                   params.filter_band / policy.band_divisor);
    }
    if (policy.ydrop_divisor > 1) {
        out.gactx.ydrop = std::max<align::Score>(
            policy.min_ydrop,
            params.gactx.ydrop /
                static_cast<align::Score>(policy.ydrop_divisor));
        out.ungapped_xdrop = std::max<align::Score>(
            policy.min_ydrop,
            params.ungapped_xdrop /
                static_cast<align::Score>(policy.ydrop_divisor));
    }
    if (policy.max_hits_per_chunk != 0) {
        out.dsoft.max_hits_per_chunk =
            params.dsoft.max_hits_per_chunk == 0
                ? policy.max_hits_per_chunk
                : std::min(params.dsoft.max_hits_per_chunk,
                           policy.max_hits_per_chunk);
    }
    return out;
}

}  // namespace darwin::fault
