/**
 * @file
 * BMI2 seed-key extraction (compiled in its own TU with -mbmi2).
 *
 * Given a 2-bit-lane window (LSB-first, as produced by
 * PackedSequence::extract_kmer) and a lane mask covering the pattern's
 * match offsets, _pext_u64 gathers the match lanes in one instruction —
 * but in ascending-offset order (first offset in the LOW bits), while
 * SeedPattern::key_at builds keys MSB-first (first offset in the HIGH
 * bits). pext_key therefore reverses the 2-bit groups of the gathered
 * value and right-aligns to the pattern weight, producing bit-identical
 * keys to the byte-at-a-time path.
 *
 * The TU carries an internal __BMI2__ guard with a stub fallback, so
 * builds succeed on compilers or targets without the flag and the
 * caller runtime-gates on bmi2_key_available().
 */
#ifndef DARWIN_SEED_SEED_KEY_BMI2_H
#define DARWIN_SEED_SEED_KEY_BMI2_H

#include <cstdint>

namespace darwin::seed::detail {

/** True when the TU was compiled with BMI2 and the CPU supports it. */
bool bmi2_key_available();

/**
 * Extract the seed key from `lanes` (2-bit LSB-first window) using the
 * 2-bit lane mask `mask2` at the pattern's match offsets. `weight` is
 * the number of match positions (<= 15). Only call when
 * bmi2_key_available() returned true.
 */
std::uint32_t pext_key(std::uint64_t lanes, std::uint64_t mask2,
                       unsigned weight);

}  // namespace darwin::seed::detail

#endif  // DARWIN_SEED_SEED_KEY_BMI2_H
