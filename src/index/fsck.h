/**
 * @file
 * Offline integrity checking of darwin-wga disk artifacts.
 *
 * `darwin-wga-index fsck FILE...` runs every artifact a crashed or
 * SIGKILLed run may have left behind through the same validation the
 * loaders apply — header geometry, checksum trailers, digest
 * verification, the `.dwi` directory check — plus the O(positions)
 * `.dwi` table checks the loaders leave out (key suffixes sorted within
 * each directory slice, positions inside the sequence) and
 * journal-specific line checks, and reports machine-readable findings
 * instead of dying on the first bad file.
 *
 * Supported artifact kinds (detected from content, not extension: one
 * artifact::sniff of the magic, then the journal reader):
 *   - `.dwi` reference indexes and `.2bit` packed-genome sidecars, both
 *     walked the same way: the loader (the artifact container's checks,
 *     util/artifact.h, then the format's), plus the `.dwi` table checks,
 *   - batch checkpoint journals (JSONL with a darwin-wga-batch header).
 *
 * A clean file yields zero findings. Every finding carries a stable
 * `code` tag ("bad-index", "bad-packed", "bad-journal", "missing",
 * "unknown-type") so scripts can match on it, and a human-readable
 * detail string naming exactly what failed.
 */
#ifndef DARWIN_INDEX_FSCK_H
#define DARWIN_INDEX_FSCK_H

#include <string>
#include <vector>

namespace darwin::index {

/** One problem found in one file. */
struct FsckFinding {
    std::string path;
    std::string code;    ///< stable machine-readable tag
    std::string detail;  ///< what failed, loader-grade specificity
};

/**
 * Validate one artifact; returns the findings (empty = clean). Sets
 * `*kind` (when non-null) to the detected artifact kind ("index",
 * "packed-genome", "journal", or "unknown"). Polls the `index.fsck`
 * fault probe once per call; injected faults propagate to the caller.
 */
std::vector<FsckFinding> fsck_file(const std::string& path,
                                   std::string* kind = nullptr);

}  // namespace darwin::index

#endif  // DARWIN_INDEX_FSCK_H
