/**
 * @file
 * Checkpoint journal for resumable batch runs.
 *
 * The manifest runner appends one JSONL line per terminally-finished
 * pair (clean, degraded, or quarantined — interrupted pairs are *not*
 * journaled, so they rerun). The first line is a header carrying a
 * config fingerprint; `--resume` refuses to reuse a journal whose
 * fingerprint differs from the current invocation's, because a changed
 * preset or pair list would silently mix outputs from two configs.
 *
 * Journal format (one JSON object per line):
 *
 *     {"journal":"darwin-wga-batch","version":1,"config":"<16 hex>"}
 *     {"pair":"p0","status":"clean","output":"p0.maf"}
 *     {"pair":"p3","status":"quarantined","reason":"injected"}
 *
 * Output files are written next to the journal via write_file_atomic
 * (tmp + rename), and the journal line is appended and flushed only
 * after the rename — so a journaled pair always has its final output on
 * disk, and a crash between the two leaves at worst a re-runnable pair.
 * A crash inside the append leaves a last line without its newline: a
 * torn record, which resume() drops (its pair reruns) and fsck reports.
 */
#ifndef DARWIN_BATCH_CHECKPOINT_H
#define DARWIN_BATCH_CHECKPOINT_H

#include <cstdint>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "fault/quarantine.h"

namespace darwin::batch {

/** One journaled pair. */
struct JournalEntry {
    std::string pair;
    fault::PairStatus status = fault::PairStatus::Clean;
    std::string reason;  ///< fail_reason_name, for quarantined pairs
    std::string output;  ///< output filename (relative), when any
};

/** One decoded journal line: the header, or one pair's entry. */
struct JournalLine {
    bool header = false;
    std::string config;  ///< the header's config fingerprint
    JournalEntry entry;  ///< an entry line's record
};

/** Decode one journal line; the one owner of the journal schema, shared
 *  by resume() and fsck. FatalError on malformed JSON or a line outside
 *  the schema (header tag, version 1, 16-hex fingerprint; entry pair id
 *  and status name). */
JournalLine parse_journal_line(std::string_view line);

/**
 * Stable fingerprint of everything that shapes a run's output: the
 * canonical config string is hashed and rendered as 16 hex digits (a
 * thin alias of util/digest.h's fingerprint_hex, shared with the index
 * file header). Callers build the canonical string; keep it free of
 * fields that don't change output (thread count, queue sizes).
 */
std::string config_fingerprint(const std::string& canonical_config);

/** Write `content` to `path` via a same-directory tmp file + rename, so
 *  readers never observe a partial file. FatalError on any I/O error. */
void write_file_atomic(const std::string& path, const std::string& content);

/** Append-only JSONL journal of finished pairs. Thread-safe. */
class CheckpointJournal {
  public:
    /** Start a fresh journal (truncates any existing file). */
    static CheckpointJournal create(const std::string& path,
                                    const std::string& fingerprint);

    /**
     * Reopen an existing journal for `--resume`: validates the header
     * fingerprint (FatalError naming both fingerprints on mismatch; a
     * missing file FatalErrors with a hint to run without --resume) and
     * loads the completed set, then reopens for append, cutting a torn
     * last line off first. Other malformed lines name `path:line`.
     */
    static CheckpointJournal resume(const std::string& path,
                                    const std::string& fingerprint);

    CheckpointJournal(CheckpointJournal&&) = default;
    CheckpointJournal& operator=(CheckpointJournal&&) = default;

    /** Entries loaded by resume() (empty for create()). */
    const std::vector<JournalEntry>& resumed() const { return resumed_; }

    /** True when resume() saw a terminal entry for this pair. */
    bool completed(const std::string& pair) const;

    /** Append one entry and flush. */
    void record(const JournalEntry& entry);

    void close();

  private:
    CheckpointJournal() = default;

    std::string path_;
    std::ofstream out_;
    std::vector<JournalEntry> resumed_;
    std::unordered_map<std::string, fault::PairStatus> completed_;
    std::unique_ptr<std::mutex> mutex_ = std::make_unique<std::mutex>();
};

}  // namespace darwin::batch

#endif  // DARWIN_BATCH_CHECKPOINT_H
