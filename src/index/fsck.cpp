#include "index/fsck.h"

#include <filesystem>
#include <fstream>

#include "batch/checkpoint.h"
#include "fault/cancel.h"
#include "index/format.h"
#include "index/index_io.h"
#include "seq/packed_io.h"
#include "util/artifact.h"
#include "util/logging.h"
#include "util/strings.h"

namespace darwin::index {

namespace {

/**
 * The O(positions) table checks the loaders leave out: within each
 * directory slice the key suffixes ascend and a key's positions
 * ascend, every window lies inside the sequence, and the repeat keys
 * ascend inside the key space. Fatal, tagged with `path`, on the first
 * violation.
 */
void
check_table(const std::string& path, const seed::SeedIndex& index,
            std::uint64_t sequence_length)
{
    const auto fail = [&](const std::string& detail) {
        fatal(strprintf("%s: %s", path.c_str(), detail.c_str()));
    };
    const auto directory = index.directory();
    const auto suffixes = index.suffixes();
    const auto positions = index.positions();
    const std::uint64_t span = index.pattern().span();
    for (std::size_t s = 0; s + 1 < directory.size(); ++s) {
        for (std::uint32_t i = directory[s]; i < directory[s + 1]; ++i) {
            if (positions[i] + span > sequence_length)
                fail(strprintf("position %u lies outside the %llu bp "
                               "sequence",
                               positions[i],
                               static_cast<unsigned long long>(
                                   sequence_length)));
            if (i == directory[s])
                continue;
            const bool same_key =
                suffixes.empty() || suffixes[i] == suffixes[i - 1];
            if (!suffixes.empty() && suffixes[i] < suffixes[i - 1])
                fail(strprintf("key suffixes out of order in directory "
                               "slice %zu",
                               s));
            if (same_key && positions[i] <= positions[i - 1])
                fail(strprintf("positions out of order in directory "
                               "slice %zu",
                               s));
        }
    }
    const auto repeats = index.repeat_keys();
    for (std::size_t i = 0; i < repeats.size(); ++i) {
        if (repeats[i] >= index.pattern().key_space() ||
            (i > 0 && repeats[i] <= repeats[i - 1]))
            fail("repeat keys are not ascending inside the key space");
    }
}

void
check_index(const std::string& path, std::vector<FsckFinding>* findings)
{
    try {
        IndexInfo info;
        const auto index = load_index(path, &info);
        check_table(path, *index, info.sequence_length);
    } catch (const FatalError& e) {
        findings->push_back({path, "bad-index", e.what()});
    }
}

void
check_packed(const std::string& path, std::vector<FsckFinding>* findings)
{
    try {
        seq::load_packed_genome(path);
    } catch (const FatalError& e) {
        findings->push_back({path, "bad-packed", e.what()});
    }
}

/**
 * Runs every line through batch::parse_journal_line and checks that each
 * journaled output exists (its line is written after the rename, so a
 * missing one means a torn artifact set). False, with no findings, when
 * the first line is not a journal header.
 */
bool
check_journal(const std::string& path, std::vector<FsckFinding>* findings)
{
    std::ifstream in(path, std::ios::binary);
    std::string line;
    try {
        if (!std::getline(in, line) ||
            !batch::parse_journal_line(line).header)
            return false;
    } catch (const FatalError&) {
        return false;
    }
    const auto dir = std::filesystem::path(path).parent_path();
    for (std::size_t line_no = 2; std::getline(in, line); ++line_no) {
        if (trim(line).empty())
            continue;
        const auto report = [&](const std::string& detail) {
            findings->push_back(
                {path, "bad-journal",
                 strprintf("line %zu: %s", line_no, detail.c_str())});
        };
        batch::JournalLine parsed;
        try {
            parsed = batch::parse_journal_line(line);
        } catch (const FatalError& error) {
            report(in.eof() ? "torn last line (no newline); --resume "
                              "drops it and reruns its pair"
                            : error.what());
            continue;
        }
        std::error_code ec;
        if (parsed.header)
            report("a second journal header");
        else if (!parsed.entry.output.empty() &&
                 !std::filesystem::exists(dir / parsed.entry.output, ec))
            report(strprintf("journaled output '%s' is missing",
                             parsed.entry.output.c_str()));
    }
    return true;
}

}  // namespace

std::vector<FsckFinding>
fsck_file(const std::string& path, std::string* kind)
{
    fault::poll("index.fsck");
    std::vector<FsckFinding> findings;
    std::string detected = "unknown";

    std::error_code ec;
    if (!std::filesystem::exists(path, ec)) {
        findings.push_back({path, "missing", "no such file"});
        if (kind != nullptr)
            *kind = detected;
        return findings;
    }

    const artifact::Format* format =
        artifact::sniff(path, {&kIndexFormat, &seq::kPackedFormat});
    if (format == &kIndexFormat) {
        detected = "index";
        check_index(path, &findings);
    } else if (format == &seq::kPackedFormat) {
        detected = "packed-genome";
        check_packed(path, &findings);
    } else if (check_journal(path, &findings)) {
        detected = "journal";
    } else {
        findings.push_back(
            {path, "unknown-type",
             "not a .dwi index, .2bit sidecar, or batch journal"});
    }

    if (kind != nullptr)
        *kind = detected;
    return findings;
}

}  // namespace darwin::index
