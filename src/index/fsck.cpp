#include "index/fsck.h"

#include <cctype>
#include <filesystem>
#include <fstream>

#include "fault/cancel.h"
#include "index/index_io.h"
#include "seq/packed_io.h"
#include "util/logging.h"
#include "util/strings.h"

namespace darwin::index {

namespace {

/** Non-escaping `"key":"value"` scan — exact for the journal format,
 *  whose writer quotes only names validated to exclude specials. */
std::string
json_field(const std::string& line, const std::string& key)
{
    const std::string needle = "\"" + key + "\":\"";
    const auto at = line.find(needle);
    if (at == std::string::npos)
        return "";
    const auto begin = at + needle.size();
    const auto end = line.find('"', begin);
    if (end == std::string::npos)
        return "";
    return line.substr(begin, end - begin);
}

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
        const IndexInfo info = read_index_info(path);
        check_table(path, *load_index(path), info.sequence_length);
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

bool
is_hex(const std::string& text)
{
    if (text.empty())
        return false;
    for (const char c : text) {
        if (std::isxdigit(static_cast<unsigned char>(c)) == 0)
            return false;
    }
    return true;
}

void
check_journal(const std::string& path,
              std::vector<FsckFinding>* findings)
{
    std::ifstream in(path);
    if (!in) {
        findings->push_back({path, "bad-journal", "cannot open"});
        return;
    }
    std::string line;
    std::getline(in, line);  // header, already sniffed by the caller
    const std::string config = json_field(line, "config");
    if (!is_hex(config) || config.size() != 16) {
        findings->push_back(
            {path, "bad-journal",
             strprintf("header carries a malformed config fingerprint "
                       "'%s'",
                       config.c_str())});
    }
    std::size_t line_no = 1;
    while (std::getline(in, line)) {
        ++line_no;
        if (trim(line).empty())
            continue;
        if (json_field(line, "pair").empty()) {
            findings->push_back(
                {path, "bad-journal",
                 strprintf("line %zu: entry without a pair id",
                           line_no)});
            continue;
        }
        const std::string status = json_field(line, "status");
        if (status != "clean" && status != "degraded" &&
            status != "quarantined") {
            findings->push_back(
                {path, "bad-journal",
                 strprintf("line %zu: unknown status '%s'", line_no,
                           status.c_str())});
            continue;
        }
        // A journaled output must exist: the journal line is written
        // only after the output's rename, so a missing file means the
        // artifact set is torn.
        const std::string output = json_field(line, "output");
        if (!output.empty()) {
            const auto dir =
                std::filesystem::path(path).parent_path();
            std::error_code ec;
            if (!std::filesystem::exists(dir / output, ec)) {
                findings->push_back(
                    {path, "bad-journal",
                     strprintf("line %zu: journaled output '%s' is "
                               "missing",
                               line_no, output.c_str())});
            }
        }
    }
}

bool
is_journal_file(const std::string& path)
{
    std::ifstream in(path);
    if (!in)
        return false;
    std::string line;
    if (!std::getline(in, line))
        return false;
    return json_field(line, "journal") == "darwin-wga-batch";
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

    if (is_index_file(path)) {
        detected = "index";
        check_index(path, &findings);
    } else if (seq::is_packed_file(path)) {
        detected = "packed-genome";
        check_packed(path, &findings);
    } else if (is_journal_file(path)) {
        detected = "journal";
        check_journal(path, &findings);
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
