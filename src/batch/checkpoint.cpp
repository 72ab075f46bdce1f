#include "batch/checkpoint.h"

#include <filesystem>

#include "util/artifact.h"
#include "util/digest.h"
#include "util/json.h"
#include "util/logging.h"
#include "util/strings.h"

namespace darwin::batch {

JournalLine
parse_journal_line(std::string_view line)
{
    json::Value root;
    try {
        root = json::parse(line);
    } catch (const json::ParseError& error) {
        fatal(error.what());
    }
    const auto text = [&root](const char* key) {
        const json::Value* value = root.find(key);
        if (value != nullptr && value->kind != json::Value::Kind::String)
            fatal(strprintf("journal field '%s' is not a string", key));
        return value != nullptr ? value->string : std::string();
    };

    JournalLine out;
    if (root.find("journal") != nullptr) {
        const json::Value* version = root.find("version");
        if (text("journal") != "darwin-wga-batch" || version == nullptr ||
            json::as_integer<int>(*version) != 1)
            fatal("not a darwin-wga-batch version 1 journal header");
        out.header = true;
        out.config = text("config");
        if (out.config.size() != 16 ||
            out.config.find_first_not_of("0123456789abcdefABCDEF") !=
                std::string::npos)
            fatal(strprintf("header carries a malformed config "
                            "fingerprint '%s'",
                            out.config.c_str()));
        return out;
    }
    out.entry.pair = text("pair");
    if (out.entry.pair.empty())
        fatal("journal line without a pair id");
    const std::string status = text("status");
    if (status == "clean")
        out.entry.status = fault::PairStatus::Clean;
    else if (status == "degraded")
        out.entry.status = fault::PairStatus::Degraded;
    else if (status == "quarantined")
        out.entry.status = fault::PairStatus::Quarantined;
    else
        fatal(strprintf("unknown journal status '%s'", status.c_str()));
    out.entry.reason = text("reason");
    out.entry.output = text("output");
    return out;
}

std::string
config_fingerprint(const std::string& canonical_config)
{
    return fingerprint_hex(canonical_config);
}

void
write_file_atomic(const std::string& path, const std::string& content)
{
    artifact::write_atomic(path,
                           [&content](std::ostream& out) { out << content; });
}

CheckpointJournal
CheckpointJournal::create(const std::string& path,
                          const std::string& fingerprint)
{
    CheckpointJournal journal;
    journal.path_ = path;
    journal.out_.open(path, std::ios::trunc);
    if (!journal.out_)
        fatal(strprintf("cannot write journal: %s", path.c_str()));
    journal.out_ << strprintf(
        "{\"journal\":\"darwin-wga-batch\",\"version\":1,"
        "\"config\":\"%s\"}\n",
        fingerprint.c_str());
    journal.out_.flush();
    return journal;
}

CheckpointJournal
CheckpointJournal::resume(const std::string& path,
                          const std::string& fingerprint)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        fatal(strprintf("--resume: no journal at %s (run without --resume "
                        "to start fresh)",
                        path.c_str()));
    }
    // parse_journal_line logs why a first line is not a header.
    std::string line;
    std::getline(in, line);
    JournalLine header;
    try {
        header = parse_journal_line(line);
    } catch (const FatalError&) {
    }
    if (!header.header)
        fatal(strprintf("--resume: %s is not a batch journal",
                        path.c_str()));
    if (header.config != fingerprint) {
        fatal(strprintf("--resume: journal %s was written by an "
                        "incompatible config (journal %s, current %s); "
                        "rerun without --resume or restore the original "
                        "flags",
                        path.c_str(), header.config.c_str(),
                        fingerprint.c_str()));
    }

    CheckpointJournal journal;
    journal.path_ = path;
    bool unterminated = in.eof();  // the last kept line lacks its '\n'
    std::uint64_t complete = line.size() + (unterminated ? 0 : 1);
    for (std::size_t line_no = 2; std::getline(in, line); ++line_no) {
        unterminated = in.eof();
        if (!trim(line).empty()) {
            JournalLine parsed;
            try {
                parsed = parse_journal_line(line);
            } catch (const FatalError& error) {
                if (!unterminated)
                    fatal(strprintf("%s:%zu: %s", path.c_str(), line_no,
                                    error.what()));
                // A torn append: the pair was never journaled.
                warn(strprintf("--resume: %s:%zu: dropping a torn last "
                               "line; its pair reruns",
                               path.c_str(), line_no));
                unterminated = false;
                break;
            }
            if (parsed.header)
                fatal(strprintf("%s:%zu: a second journal header",
                                path.c_str(), line_no));
            journal.completed_[parsed.entry.pair] = parsed.entry.status;
            journal.resumed_.push_back(std::move(parsed.entry));
        }
        complete += line.size() + (unterminated ? 0 : 1);
    }
    in.close();
    // Cut a torn tail off, so the next record starts on its own line.
    std::error_code ec;
    std::filesystem::resize_file(path, complete, ec);
    if (ec)
        fatal(strprintf("cannot truncate journal %s: %s", path.c_str(),
                        ec.message().c_str()));

    journal.out_.open(path, std::ios::app);
    if (!journal.out_)
        fatal(strprintf("cannot append to journal: %s", path.c_str()));
    if (unterminated)
        journal.out_ << '\n';
    return journal;
}

bool
CheckpointJournal::completed(const std::string& pair) const
{
    return completed_.count(pair) != 0;
}

void
CheckpointJournal::record(const JournalEntry& entry)
{
    std::lock_guard<std::mutex> lock(*mutex_);
    if (!out_.is_open())
        return;
    std::string line = strprintf(
        "{\"pair\":%s,\"status\":\"%s\"",
        json_quote(entry.pair).c_str(),
        fault::pair_status_name(entry.status));
    if (!entry.reason.empty())
        line += strprintf(",\"reason\":%s", json_quote(entry.reason).c_str());
    if (!entry.output.empty())
        line += strprintf(",\"output\":%s", json_quote(entry.output).c_str());
    line += "}\n";
    out_ << line;
    out_.flush();
    completed_[entry.pair] = entry.status;
}

void
CheckpointJournal::close()
{
    std::lock_guard<std::mutex> lock(*mutex_);
    if (out_.is_open())
        out_.close();
}

}  // namespace darwin::batch
