#include "util/args.h"

#include <charconv>
#include <cstdio>

#include "util/logging.h"
#include "util/strings.h"

namespace darwin {

ArgParser::ArgParser(std::string description)
    : description_(std::move(description))
{
}

void
ArgParser::add_option(const std::string& name,
                      const std::string& default_value,
                      const std::string& help)
{
    require(!options_.count(name), "ArgParser: duplicate option");
    options_[name] = Option{default_value, help, false};
    order_.push_back(name);
}

void
ArgParser::add_flag(const std::string& name, const std::string& help)
{
    require(!options_.count(name), "ArgParser: duplicate flag");
    options_[name] = Option{"false", help, true};
    order_.push_back(name);
}

bool
ArgParser::parse(int argc, const char* const* argv)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            std::fputs(usage(argv[0]).c_str(), stdout);
            return false;
        }
        if (!starts_with(arg, "--")) {
            positional_.push_back(arg);
            continue;
        }
        std::string name = arg.substr(2);
        std::string value;
        bool has_value = false;
        const auto eq = name.find('=');
        if (eq != std::string::npos) {
            value = name.substr(eq + 1);
            name = name.substr(0, eq);
            has_value = true;
        }
        const auto it = options_.find(name);
        if (it == options_.end()) {
            std::fprintf(stderr, "unknown option --%s\n", name.c_str());
            std::fputs(usage(argv[0]).c_str(), stderr);
            return false;
        }
        if (it->second.is_flag) {
            values_[name] = has_value ? value : "true";
        } else if (has_value) {
            values_[name] = value;
        } else if (i + 1 < argc) {
            values_[name] = argv[++i];
        } else {
            std::fprintf(stderr, "option --%s needs a value\n", name.c_str());
            return false;
        }
    }
    return true;
}

std::string
ArgParser::get(const std::string& name) const
{
    const auto value_it = values_.find(name);
    if (value_it != values_.end())
        return value_it->second;
    const auto opt_it = options_.find(name);
    require(opt_it != options_.end(), "ArgParser: unregistered option read");
    return opt_it->second.default_value;
}

namespace {

/** Parse all of `text` as a T; FatalError naming the option otherwise. */
template <class T>
T
parse_number(const std::string& name, const std::string& text,
             const char* kind)
{
    T value{};
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (ec == std::errc::result_out_of_range)
        fatal(strprintf("option --%s: '%s' is out of range", name.c_str(),
                        text.c_str()));
    if (ec != std::errc() || ptr != end)
        fatal(strprintf("option --%s: '%s' is not %s", name.c_str(),
                        text.c_str(), kind));
    return value;
}

}  // namespace

std::int64_t
ArgParser::get_int(const std::string& name) const
{
    return parse_number<std::int64_t>(name, get(name), "an integer");
}

std::uint64_t
ArgParser::get_uint(const std::string& name) const
{
    const std::int64_t value = get_int(name);
    if (value < 0)
        fatal(strprintf("option --%s: '%s' must not be negative",
                        name.c_str(), get(name).c_str()));
    return static_cast<std::uint64_t>(value);
}

double
ArgParser::get_double(const std::string& name) const
{
    return parse_number<double>(name, get(name), "a number");
}

bool
ArgParser::get_flag(const std::string& name) const
{
    const std::string v = get(name);
    return v == "true" || v == "1" || v == "yes";
}

std::string
ArgParser::usage(const std::string& program) const
{
    std::string out = description_ + "\n\nusage: " + program + " [options]\n";
    for (const auto& name : order_) {
        const Option& opt = options_.at(name);
        out += strprintf("  --%-24s %s", name.c_str(), opt.help.c_str());
        if (!opt.is_flag)
            out += strprintf(" (default: %s)", opt.default_value.c_str());
        out += "\n";
    }
    return out;
}

}  // namespace darwin
