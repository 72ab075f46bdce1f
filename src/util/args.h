/**
 * @file
 * A small command-line argument parser used by the examples and bench
 * binaries. Supports --name=value, --name value, and boolean --flag forms,
 * typed accessors with defaults, and automatic --help text.
 */
#ifndef DARWIN_UTIL_ARGS_H
#define DARWIN_UTIL_ARGS_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace darwin {

/** Declarative option set plus parsed values. */
class ArgParser {
  public:
    /** @param description One-line program description for --help. */
    explicit ArgParser(std::string description);

    /** Register an option with a default value and help text. */
    void add_option(const std::string& name, const std::string& default_value,
                    const std::string& help);

    /** Register a boolean flag (default false). */
    void add_flag(const std::string& name, const std::string& help);

    /**
     * Parse argv. Returns false (after printing usage) if --help was given
     * or an unknown/malformed option was seen.
     */
    bool parse(int argc, const char* const* argv);

    /**
     * Typed accessors; fall back to the registered default. The numeric
     * ones read the whole value strictly: non-numeric text, trailing
     * characters or an out-of-range number is a FatalError naming the
     * option.
     */
    std::string get(const std::string& name) const;
    std::int64_t get_int(const std::string& name) const;
    /** get_int for counts and sizes: a negative value is an error too. */
    std::uint64_t get_uint(const std::string& name) const;
    double get_double(const std::string& name) const;
    bool get_flag(const std::string& name) const;

    /** Positional (non-option) arguments in order. */
    const std::vector<std::string>& positional() const { return positional_; }

    /** Render the usage/help text. */
    std::string usage(const std::string& program) const;

  private:
    struct Option {
        std::string default_value;
        std::string help;
        bool is_flag = false;
    };

    std::string description_;
    std::vector<std::string> order_;
    std::map<std::string, Option> options_;
    std::map<std::string, std::string> values_;
    std::vector<std::string> positional_;
};

}  // namespace darwin

#endif  // DARWIN_UTIL_ARGS_H
