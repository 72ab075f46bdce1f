/**
 * @file
 * The one JSON reader. Serve requests, trace files and checkpoint
 * journal lines all parse through json::parse and map the Value onto
 * their own schema. Input may come from a socket client or a torn file:
 * every failure is a ParseError carrying the byte offset, nesting is
 * capped so hostile input cannot exhaust the stack, strings reject raw
 * control bytes and `\u` escapes above 0x7F, and as_integer is the one
 * checked narrowing of a number to an integer type.
 */
#ifndef DARWIN_UTIL_JSON_H
#define DARWIN_UTIL_JSON_H

#include <cmath>
#include <cstddef>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace darwin::json {

/** Deepest array/object nesting parse() accepts; our formats use 4. */
inline constexpr int kMaxDepth = 8;

/** Malformed input. what() reads "offset N: <reason>". */
class ParseError : public std::runtime_error {
  public:
    ParseError(std::size_t offset, const std::string& reason);

    std::size_t offset;  ///< the byte at which parsing stopped
};

/** One parsed value; object members keep their file order. */
struct Value {
    enum class Kind { Null, Bool, Number, String, Array, Object };
    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string string;
    std::vector<Value> items;
    std::vector<std::pair<std::string, Value>> members;

    /** The first member named `key`; nullptr when absent or when this
     *  is not an object. */
    const Value* find(std::string_view key) const;
};

/** Parse one complete JSON text; trailing non-space bytes are an error. */
Value parse(std::string_view text);

/**
 * A Number that is exactly an integer representable in T, or nullopt:
 * fractions, values outside T's range (negatives for an unsigned T)
 * and non-numbers are all refused, so no cast is ever out of range.
 */
template <class T>
std::optional<T>
as_integer(const Value& value)
{
    // 2^digits is T's max + 1, exact in a double for every width.
    const double limit =
        std::ldexp(1.0, std::numeric_limits<T>::digits);
    const double low = std::numeric_limits<T>::is_signed ? -limit : 0.0;
    const double x = value.number;
    if (value.kind != Value::Kind::Number || !(x >= low && x < limit) ||
        x != std::trunc(x))
        return std::nullopt;
    return static_cast<T>(x);
}

}  // namespace darwin::json

#endif  // DARWIN_UTIL_JSON_H
