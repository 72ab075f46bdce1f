#include "util/json.h"

#include <algorithm>
#include <cctype>
#include <charconv>

#include "util/strings.h"

namespace darwin::json {

ParseError::ParseError(std::size_t offset, const std::string& reason)
    : std::runtime_error(
          strprintf("offset %zu: %s", offset, reason.c_str())),
      offset(offset)
{
}

const Value*
Value::find(std::string_view key) const
{
    for (const auto& [name, value] : members)
        if (name == key)
            return &value;
    return nullptr;
}

namespace {

/** Recursive-descent cursor; `depth` counts open arrays and objects. */
class Reader {
  public:
    explicit Reader(std::string_view text) : text_(text) {}

    Value
    parse_top()
    {
        Value value = parse_value(0);
        skip_ws();
        if (pos_ != text_.size())
            fail("trailing characters after the JSON value");
        return value;
    }

  private:
    [[noreturn]] void
    fail(const std::string& reason) const
    {
        throw ParseError(pos_, reason);
    }

    void
    skip_ws()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
    }

    char
    peek()
    {
        skip_ws();
        if (pos_ >= text_.size())
            fail("unexpected end of input");
        return text_[pos_];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail(strprintf("expected '%c'", c));
        ++pos_;
    }

    /** After an item: true on ',', false on `close`. */
    bool
    next_item(char close)
    {
        if (peek() == ',') {
            ++pos_;
            return true;
        }
        expect(close);
        return false;
    }

    Value
    parse_value(int depth)
    {
        const char c = peek();
        if (c == '{' || c == '[') {
            if (depth == kMaxDepth)
                fail(strprintf("nesting deeper than %d levels", kMaxDepth));
            return parse_container(depth + 1);
        }
        Value value;
        if (c == '"') {
            value.kind = Value::Kind::String;
            value.string = parse_string();
        } else if (c == '-' || (c >= '0' && c <= '9')) {
            value.kind = Value::Kind::Number;
            value.number = parse_number();
        } else if (!consume("null")) {
            value.kind = Value::Kind::Bool;
            value.boolean = consume("true");
            if (!value.boolean && !consume("false"))
                fail("expected a JSON value");
        }
        return value;
    }

    bool
    consume(std::string_view word)
    {
        if (text_.substr(pos_, word.size()) != word)
            return false;
        pos_ += word.size();
        return true;
    }

    /** An object or array; `depth` already counts it. */
    Value
    parse_container(int depth)
    {
        const bool object = text_[pos_++] == '{';
        const char close = object ? '}' : ']';
        Value value;
        value.kind = object ? Value::Kind::Object : Value::Kind::Array;
        if (peek() == close) {
            ++pos_;
            return value;
        }
        do {
            if (!object) {
                value.items.push_back(parse_value(depth));
                continue;
            }
            std::string key = parse_string();
            expect(':');
            value.members.emplace_back(std::move(key), parse_value(depth));
        } while (next_item(close));
        return value;
    }

    std::string
    parse_string()
    {
        expect('"');
        std::string out;
        while (true) {
            if (pos_ >= text_.size())
                fail("unterminated string");
            const char c = text_[pos_++];
            if (c == '"')
                return out;
            if (static_cast<unsigned char>(c) < 0x20)
                fail("unescaped control character in string");
            if (c != '\\') {
                out.push_back(c);
                continue;
            }
            static constexpr std::string_view kEscapes = "\"\\/bfnrt";
            static constexpr std::string_view kDecoded = "\"\\/\b\f\n\r\t";
            const char esc = pos_ < text_.size() ? text_[pos_++] : '\0';
            if (const auto k = kEscapes.find(esc); k != kEscapes.npos) {
                out.push_back(kDecoded[k]);
                continue;
            }
            if (esc != 'u')
                fail("unknown escape");
            unsigned code = 0;
            const char* first = text_.data() + pos_;
            const char* last =
                first + std::min<std::size_t>(4, text_.size() - pos_);
            const auto [end, err] = std::from_chars(first, last, code, 16);
            if (err != std::errc{} || end != first + 4)
                fail("bad \\u escape");
            if (code > 0x7f)
                fail("non-ASCII \\u escapes are not supported");
            pos_ += 4;
            out.push_back(static_cast<char>(code));
        }
    }

    double
    parse_number()
    {
        const std::size_t start = pos_;
        pos_ = std::min(text_.size(),
                        text_.find_first_not_of("0123456789.eE+-", pos_ + 1));
        double number = 0.0;
        const char* last = text_.data() + pos_;
        const auto [end, err] =
            std::from_chars(text_.data() + start, last, number);
        if (err == std::errc::result_out_of_range)
            fail("number out of range");
        if (err != std::errc{} || end != last)
            fail("malformed number");
        return number;
    }

    std::string_view text_;
    std::size_t pos_ = 0;
};

}  // namespace

Value
parse(std::string_view text)
{
    return Reader(text).parse_top();
}

}  // namespace darwin::json
