#include "common/json.hh"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

namespace commguard
{

namespace
{

void
writeEscaped(std::ostream &os, const std::string &text)
{
    os << '"';
    for (const char c : text) {
        switch (c) {
          case '"': os << "\\\""; break;
          case '\\': os << "\\\\"; break;
          case '\n': os << "\\n"; break;
          case '\r': os << "\\r"; break;
          case '\t': os << "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                os << buf;
            } else {
                os << c;
            }
        }
    }
    os << '"';
}

/** Shortest-exact double form (round-trips via strtod). */
void
writeDouble(std::ostream &os, double value)
{
    if (!std::isfinite(value)) {
        // JSON has no Infinity/NaN literals; non-finite doubles are
        // emitted as tagged strings and mapped back by the consumers
        // that expect them (metric snapshots, quality gauges).
        os << (std::isnan(value) ? "\"nan\""
                                 : (value > 0 ? "\"inf\"" : "\"-inf\""));
        return;
    }
    char buf[40];
    for (const int precision : {15, 16, 17}) {
        std::snprintf(buf, sizeof(buf), "%.*g", precision, value);
        if (std::strtod(buf, nullptr) == value)
            break;
    }
    os << buf;
}

// ------------------------------------------------------------------
// Recursive-descent parser.
// ------------------------------------------------------------------

/** Deepest array/object nesting parse() accepts: recursion depth is
 *  bounded, so hostile input cannot overflow the stack. */
constexpr int kMaxDepth = 256;

struct Parser
{
    const std::string &text;
    std::size_t pos = 0;
    std::string error;
    int depth = 0;

    bool
    fail(const std::string &message)
    {
        if (error.empty()) {
            error = message + " at offset " + std::to_string(pos);
        }
        return false;
    }

    void
    skipSpace()
    {
        while (pos < text.size() &&
               std::isspace(static_cast<unsigned char>(text[pos])))
            ++pos;
    }

    bool
    consume(char c)
    {
        skipSpace();
        if (pos < text.size() && text[pos] == c) {
            ++pos;
            return true;
        }
        return false;
    }

    bool
    literal(const char *word)
    {
        const std::size_t n = std::char_traits<char>::length(word);
        if (text.compare(pos, n, word) != 0)
            return false;
        pos += n;
        return true;
    }

    bool
    parseString(std::string &out)
    {
        if (!consume('"'))
            return fail("expected string");
        out.clear();
        while (pos < text.size()) {
            const char c = text[pos++];
            if (c == '"')
                return true;
            if (c != '\\') {
                out.push_back(c);
                continue;
            }
            if (pos >= text.size())
                break;
            const char esc = text[pos++];
            switch (esc) {
              case '"': out.push_back('"'); break;
              case '\\': out.push_back('\\'); break;
              case '/': out.push_back('/'); break;
              case 'n': out.push_back('\n'); break;
              case 'r': out.push_back('\r'); break;
              case 't': out.push_back('\t'); break;
              case 'b': out.push_back('\b'); break;
              case 'f': out.push_back('\f'); break;
              case 'u': {
                if (pos + 4 > text.size())
                    return fail("truncated \\u escape");
                const std::string hex = text.substr(pos, 4);
                pos += 4;
                const long code = std::strtol(hex.c_str(), nullptr, 16);
                // Basic-multilingual-plane code points only; enough
                // for the ASCII control characters we emit.
                if (code < 0x80) {
                    out.push_back(static_cast<char>(code));
                } else if (code < 0x800) {
                    out.push_back(
                        static_cast<char>(0xC0 | (code >> 6)));
                    out.push_back(
                        static_cast<char>(0x80 | (code & 0x3F)));
                } else {
                    out.push_back(
                        static_cast<char>(0xE0 | (code >> 12)));
                    out.push_back(static_cast<char>(
                        0x80 | ((code >> 6) & 0x3F)));
                    out.push_back(
                        static_cast<char>(0x80 | (code & 0x3F)));
                }
                break;
              }
              default: return fail("bad escape");
            }
        }
        return fail("unterminated string");
    }

    bool
    parseNumber(Json &out)
    {
        const std::size_t start = pos;
        if (pos < text.size() && (text[pos] == '-' || text[pos] == '+'))
            ++pos;
        bool integral = true;
        while (pos < text.size()) {
            const char c = text[pos];
            if (std::isdigit(static_cast<unsigned char>(c))) {
                ++pos;
            } else if (c == '.' || c == 'e' || c == 'E' || c == '+' ||
                       c == '-') {
                integral = false;
                ++pos;
            } else {
                break;
            }
        }
        const std::string token = text.substr(start, pos - start);
        if (token.empty())
            return fail("expected number");
        if (integral) {
            errno = 0;
            if (token[0] == '-') {
                const std::int64_t v =
                    std::strtoll(token.c_str(), nullptr, 10);
                if (errno != ERANGE) {
                    out = Json(v);
                    return true;
                }
            } else {
                const Count v =
                    std::strtoull(token.c_str(), nullptr, 10);
                if (errno != ERANGE) {
                    out = Json(v);
                    return true;
                }
            }
        }
        out = Json(std::strtod(token.c_str(), nullptr));
        return true;
    }

    bool
    parseValue(Json &out)
    {
        skipSpace();
        if (pos >= text.size())
            return fail("unexpected end of input");
        const char c = text[pos];
        if ((c == '{' || c == '[') && depth >= kMaxDepth)
            return fail("nesting deeper than " + std::to_string(kMaxDepth));
        if (c == '{') {
            ++pos;
            Json::Object object;
            skipSpace();
            if (consume('}')) {
                out = Json(std::move(object));
                return true;
            }
            ++depth;
            while (true) {
                skipSpace();
                std::string key;
                if (!parseString(key))
                    return false;
                if (!consume(':'))
                    return fail("expected ':'");
                Json value;
                if (!parseValue(value))
                    return false;
                object.emplace(std::move(key), std::move(value));
                if (consume(','))
                    continue;
                if (consume('}'))
                    break;
                return fail("expected ',' or '}'");
            }
            --depth;
            out = Json(std::move(object));
            return true;
        }
        if (c == '[') {
            ++pos;
            Json::Array array;
            skipSpace();
            if (consume(']')) {
                out = Json(std::move(array));
                return true;
            }
            ++depth;
            while (true) {
                Json value;
                if (!parseValue(value))
                    return false;
                array.push_back(std::move(value));
                if (consume(','))
                    continue;
                if (consume(']'))
                    break;
                return fail("expected ',' or ']'");
            }
            --depth;
            out = Json(std::move(array));
            return true;
        }
        if (c == '"') {
            std::string s;
            if (!parseString(s))
                return false;
            out = Json(std::move(s));
            return true;
        }
        if (literal("true")) {
            out = Json(true);
            return true;
        }
        if (literal("false")) {
            out = Json(false);
            return true;
        }
        if (literal("null")) {
            out = Json(nullptr);
            return true;
        }
        return parseNumber(out);
    }
};

} // namespace

double
Json::number() const
{
    if (holds<double>())
        return std::get<double>(_value);
    if (holds<Count>())
        return static_cast<double>(std::get<Count>(_value));
    return static_cast<double>(std::get<std::int64_t>(_value));
}

namespace
{

/** 2^64: the first double a Count cannot hold. */
constexpr double kCountLimit = 18446744073709551616.0;

} // namespace

Count
Json::counter() const
{
    if (holds<Count>())
        return std::get<Count>(_value);
    if (holds<std::int64_t>()) {
        const std::int64_t v = std::get<std::int64_t>(_value);
        return v < 0 ? 0 : static_cast<Count>(v);
    }
    // Converting an out-of-range double is undefined behaviour; clamp
    // first (this also maps NaN to 0).
    const double v = std::get<double>(_value);
    if (!(v > 0.0))
        return 0;
    return v >= kCountLimit ? ~Count{0} : static_cast<Count>(v);
}

bool
Json::isCount() const
{
    if (holds<Count>())
        return true;
    if (holds<std::int64_t>())
        return std::get<std::int64_t>(_value) >= 0;
    if (!holds<double>())
        return false;
    const double v = std::get<double>(_value);
    return v >= 0.0 && v < kCountLimit && std::floor(v) == v;
}

const Json *
Json::find(const std::string &key) const
{
    if (!isObject())
        return nullptr;
    const auto it = obj().find(key);
    return it == obj().end() ? nullptr : &it->second;
}

void
Json::write(std::ostream &os) const
{
    if (isNull()) {
        os << "null";
    } else if (isBool()) {
        os << (boolean() ? "true" : "false");
    } else if (holds<Count>()) {
        os << std::get<Count>(_value);
    } else if (holds<std::int64_t>()) {
        os << std::get<std::int64_t>(_value);
    } else if (holds<double>()) {
        writeDouble(os, std::get<double>(_value));
    } else if (isString()) {
        writeEscaped(os, str());
    } else if (isArray()) {
        os << '[';
        bool first = true;
        for (const Json &item : arr()) {
            if (!first)
                os << ',';
            first = false;
            item.write(os);
        }
        os << ']';
    } else {
        os << '{';
        bool first = true;
        for (const auto &[key, value] : obj()) {
            if (!first)
                os << ',';
            first = false;
            writeEscaped(os, key);
            os << ':';
            value.write(os);
        }
        os << '}';
    }
}

std::string
Json::dump() const
{
    std::ostringstream os;
    write(os);
    return os.str();
}

bool
Json::parse(const std::string &text, Json &out, std::string *error)
{
    Parser parser{text};
    if (!parser.parseValue(out)) {
        if (error)
            *error = parser.error;
        return false;
    }
    parser.skipSpace();
    if (parser.pos != text.size()) {
        if (error)
            *error = "trailing garbage at offset " +
                     std::to_string(parser.pos);
        return false;
    }
    return true;
}

bool
Json::operator==(const Json &other) const
{
    // Numbers compare by value across representations so that a
    // parsed document equals the one that produced it.
    if (isNumber() && other.isNumber()) {
        if (holds<Count>() && other.holds<Count>())
            return std::get<Count>(_value) ==
                   std::get<Count>(other._value);
        return number() == other.number();
    }
    return _value == other._value;
}

} // namespace commguard
