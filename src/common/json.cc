#include "common/json.hh"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <limits>

#include "common/logging.hh"

namespace siq::json
{

namespace
{

// whole-token numeric parsing: garbage fatals, never reads as 0

/** Counters are unsigned decimals, so signs (which strtoull would
 *  silently wrap) and overflow are malformed too. */
std::uint64_t
parseU64(const std::string &token)
{
    if (token.empty() ||
        !std::isdigit(static_cast<unsigned char>(token[0])))
        fatal("JSON: malformed integer '", token, "'");
    char *end = nullptr;
    errno = 0;
    const std::uint64_t v = std::strtoull(token.c_str(), &end, 10);
    if (end != token.c_str() + token.size() || errno == ERANGE)
        fatal("JSON: malformed integer '", token, "'");
    return v;
}

std::int64_t
parseI64(const std::string &token)
{
    if (token.empty())
        fatal("JSON: malformed integer '", token, "'");
    char *end = nullptr;
    errno = 0;
    const std::int64_t v = std::strtoll(token.c_str(), &end, 10);
    if (end != token.c_str() + token.size() || errno == ERANGE)
        fatal("JSON: malformed integer '", token, "'");
    return v;
}

double
parseDouble(const std::string &token)
{
    char *end = nullptr;
    errno = 0;
    const double v = std::strtod(token.c_str(), &end);
    if (token.empty() || end != token.c_str() + token.size() ||
        errno == ERANGE)
        fatal("JSON: malformed number '", token, "'");
    return v;
}

} // namespace

std::string
quote(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        switch (c) {
          case '"':
          case '\\':
            out += '\\';
            out += c;
            break;
          // control characters would break single-line (JSONL)
          // framing; escape the ones the parser round-trips
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\b':
            out += "\\b";
            break;
          case '\f':
            out += "\\f";
            break;
          default:
            out += c;
        }
    }
    return out + "\"";
}

const Value &
Value::at(const std::string &key) const
{
    for (const auto &[k, v] : object) {
        if (k == key)
            return v;
    }
    fatal("JSON: missing key '", key, "'");
}

const Value *
Value::find(const std::string &key) const
{
    for (const auto &[k, v] : object) {
        if (k == key)
            return &v;
    }
    return nullptr;
}

std::uint64_t
Value::asU64() const
{
    if (kind != Kind::Number)
        fatal("JSON: expected number");
    return parseU64(token);
}

double
Value::asDouble() const
{
    if (kind != Kind::Number)
        fatal("JSON: expected number");
    return parseDouble(token);
}

int
Value::asInt() const
{
    if (kind != Kind::Number)
        fatal("JSON: expected number");
    const std::int64_t v = parseI64(token);
    if (v < std::numeric_limits<int>::min() ||
        v > std::numeric_limits<int>::max())
        fatal("JSON: integer out of range: ", token);
    return static_cast<int>(v);
}

bool
Value::asBool() const
{
    if (kind != Kind::Bool)
        fatal("JSON: expected boolean");
    return boolean;
}

const std::string &
Value::asString() const
{
    if (kind != Kind::String)
        fatal("JSON: expected string");
    return token;
}

namespace
{

class Parser
{
  public:
    explicit Parser(const std::string &text) : s(text) {}

    Value
    parse()
    {
        Value v = value();
        skipWs();
        if (pos != s.size())
            fatal("JSON: trailing data at offset ", pos);
        return v;
    }

  private:
    void
    skipWs()
    {
        while (pos < s.size() &&
               (s[pos] == ' ' || s[pos] == '\n' || s[pos] == '\t' ||
                s[pos] == '\r'))
            pos++;
    }

    char
    peek()
    {
        skipWs();
        if (pos >= s.size())
            fatal("JSON: unexpected end of input");
        return s[pos];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fatal("JSON: expected '", c, "' at offset ", pos);
        pos++;
    }

    Value
    value()
    {
        // recursive descent over possibly untrusted bytes (the serve
        // daemon feeds socket input here): bound the recursion so a
        // deeply nested '[[[[…' line is a FatalError the request
        // boundary can catch, not a stack overflow
        if (depth >= kMaxDepth)
            fatal("JSON: nesting deeper than ", kMaxDepth,
                  " levels at offset ", pos);
        depth++;
        Value v;
        const char c = peek();
        if (c == '{')
            v = object();
        else if (c == '[')
            v = array();
        else if (c == '"')
            v = string();
        else if (c == 't' || c == 'f')
            v = boolean();
        else if (c == 'n')
            literal("null");
        else
            v = number();
        depth--;
        return v;
    }

    void
    literal(const char *word)
    {
        for (const char *p = word; *p; p++) {
            if (pos >= s.size() || s[pos] != *p)
                fatal("JSON: bad literal at offset ", pos);
            pos++;
        }
    }

    Value
    boolean()
    {
        Value v;
        v.kind = Value::Kind::Bool;
        if (peek() == 't') {
            literal("true");
            v.boolean = true;
        } else {
            literal("false");
        }
        return v;
    }

    Value
    number()
    {
        Value v;
        v.kind = Value::Kind::Number;
        const std::size_t start = pos;
        while (pos < s.size() &&
               (std::isdigit(static_cast<unsigned char>(s[pos])) ||
                s[pos] == '-' || s[pos] == '+' || s[pos] == '.' ||
                s[pos] == 'e' || s[pos] == 'E'))
            pos++;
        if (pos == start)
            fatal("JSON: bad number at offset ", pos);
        v.token = s.substr(start, pos - start);
        return v;
    }

    Value
    string()
    {
        expect('"');
        Value v;
        v.kind = Value::Kind::String;
        while (pos < s.size() && s[pos] != '"') {
            if (s[pos] == '\\') {
                pos++;
                if (pos >= s.size())
                    break;
                switch (s[pos]) {
                  case '"':
                  case '\\':
                  case '/':
                    v.token += s[pos];
                    break;
                  case 'n':
                    v.token += '\n';
                    break;
                  case 't':
                    v.token += '\t';
                    break;
                  case 'r':
                    v.token += '\r';
                    break;
                  case 'b':
                    v.token += '\b';
                    break;
                  case 'f':
                    v.token += '\f';
                    break;
                  default:
                    // \uXXXX and anything else: fail loudly rather
                    // than silently mangling the string
                    fatal("JSON: unsupported escape '\\", s[pos],
                          "' at offset ", pos);
                }
                pos++;
                continue;
            }
            v.token += s[pos++];
        }
        if (pos >= s.size())
            fatal("JSON: unterminated string");
        pos++; // closing quote
        return v;
    }

    Value
    array()
    {
        expect('[');
        Value v;
        v.kind = Value::Kind::Array;
        if (peek() == ']') {
            pos++;
            return v;
        }
        while (true) {
            v.array.push_back(value());
            const char c = peek();
            pos++;
            if (c == ']')
                return v;
            if (c != ',')
                fatal("JSON: expected ',' at offset ", pos - 1);
        }
    }

    Value
    object()
    {
        expect('{');
        Value v;
        v.kind = Value::Kind::Object;
        if (peek() == '}') {
            pos++;
            return v;
        }
        while (true) {
            Value key = string();
            expect(':');
            v.object.emplace_back(key.token, value());
            const char c = peek();
            pos++;
            if (c == '}')
                return v;
            if (c != ',')
                fatal("JSON: expected ',' at offset ", pos - 1);
        }
    }

    static constexpr int kMaxDepth = 256;

    const std::string &s;
    std::size_t pos = 0;
    int depth = 0;
};

} // namespace

Value
parse(const std::string &text)
{
    return Parser(text).parse();
}

} // namespace siq::json
