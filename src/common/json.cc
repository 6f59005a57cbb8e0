#include "common/json.hh"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace upc780::json
{

Value::Value(uint64_t u)
{
    if (u <= uint64_t{INT64_MAX}) {
        type_ = Type::Int;
        int_ = static_cast<int64_t>(u);
    } else {
        type_ = Type::Double;
        dbl_ = static_cast<double>(u);
    }
}

Value::Value(Array a)
    : type_(Type::ArrayT), arr_(std::make_unique<Array>(std::move(a)))
{}

Value::Value(Members m)
    : type_(Type::Object), obj_(std::make_unique<Members>(std::move(m)))
{}

Value::~Value() = default;

Value &
Value::operator=(const Value &o)
{
    if (this == &o)
        return *this;
    type_ = o.type_;
    bool_ = o.bool_;
    int_ = o.int_;
    dbl_ = o.dbl_;
    str_ = o.str_;
    arr_ = o.arr_ ? std::make_unique<Array>(*o.arr_) : nullptr;
    obj_ = o.obj_ ? std::make_unique<Members>(*o.obj_) : nullptr;
    return *this;
}

namespace
{

const char *
typeName(Type t)
{
    switch (t) {
    case Type::Null: return "null";
    case Type::Bool: return "bool";
    case Type::Int: return "int";
    case Type::Double: return "double";
    case Type::String: return "string";
    case Type::ArrayT: return "array";
    case Type::Object: return "object";
    }
    return "?";
}

[[noreturn]] void
typeError(const char *want, Type got)
{
    sim_throw(ConfigError, "json: expected %s, got %s", want,
              typeName(got));
}

} // namespace

bool
Value::asBool() const
{
    if (!isBool())
        typeError("bool", type_);
    return bool_;
}

int64_t
Value::asInt() const
{
    if (!isInt())
        typeError("integer", type_);
    return int_;
}

uint64_t
Value::asUint() const
{
    if (!isInt() || int_ < 0)
        typeError("unsigned integer", type_);
    return static_cast<uint64_t>(int_);
}

double
Value::asDouble() const
{
    if (isInt())
        return static_cast<double>(int_);
    if (type_ != Type::Double)
        typeError("number", type_);
    return dbl_;
}

const std::string &
Value::asString() const
{
    if (!isString())
        typeError("string", type_);
    return str_;
}

const Array &
Value::asArray() const
{
    if (!isArray())
        typeError("array", type_);
    return *arr_;
}

const Members &
Value::asObject() const
{
    if (!isObject())
        typeError("object", type_);
    return *obj_;
}

const Value *
Value::find(const std::string &key) const
{
    if (!isObject())
        return nullptr;
    for (const auto &[k, v] : *obj_)
        if (k == key)
            return &v;
    return nullptr;
}

void
Value::set(const std::string &key, Value v)
{
    if (!isObject()) {
        type_ = Type::Object;
        obj_ = std::make_unique<Members>();
    }
    obj_->emplace_back(key, std::move(v));
}

void
Value::push(Value v)
{
    if (!isArray()) {
        type_ = Type::ArrayT;
        arr_ = std::make_unique<Array>();
    }
    arr_->push_back(std::move(v));
}

Value
object()
{
    return Value(Members{});
}

Value
array()
{
    return Value(Array{});
}

namespace
{

/** Append @p s as a JSON string literal, quotes included. */
void
appendQuoted(std::string &out, const std::string &s)
{
    out.push_back('"');
    for (unsigned char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\b': out += "\\b"; break;
        case '\f': out += "\\f"; break;
        case '\n': out += "\\n"; break;
        case '\r': out += "\\r"; break;
        case '\t': out += "\\t"; break;
        default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out.push_back(static_cast<char>(c));
            }
        }
    }
    out.push_back('"');
}

void
newline(std::string &out, int level)
{
    out.push_back('\n');
    out.append(2 * static_cast<size_t>(level), ' ');
}

} // namespace

void
Value::write(std::string &out, int level) const
{
    const bool pretty = level >= 0;
    const int inner = pretty ? level + 1 : -1;
    char buf[40];
    switch (type_) {
    case Type::Null:
        out += "null";
        break;
    case Type::Bool:
        out += bool_ ? "true" : "false";
        break;
    case Type::Int:
        std::snprintf(buf, sizeof(buf), "%lld",
                      static_cast<long long>(int_));
        out += buf;
        break;
    case Type::Double:
        if (std::isfinite(dbl_)) {
            std::snprintf(buf, sizeof(buf), "%.17g", dbl_);
            out += buf;
        } else {
            out += "null"; // JSON has no Inf/NaN
        }
        break;
    case Type::String:
        appendQuoted(out, str_);
        break;
    case Type::ArrayT: {
        out.push_back('[');
        bool first = true;
        for (const Value &v : *arr_) {
            if (!first)
                out.push_back(',');
            first = false;
            if (pretty)
                newline(out, inner);
            v.write(out, inner);
        }
        if (pretty && !first)
            newline(out, level);
        out.push_back(']');
        break;
    }
    case Type::Object: {
        out.push_back('{');
        bool first = true;
        for (const auto &[k, v] : *obj_) {
            if (!first)
                out.push_back(',');
            first = false;
            if (pretty)
                newline(out, inner);
            appendQuoted(out, k);
            out += pretty ? ": " : ":";
            v.write(out, inner);
        }
        if (pretty && !first)
            newline(out, level);
        out.push_back('}');
        break;
    }
    }
}

std::string
Value::dump() const
{
    std::string out;
    write(out, -1);
    return out;
}

std::string
Value::dumpPretty() const
{
    std::string out;
    write(out, 0);
    out.push_back('\n');
    return out;
}

// ----- parser ----------------------------------------------------------

namespace
{

class Parser
{
  public:
    Parser(const std::string &text, size_t maxDepth)
        : s_(text), maxDepth_(maxDepth)
    {}

    Value
    parseDocument()
    {
        Value v = parseValue(0);
        skipWs();
        if (pos_ != s_.size())
            fail("trailing garbage after document");
        return v;
    }

  private:
    [[noreturn]] void
    fail(const char *what) const
    {
        sim_throw(ConfigError, "json parse error at offset %zu: %s",
                  pos_, what);
    }

    void
    skipWs()
    {
        while (pos_ < s_.size()) {
            const char c = s_[pos_];
            if (c != ' ' && c != '\t' && c != '\n' && c != '\r')
                break;
            ++pos_;
        }
    }

    char
    peek()
    {
        if (pos_ >= s_.size())
            fail("unexpected end of input");
        return s_[pos_];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail("unexpected character");
        ++pos_;
    }

    bool
    consume(const char *lit)
    {
        const size_t n = std::strlen(lit);
        if (s_.compare(pos_, n, lit) != 0)
            return false;
        pos_ += n;
        return true;
    }

    Value
    parseValue(size_t depth)
    {
        if (depth > maxDepth_)
            fail("nesting too deep");
        skipWs();
        const char c = peek();
        switch (c) {
        case '{': return parseObject(depth);
        case '[': return parseArray(depth);
        case '"': return Value(parseString());
        case 't':
            if (consume("true"))
                return Value(true);
            fail("bad literal");
        case 'f':
            if (consume("false"))
                return Value(false);
            fail("bad literal");
        case 'n':
            if (consume("null"))
                return Value(nullptr);
            fail("bad literal");
        default:
            return parseNumber();
        }
    }

    Value
    parseObject(size_t depth)
    {
        expect('{');
        Members m;
        skipWs();
        if (peek() == '}') {
            ++pos_;
            return Value(std::move(m));
        }
        for (;;) {
            skipWs();
            if (peek() != '"')
                fail("expected member name");
            std::string key = parseString();
            skipWs();
            expect(':');
            m.emplace_back(std::move(key), parseValue(depth + 1));
            skipWs();
            const char e = peek();
            if (e == ',') {
                ++pos_;
                continue;
            }
            if (e == '}') {
                ++pos_;
                return Value(std::move(m));
            }
            fail("expected ',' or '}'");
        }
    }

    Value
    parseArray(size_t depth)
    {
        expect('[');
        Array a;
        skipWs();
        if (peek() == ']') {
            ++pos_;
            return Value(std::move(a));
        }
        for (;;) {
            a.push_back(parseValue(depth + 1));
            skipWs();
            const char e = peek();
            if (e == ',') {
                ++pos_;
                continue;
            }
            if (e == ']') {
                ++pos_;
                return Value(std::move(a));
            }
            fail("expected ',' or ']'");
        }
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        for (;;) {
            if (pos_ >= s_.size())
                fail("unterminated string");
            const unsigned char c =
                static_cast<unsigned char>(s_[pos_++]);
            if (c == '"')
                return out;
            if (c < 0x20)
                fail("raw control character in string");
            if (c != '\\') {
                out.push_back(static_cast<char>(c));
                continue;
            }
            if (pos_ >= s_.size())
                fail("unterminated escape");
            const char e = s_[pos_++];
            switch (e) {
            case '"': out.push_back('"'); break;
            case '\\': out.push_back('\\'); break;
            case '/': out.push_back('/'); break;
            case 'b': out.push_back('\b'); break;
            case 'f': out.push_back('\f'); break;
            case 'n': out.push_back('\n'); break;
            case 'r': out.push_back('\r'); break;
            case 't': out.push_back('\t'); break;
            case 'u': {
                uint32_t cp = parseHex4();
                // Surrogate pair: accept and combine; a lone
                // surrogate is an error.
                if (cp >= 0xd800 && cp <= 0xdbff) {
                    if (pos_ + 1 >= s_.size() || s_[pos_] != '\\' ||
                        s_[pos_ + 1] != 'u')
                        fail("unpaired surrogate");
                    pos_ += 2;
                    const uint32_t lo = parseHex4();
                    if (lo < 0xdc00 || lo > 0xdfff)
                        fail("bad low surrogate");
                    cp = 0x10000 + ((cp - 0xd800) << 10) + (lo - 0xdc00);
                } else if (cp >= 0xdc00 && cp <= 0xdfff) {
                    fail("unpaired surrogate");
                }
                appendUtf8(out, cp);
                break;
            }
            default:
                fail("bad escape character");
            }
        }
    }

    uint32_t
    parseHex4()
    {
        uint32_t v = 0;
        for (int i = 0; i < 4; ++i) {
            if (pos_ >= s_.size())
                fail("truncated \\u escape");
            const char c = s_[pos_++];
            v <<= 4;
            if (c >= '0' && c <= '9')
                v |= static_cast<uint32_t>(c - '0');
            else if (c >= 'a' && c <= 'f')
                v |= static_cast<uint32_t>(c - 'a' + 10);
            else if (c >= 'A' && c <= 'F')
                v |= static_cast<uint32_t>(c - 'A' + 10);
            else
                fail("bad hex digit in \\u escape");
        }
        return v;
    }

    static void
    appendUtf8(std::string &out, uint32_t cp)
    {
        if (cp < 0x80) {
            out.push_back(static_cast<char>(cp));
        } else if (cp < 0x800) {
            out.push_back(static_cast<char>(0xc0 | (cp >> 6)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3f)));
        } else if (cp < 0x10000) {
            out.push_back(static_cast<char>(0xe0 | (cp >> 12)));
            out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3f)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3f)));
        } else {
            out.push_back(static_cast<char>(0xf0 | (cp >> 18)));
            out.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3f)));
            out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3f)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3f)));
        }
    }

    Value
    parseNumber()
    {
        const size_t start = pos_;
        if (peek() == '-')
            ++pos_;
        if (pos_ >= s_.size() || !isDigit(s_[pos_]))
            fail("bad number");
        while (pos_ < s_.size() && isDigit(s_[pos_]))
            ++pos_;
        bool integral = true;
        if (pos_ < s_.size() && s_[pos_] == '.') {
            integral = false;
            ++pos_;
            if (pos_ >= s_.size() || !isDigit(s_[pos_]))
                fail("bad fraction");
            while (pos_ < s_.size() && isDigit(s_[pos_]))
                ++pos_;
        }
        if (pos_ < s_.size() && (s_[pos_] == 'e' || s_[pos_] == 'E')) {
            integral = false;
            ++pos_;
            if (pos_ < s_.size() && (s_[pos_] == '+' || s_[pos_] == '-'))
                ++pos_;
            if (pos_ >= s_.size() || !isDigit(s_[pos_]))
                fail("bad exponent");
            while (pos_ < s_.size() && isDigit(s_[pos_]))
                ++pos_;
        }
        const std::string tok = s_.substr(start, pos_ - start);
        if (integral) {
            errno = 0;
            char *end = nullptr;
            const long long v = std::strtoll(tok.c_str(), &end, 10);
            if (errno == 0 && end && *end == '\0')
                return Value(int64_t{v});
            // Out of int64 range: fall through to double.
        }
        errno = 0;
        const double d = std::strtod(tok.c_str(), nullptr);
        return Value(d);
    }

    static bool isDigit(char c) { return c >= '0' && c <= '9'; }

    const std::string &s_;
    size_t pos_ = 0;
    size_t maxDepth_;
};

} // namespace

Value
parse(const std::string &text, size_t maxDepth, size_t maxBytes)
{
    if (text.size() > maxBytes)
        sim_throw(ConfigError, "json document too large: %zu bytes "
                  "(cap %zu)", text.size(), maxBytes);
    return Parser(text, maxDepth).parseDocument();
}

} // namespace upc780::json
