/**
 * @file
 * The repository's one JSON codec: a value type, a recursive-descent
 * parser, and a writer with two layouts of the same tokens. Every
 * JSON document the simulator, its tools, benches and tests write or
 * read goes through it (DESIGN.md §16 lists them).
 *
 * The parser is fully bounds-checked, throws a typed ConfigError on
 * any malformed input (never crashes, never reads past the buffer —
 * the admission fuzz tests feed it truncated and bit-flipped
 * requests), caps nesting depth and size, and keeps every number as
 * both a double and, when exact, a 64-bit integer so cycle-scale
 * counts round-trip without loss. The writer escapes every string.
 *
 * dump() emits the canonical single-line form: object members in
 * insertion order, no insignificant whitespace, integers rendered as
 * integers, doubles via %.17g. The daemon's determinism contract
 * extends to the wire — the same composite serializes to the same
 * bytes — which is what lets the result cache store reply bodies
 * verbatim and the tests compare cold runs against cache hits with
 * memcmp. dumpPretty() indents the same tokens for committed files.
 */

#ifndef UPC780_COMMON_JSON_HH
#define UPC780_COMMON_JSON_HH

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hh"

namespace upc780::json
{

class Value;

using Array = std::vector<Value>;
/** Insertion-ordered object: vector of pairs, first-key-wins lookup. */
using Members = std::vector<std::pair<std::string, Value>>;

enum class Type : uint8_t
{
    Null,
    Bool,
    Int,    //!< number that is exactly a 64-bit signed integer
    Double, //!< any other number
    String,
    ArrayT,
    Object,
};

/** One JSON value (tree-owned; copies are deep). */
class Value
{
  public:
    Value() = default;
    Value(std::nullptr_t) {}
    Value(bool b) : type_(Type::Bool), bool_(b) {}
    Value(int64_t i) : type_(Type::Int), int_(i) {}
    Value(uint64_t u);
    Value(int i) : Value(int64_t{i}) {}
    Value(double d) : type_(Type::Double), dbl_(d) {}
    Value(std::string s) : type_(Type::String), str_(std::move(s)) {}
    Value(const char *s) : Value(std::string(s)) {}
    Value(Array a);
    Value(Members m);

    Type type() const { return type_; }
    bool isNull() const { return type_ == Type::Null; }
    bool isBool() const { return type_ == Type::Bool; }
    bool isInt() const { return type_ == Type::Int; }
    bool isNumber() const { return isInt() || type_ == Type::Double; }
    bool isString() const { return type_ == Type::String; }
    bool isArray() const { return type_ == Type::ArrayT; }
    bool isObject() const { return type_ == Type::Object; }

    /** Typed accessors; ConfigError on a type mismatch. */
    bool asBool() const;
    int64_t asInt() const;
    uint64_t asUint() const;
    double asDouble() const;
    const std::string &asString() const;
    const Array &asArray() const;
    const Members &asObject() const;

    /** Object member by key, or null when absent / not an object. */
    const Value *find(const std::string &key) const;

    /** Append a member (object) / element (array). */
    void set(const std::string &key, Value v);
    void push(Value v);

    /** Canonical single-line serialization (see file comment). */
    std::string dump() const;

    /**
     * Indented serialization: a fixed 2-space indent, one member or
     * element per line, `": "` after keys, `[]` and `{}` for empty
     * containers, and a final newline — the layout of Python's
     * json.dumps(indent=2). Tokens are those of dump().
     */
    std::string dumpPretty() const;

  private:
    /** One writer for both forms: @p level < 0 is the canonical one. */
    void write(std::string &out, int level) const;

    Type type_ = Type::Null;
    bool bool_ = false;
    int64_t int_ = 0;
    double dbl_ = 0;
    std::string str_;
    /** unique_ptr keeps the (recursive) value type incomplete-safe. */
    std::unique_ptr<Array> arr_;
    std::unique_ptr<Members> obj_;

  public:
    Value(const Value &o) { *this = o; }
    Value &operator=(const Value &o);
    Value(Value &&) = default;
    Value &operator=(Value &&) = default;
    /** Out of line, so the recursive teardown is not inlined per user. */
    ~Value();
};

/** Make an empty object / array. */
Value object();
Value array();

/**
 * Parse one JSON document. Throws ConfigError with an offset-bearing
 * message on any syntax error, trailing garbage, input deeper than
 * @p maxDepth, or input larger than @p maxBytes.
 */
Value parse(const std::string &text, size_t maxDepth = 64,
            size_t maxBytes = 8u << 20);

} // namespace upc780::json

#endif // UPC780_COMMON_JSON_HH
