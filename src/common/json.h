/**
 * @file
 * Minimal JSON value + recursive-descent parser (no external
 * dependencies). Supports objects, arrays, strings, numbers, bools
 * and null — enough for the experiment configuration files that
 * mirror the paper artifact's JSON configs (Appendix A.5).
 */

#ifndef PROTEUS_COMMON_JSON_H_
#define PROTEUS_COMMON_JSON_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

namespace proteus {

/** A parsed JSON value. */
class JsonValue
{
  public:
    enum class Type { Null, Bool, Number, String, Array, Object };

    JsonValue() = default;

    /** @return this value's type. */
    Type type() const { return type_; }

    bool isNull() const { return type_ == Type::Null; }
    bool isBool() const { return type_ == Type::Bool; }
    bool isNumber() const { return type_ == Type::Number; }
    bool isString() const { return type_ == Type::String; }
    bool isArray() const { return type_ == Type::Array; }
    bool isObject() const { return type_ == Type::Object; }

    /** @return the boolean payload; panics on type mismatch. */
    bool asBool() const;

    /** @return the numeric payload; panics on type mismatch. */
    double asNumber() const;

    /** @return the string payload; panics on type mismatch. */
    const std::string& asString() const;

    /** @return array elements; panics on type mismatch. */
    const std::vector<JsonValue>& asArray() const;

    /** @return true when this object has key @p key. */
    bool has(const std::string& key) const;

    /** @return member @p key; panics when absent or not an object. */
    const JsonValue& at(const std::string& key) const;

    /** @return member @p key, or @p fallback when absent. */
    double numberOr(const std::string& key, double fallback) const;

    /** @return member @p key, or @p fallback when absent. */
    std::string stringOr(const std::string& key,
                         const std::string& fallback) const;

    /** @return member @p key, or @p fallback when absent. */
    bool boolOr(const std::string& key, bool fallback) const;

    /** @return all object keys (empty unless an object). */
    std::vector<std::string> keys() const;

    /** Factories used by the parser (and tests). */
    static JsonValue makeNull();
    static JsonValue makeBool(bool b);
    static JsonValue makeNumber(double n);
    static JsonValue makeString(std::string s);
    static JsonValue makeArray(std::vector<JsonValue> items);
    static JsonValue makeObject(std::map<std::string, JsonValue> members);

  private:
    Type type_ = Type::Null;
    bool bool_ = false;
    double number_ = 0.0;
    std::string string_;
    std::vector<JsonValue> array_;
    std::map<std::string, JsonValue> object_;
};

/**
 * Deepest nesting of arrays/objects the parser accepts; deeper input
 * is a parse error rather than a stack overflow.
 */
inline constexpr int kMaxJsonDepth = 256;

/**
 * Parse @p text as JSON.
 * @param error receives a description on failure (may be null).
 * @return the value, or nullopt-like null value with *error set.
 */
bool parseJson(const std::string& text, JsonValue* out,
               std::string* error = nullptr);

/** Parse the file at @p path; panics on IO error, reports parse errors. */
bool parseJsonFile(const std::string& path, JsonValue* out,
                   std::string* error = nullptr);

}  // namespace proteus

#endif  // PROTEUS_COMMON_JSON_H_
