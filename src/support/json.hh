/**
 * @file
 * Minimal JSON reader/writer shared by every serialization layer (the
 * runner's JSONL result cache and manifests, the sim report export,
 * the stats registry and the trace-event pipeline).  No external
 * dependencies; numbers are kept as raw text so 64-bit integers and
 * hex-float doubles round-trip without precision loss.
 */

#ifndef CRITICS_SUPPORT_JSON_HH
#define CRITICS_SUPPORT_JSON_HH

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace critics::json
{

/**
 * Parsed JSON value.  Objects keep insertion order (the writer emits
 * deterministic output, and tests compare serialized records).
 */
class JsonValue
{
  public:
    enum class Kind : std::uint8_t
    {
        Null,
        Bool,
        Number, ///< raw text, lazily converted
        String,
        Object,
        Array,
    };

    Kind kind = Kind::Null;
    bool boolean = false;
    std::string text; ///< number spelling or string payload
    std::vector<std::pair<std::string, JsonValue>> members;
    std::vector<JsonValue> elements;

    bool isObject() const { return kind == Kind::Object; }
    bool isArray() const { return kind == Kind::Array; }

    /** Object member lookup; nullptr when absent or not an object. */
    const JsonValue *find(const std::string &key) const;

    /** Typed accessors: nullopt on kind mismatch or parse failure. */
    std::optional<std::uint64_t> asUint() const;
    std::optional<std::int64_t> asInt() const;
    /** Accepts JSON numbers and hex-float strings ("0x1.8p+1"). */
    std::optional<double> asDouble() const;
    std::optional<std::string> asString() const;
    std::optional<bool> asBool() const;
};

/** Parse one JSON document; nullopt on any syntax error, a repeated
 *  object key, or nesting deeper than 128 levels. */
std::optional<JsonValue> parseJson(const std::string &text);

/**
 * Deterministic JSON writer.  Doubles are serialized as hex-float
 * *strings* (valid JSON, bit-exact round-trip); integers as plain
 * number tokens.
 */
class JsonWriter
{
  public:
    JsonWriter &beginObject();
    JsonWriter &endObject();
    JsonWriter &beginArray(const char *key = nullptr);
    JsonWriter &endArray();
    /** Open a nested object as the value of `key`. */
    JsonWriter &beginObject(const char *key);

    JsonWriter &field(const char *key, const std::string &value);
    JsonWriter &field(const char *key, const char *value);
    JsonWriter &field(const char *key, std::uint64_t value);
    JsonWriter &field(const char *key, std::int64_t value);
    JsonWriter &field(const char *key, unsigned value);
    JsonWriter &field(const char *key, int value);
    JsonWriter &field(const char *key, bool value);
    /** Bit-exact double (hex-float string). */
    JsonWriter &field(const char *key, double value);
    /** Human-readable double (plain JSON number, %.17g). */
    JsonWriter &fieldReadable(const char *key, double value);

    /** Array element variants. */
    JsonWriter &element(const std::string &value);
    JsonWriter &element(double value);
    JsonWriter &elementObject(); ///< beginObject as an array element

    std::string str() const { return out_; }

  private:
    void comma();
    void key(const char *name);
    void quoted(const std::string &value);

    std::string out_;
    std::vector<bool> firstStack_{true};
};

/** Escape a string for embedding in a JSON document. */
std::string jsonEscape(const std::string &text);

/** Format a double as a bit-exact hex-float token ("0x1.8p+1"). */
std::string hexFloat(double value);

} // namespace critics::json

#endif // CRITICS_SUPPORT_JSON_HH
