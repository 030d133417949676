#include "support/json.hh"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "support/number.hh"

namespace critics::json
{

// ---------------------------------------------------------------------------
// JsonValue

const JsonValue *
JsonValue::find(const std::string &key) const
{
    if (kind != Kind::Object)
        return nullptr;
    for (const auto &[name, value] : members) {
        if (name == key)
            return &value;
    }
    return nullptr;
}

std::optional<std::uint64_t>
JsonValue::asUint() const
{
    if (kind != Kind::Number)
        return std::nullopt;
    return parseUint(text);
}

std::optional<std::int64_t>
JsonValue::asInt() const
{
    if (kind != Kind::Number || text.empty())
        return std::nullopt;
    errno = 0;
    char *end = nullptr;
    const std::int64_t value = std::strtoll(text.c_str(), &end, 10);
    if (errno != 0 || end == text.c_str() || *end != '\0')
        return std::nullopt;
    return value;
}

std::optional<double>
JsonValue::asDouble() const
{
    if (kind != Kind::Number && kind != Kind::String)
        return std::nullopt;
    return parseDouble(text);
}

std::optional<std::string>
JsonValue::asString() const
{
    if (kind != Kind::String)
        return std::nullopt;
    return text;
}

std::optional<bool>
JsonValue::asBool() const
{
    if (kind != Kind::Bool)
        return std::nullopt;
    return boolean;
}

// ---------------------------------------------------------------------------
// Parser

namespace
{

class Parser
{
  public:
    explicit Parser(const std::string &text) : text_(text) {}

    bool
    parse(JsonValue &out)
    {
        skipSpace();
        if (!value(out))
            return false;
        skipSpace();
        return pos_ == text_.size();
    }

  private:
    bool
    value(JsonValue &out)
    {
        if (pos_ >= text_.size())
            return false;
        switch (text_[pos_]) {
          case '{':
          case '[': {
            // Each level is a stack frame here and in ~JsonValue: cap
            // the nesting so a line of brackets from a socket is
            // refused instead of overflowing the stack.
            if (depth_ == kMaxDepth)
                return false;
            ++depth_;
            const bool ok =
                text_[pos_] == '{' ? object(out) : array(out);
            --depth_;
            return ok;
          }
          case '"':
            out.kind = JsonValue::Kind::String;
            return string(out.text);
          case 't':
            out.kind = JsonValue::Kind::Bool;
            out.boolean = true;
            return literal("true");
          case 'f':
            out.kind = JsonValue::Kind::Bool;
            out.boolean = false;
            return literal("false");
          case 'n':
            out.kind = JsonValue::Kind::Null;
            return literal("null");
          default:
            return number(out);
        }
    }

    bool
    object(JsonValue &out)
    {
        out.kind = JsonValue::Kind::Object;
        ++pos_; // '{'
        skipSpace();
        if (peek() == '}') {
            ++pos_;
            return true;
        }
        while (true) {
            skipSpace();
            std::string key;
            if (!string(key))
                return false;
            skipSpace();
            if (peek() != ':')
                return false;
            ++pos_;
            skipSpace();
            JsonValue member;
            if (!value(member))
                return false;
            // A repeated key is refused: find() answers with the first
            // match, so a second value would be silently ignored.
            if (out.find(key) != nullptr)
                return false;
            out.members.emplace_back(std::move(key), std::move(member));
            skipSpace();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            if (peek() == '}') {
                ++pos_;
                return true;
            }
            return false;
        }
    }

    bool
    array(JsonValue &out)
    {
        out.kind = JsonValue::Kind::Array;
        ++pos_; // '['
        skipSpace();
        if (peek() == ']') {
            ++pos_;
            return true;
        }
        while (true) {
            skipSpace();
            JsonValue element;
            if (!value(element))
                return false;
            out.elements.push_back(std::move(element));
            skipSpace();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            if (peek() == ']') {
                ++pos_;
                return true;
            }
            return false;
        }
    }

    bool
    string(std::string &out)
    {
        if (peek() != '"')
            return false;
        ++pos_;
        out.clear();
        while (pos_ < text_.size()) {
            const char c = text_[pos_++];
            if (c == '"')
                return true;
            if (c == '\\') {
                if (pos_ >= text_.size())
                    return false;
                const char esc = text_[pos_++];
                switch (esc) {
                  case '"': out.push_back('"'); break;
                  case '\\': out.push_back('\\'); break;
                  case '/': out.push_back('/'); break;
                  case 'b': out.push_back('\b'); break;
                  case 'f': out.push_back('\f'); break;
                  case 'n': out.push_back('\n'); break;
                  case 'r': out.push_back('\r'); break;
                  case 't': out.push_back('\t'); break;
                  case 'u': {
                    // The writer never emits \u; decode BMP scalars
                    // to keep the parser honest on foreign input.
                    if (pos_ + 4 > text_.size())
                        return false;
                    unsigned code = 0;
                    for (int i = 0; i < 4; ++i) {
                        const char h = text_[pos_++];
                        code <<= 4;
                        if (h >= '0' && h <= '9')
                            code |= static_cast<unsigned>(h - '0');
                        else if (h >= 'a' && h <= 'f')
                            code |= static_cast<unsigned>(h - 'a' + 10);
                        else if (h >= 'A' && h <= 'F')
                            code |= static_cast<unsigned>(h - 'A' + 10);
                        else
                            return false;
                    }
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
                  default:
                    return false;
                }
                continue;
            }
            out.push_back(c);
        }
        return false; // unterminated
    }

    bool
    number(JsonValue &out)
    {
        const std::size_t start = pos_;
        if (peek() == '-')
            ++pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E' || text_[pos_] == '+' ||
                text_[pos_] == '-')) {
            ++pos_;
        }
        if (pos_ == start)
            return false;
        out.kind = JsonValue::Kind::Number;
        out.text = text_.substr(start, pos_ - start);
        return true;
    }

    bool
    literal(const char *word)
    {
        const std::size_t len = std::strlen(word);
        if (text_.compare(pos_, len, word) != 0)
            return false;
        pos_ += len;
        return true;
    }

    char
    peek() const
    {
        return pos_ < text_.size() ? text_[pos_] : '\0';
    }

    void
    skipSpace()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
    }

    /** Far deeper than anything the writer emits. */
    static constexpr unsigned kMaxDepth = 128;

    const std::string &text_;
    std::size_t pos_ = 0;
    unsigned depth_ = 0;
};

} // namespace

std::optional<JsonValue>
parseJson(const std::string &text)
{
    JsonValue value;
    if (!Parser(text).parse(value))
        return std::nullopt;
    return value;
}

// ---------------------------------------------------------------------------
// Writer

std::string
jsonEscape(const std::string &text)
{
    std::string out;
    out.reserve(text.size());
    for (const char c : text) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(c));
                out += buf;
            } else {
                out.push_back(c);
            }
        }
    }
    return out;
}

std::string
hexFloat(double value)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%a", value);
    return buf;
}

void
JsonWriter::comma()
{
    if (firstStack_.back())
        firstStack_.back() = false;
    else
        out_ += ',';
}

void
JsonWriter::key(const char *name)
{
    comma();
    out_ += '"';
    out_ += jsonEscape(name);
    out_ += "\":";
}

void
JsonWriter::quoted(const std::string &value)
{
    out_ += '"';
    out_ += jsonEscape(value);
    out_ += '"';
}

JsonWriter &
JsonWriter::beginObject()
{
    comma();
    out_ += '{';
    firstStack_.push_back(true);
    return *this;
}

JsonWriter &
JsonWriter::beginObject(const char *name)
{
    key(name);
    out_ += '{';
    firstStack_.push_back(true);
    return *this;
}

JsonWriter &
JsonWriter::endObject()
{
    out_ += '}';
    firstStack_.pop_back();
    return *this;
}

JsonWriter &
JsonWriter::beginArray(const char *name)
{
    if (name)
        key(name);
    else
        comma();
    out_ += '[';
    firstStack_.push_back(true);
    return *this;
}

JsonWriter &
JsonWriter::endArray()
{
    out_ += ']';
    firstStack_.pop_back();
    return *this;
}

JsonWriter &
JsonWriter::field(const char *name, const std::string &value)
{
    key(name);
    quoted(value);
    return *this;
}

JsonWriter &
JsonWriter::field(const char *name, const char *value)
{
    return field(name, std::string(value));
}

JsonWriter &
JsonWriter::field(const char *name, std::uint64_t value)
{
    key(name);
    out_ += std::to_string(value);
    return *this;
}

JsonWriter &
JsonWriter::field(const char *name, std::int64_t value)
{
    key(name);
    out_ += std::to_string(value);
    return *this;
}

JsonWriter &
JsonWriter::field(const char *name, unsigned value)
{
    return field(name, static_cast<std::uint64_t>(value));
}

JsonWriter &
JsonWriter::field(const char *name, int value)
{
    return field(name, static_cast<std::int64_t>(value));
}

JsonWriter &
JsonWriter::field(const char *name, bool value)
{
    key(name);
    out_ += value ? "true" : "false";
    return *this;
}

JsonWriter &
JsonWriter::field(const char *name, double value)
{
    key(name);
    quoted(hexFloat(value));
    return *this;
}

JsonWriter &
JsonWriter::fieldReadable(const char *name, double value)
{
    key(name);
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    out_ += buf;
    return *this;
}

JsonWriter &
JsonWriter::element(const std::string &value)
{
    comma();
    quoted(value);
    return *this;
}

JsonWriter &
JsonWriter::element(double value)
{
    comma();
    quoted(hexFloat(value));
    return *this;
}

JsonWriter &
JsonWriter::elementObject()
{
    comma();
    out_ += '{';
    firstStack_.push_back(true);
    return *this;
}

} // namespace critics::json
