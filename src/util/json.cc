#include "util/json.hh"

#include <charconv>
#include <cmath>
#include <cstdio>

#include "util/error.hh"
#include "util/logging.hh"

namespace cpe {

Json
Json::array()
{
    Json json;
    json.type_ = Type::Array;
    return json;
}

Json
Json::object()
{
    Json json;
    json.type_ = Type::Object;
    return json;
}

bool
Json::asBool() const
{
    if (type_ != Type::Bool)
        panic("Json::asBool on a non-bool value");
    return bool_;
}

double
Json::asNumber() const
{
    if (type_ != Type::Number)
        panic("Json::asNumber on a non-number value");
    return number_;
}

const std::string &
Json::asString() const
{
    if (type_ != Type::String)
        panic("Json::asString on a non-string value");
    return string_;
}

const std::vector<Json> &
Json::items() const
{
    if (type_ != Type::Array)
        panic("Json::items on a non-array value");
    return items_;
}

const std::vector<std::pair<std::string, Json>> &
Json::members() const
{
    if (type_ != Type::Object)
        panic("Json::members on a non-object value");
    return members_;
}

void
Json::push(Json value)
{
    if (type_ == Type::Null)
        type_ = Type::Array;
    if (type_ != Type::Array)
        panic("Json::push on a non-array value");
    items_.push_back(std::move(value));
}

Json &
Json::operator[](const std::string &key)
{
    if (type_ == Type::Null)
        type_ = Type::Object;
    if (type_ != Type::Object)
        panic(Msg() << "Json::operator[] on a non-object value (key '"
                    << key << "')");
    for (auto &member : members_)
        if (member.first == key)
            return member.second;
    members_.emplace_back(key, Json());
    return members_.back().second;
}

const Json *
Json::find(const std::string &key) const
{
    if (type_ != Type::Object)
        panic(Msg() << "Json::find on a non-object value (key '" << key
                    << "')");
    for (const auto &member : members_)
        if (member.first == key)
            return &member.second;
    return nullptr;
}

const Json &
Json::at(const std::string &key, const std::string &context) const
{
    std::string where = context.empty() ? "JSON document" : context;
    if (type_ != Type::Object)
        throw IoError(Msg() << where
                            << ": expected an object while looking up '"
                            << key << "'");
    const Json *member = find(key);
    if (!member)
        throw IoError(Msg() << where << ": missing required key '" << key
                            << "'");
    return *member;
}

namespace {

void
escapeTo(std::string &out, const std::string &text)
{
    out.push_back('"');
    for (char c : text) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\b': out += "\\b"; break;
          case '\f': out += "\\f"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out.push_back(c);
            }
        }
    }
    out.push_back('"');
}

void
numberTo(std::string &out, double value)
{
    if (!std::isfinite(value)) {
        out += "null";
        return;
    }
    // Integral values small enough to be exact render without a
    // fraction; everything else uses shortest round-trip form.
    double integral;
    if (std::modf(value, &integral) == 0.0 &&
        std::abs(value) < 9.007199254740992e15) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.0f", value);
        out += buf;
        return;
    }
    char buf[64];
    auto result = std::to_chars(buf, buf + sizeof(buf), value);
    out.append(buf, result.ptr);
}

} // namespace

void
Json::dumpTo(std::string &out, int indent, int depth) const
{
    auto newline = [&](int level) {
        if (indent > 0) {
            out.push_back('\n');
            out.append(static_cast<std::size_t>(indent) * level, ' ');
        }
    };
    switch (type_) {
      case Type::Null:
        out += "null";
        break;
      case Type::Bool:
        out += bool_ ? "true" : "false";
        break;
      case Type::Number:
        numberTo(out, number_);
        break;
      case Type::String:
        escapeTo(out, string_);
        break;
      case Type::Array:
        if (items_.empty()) {
            out += "[]";
            break;
        }
        out.push_back('[');
        for (std::size_t i = 0; i < items_.size(); ++i) {
            if (i)
                out.push_back(',');
            newline(depth + 1);
            items_[i].dumpTo(out, indent, depth + 1);
        }
        newline(depth);
        out.push_back(']');
        break;
      case Type::Object:
        if (members_.empty()) {
            out += "{}";
            break;
        }
        out.push_back('{');
        for (std::size_t i = 0; i < members_.size(); ++i) {
            if (i)
                out.push_back(',');
            newline(depth + 1);
            escapeTo(out, members_[i].first);
            out.push_back(':');
            if (indent > 0)
                out.push_back(' ');
            members_[i].second.dumpTo(out, indent, depth + 1);
        }
        newline(depth);
        out.push_back('}');
        break;
    }
}

std::string
Json::dump(int indent) const
{
    std::string out;
    dumpTo(out, indent, 0);
    // Appending leaves up to ~2x capacity slack, and callers keep
    // these strings (every SimResult holds several) for a whole sweep.
    out.shrink_to_fit();
    return out;
}

namespace {

/** Recursive-descent JSON parser over a string, tracking position. */
class Parser
{
  public:
    Parser(const std::string &text) : text_(text) {}

    bool
    parse(Json &out, std::string &error)
    {
        if (!value(out, error))
            return false;
        skipSpace();
        if (pos_ != text_.size()) {
            error = describe("trailing characters after JSON value");
            return false;
        }
        return true;
    }

  private:
    std::string
    describe(const std::string &what) const
    {
        std::size_t line = 1, col = 1;
        for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
            if (text_[i] == '\n') {
                ++line;
                col = 1;
            } else {
                ++col;
            }
        }
        return Msg() << what << " at line " << line << ", column " << col;
    }

    void
    skipSpace()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    bool
    literal(const char *word)
    {
        std::size_t len = std::char_traits<char>::length(word);
        if (text_.compare(pos_, len, word) != 0)
            return false;
        pos_ += len;
        return true;
    }

    bool
    string(std::string &out, std::string &error)
    {
        ++pos_; // opening quote
        out.clear();
        while (pos_ < text_.size()) {
            char c = text_[pos_];
            if (c == '"') {
                ++pos_;
                return true;
            }
            if (c == '\\') {
                if (pos_ + 1 >= text_.size())
                    break;
                char esc = text_[++pos_];
                ++pos_;
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
                      if (pos_ + 4 > text_.size()) {
                          error = describe("truncated \\u escape");
                          return false;
                      }
                      unsigned code = 0;
                      for (int i = 0; i < 4; ++i) {
                          char h = text_[pos_ + i];
                          code <<= 4;
                          if (h >= '0' && h <= '9')
                              code |= static_cast<unsigned>(h - '0');
                          else if (h >= 'a' && h <= 'f')
                              code |= static_cast<unsigned>(h - 'a' + 10);
                          else if (h >= 'A' && h <= 'F')
                              code |= static_cast<unsigned>(h - 'A' + 10);
                          else {
                              error = describe("bad \\u escape digit");
                              return false;
                          }
                      }
                      pos_ += 4;
                      // Encode as UTF-8 (surrogate pairs unsupported;
                      // our documents are ASCII-safe by construction).
                      if (code < 0x80) {
                          out.push_back(static_cast<char>(code));
                      } else if (code < 0x800) {
                          out.push_back(
                              static_cast<char>(0xc0 | (code >> 6)));
                          out.push_back(
                              static_cast<char>(0x80 | (code & 0x3f)));
                      } else {
                          out.push_back(
                              static_cast<char>(0xe0 | (code >> 12)));
                          out.push_back(static_cast<char>(
                              0x80 | ((code >> 6) & 0x3f)));
                          out.push_back(
                              static_cast<char>(0x80 | (code & 0x3f)));
                      }
                      break;
                  }
                  default:
                    error = describe("unknown escape sequence");
                    return false;
                }
                continue;
            }
            out.push_back(c);
            ++pos_;
        }
        error = describe("unterminated string");
        return false;
    }

    bool
    value(Json &out, std::string &error)
    {
        skipSpace();
        if (pos_ >= text_.size()) {
            error = describe("unexpected end of input");
            return false;
        }
        char c = text_[pos_];
        if (c == 'n' && literal("null")) {
            out = Json();
            return true;
        }
        if (c == 't' && literal("true")) {
            out = Json(true);
            return true;
        }
        if (c == 'f' && literal("false")) {
            out = Json(false);
            return true;
        }
        if (c == '"') {
            std::string text;
            if (!string(text, error))
                return false;
            out = Json(std::move(text));
            return true;
        }
        if (c == '[') {
            ++pos_;
            out = Json::array();
            skipSpace();
            if (pos_ < text_.size() && text_[pos_] == ']') {
                ++pos_;
                return true;
            }
            while (true) {
                Json element;
                if (!value(element, error))
                    return false;
                out.push(std::move(element));
                skipSpace();
                if (pos_ < text_.size() && text_[pos_] == ',') {
                    ++pos_;
                    continue;
                }
                if (pos_ < text_.size() && text_[pos_] == ']') {
                    ++pos_;
                    return true;
                }
                error = describe("expected ',' or ']' in array");
                return false;
            }
        }
        if (c == '{') {
            ++pos_;
            out = Json::object();
            skipSpace();
            if (pos_ < text_.size() && text_[pos_] == '}') {
                ++pos_;
                return true;
            }
            while (true) {
                skipSpace();
                if (pos_ >= text_.size() || text_[pos_] != '"') {
                    error = describe("expected string object key");
                    return false;
                }
                std::string key;
                if (!string(key, error))
                    return false;
                skipSpace();
                if (pos_ >= text_.size() || text_[pos_] != ':') {
                    error = describe("expected ':' after object key");
                    return false;
                }
                ++pos_;
                Json member;
                if (!value(member, error))
                    return false;
                out[key] = std::move(member);
                skipSpace();
                if (pos_ < text_.size() && text_[pos_] == ',') {
                    ++pos_;
                    continue;
                }
                if (pos_ < text_.size() && text_[pos_] == '}') {
                    ++pos_;
                    return true;
                }
                error = describe("expected ',' or '}' in object");
                return false;
            }
        }
        // Number.
        const char *begin = text_.data() + pos_;
        const char *end = text_.data() + text_.size();
        double number = 0.0;
        auto result = std::from_chars(begin, end, number);
        if (result.ec != std::errc() || result.ptr == begin) {
            error = describe("unexpected character");
            return false;
        }
        pos_ = static_cast<std::size_t>(result.ptr - text_.data());
        out = Json(number);
        return true;
    }

    const std::string &text_;
    std::size_t pos_ = 0;
};

} // namespace

bool
Json::tryParse(const std::string &text, Json &out, std::string &error)
{
    return Parser(text).parse(out, error);
}

Json
Json::parse(const std::string &text, const std::string &context)
{
    Json out;
    std::string error;
    if (!tryParse(text, out, error))
        throw IoError(Msg()
                      << (context.empty() ? "JSON parse error" : context)
                      << ": " << error);
    return out;
}

} // namespace cpe
