#include "report/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace tlp::report {

namespace {

[[noreturn]] void fail(const std::string& msg, std::int64_t offset = -1) {
  throw JsonError{msg, offset};
}

}  // namespace

Json Json::array(std::initializer_list<Json> items) {
  Json j;
  j.kind_ = Kind::kArray;
  j.arr_.assign(items.begin(), items.end());
  return j;
}

Json Json::object(std::initializer_list<JsonMember> members) {
  Json j;
  j.kind_ = Kind::kObject;
  for (const auto& [key, value] : members) j.set(key, value);
  return j;
}

bool Json::as_bool() const {
  if (kind_ != Kind::kBool) fail("expected bool");
  return bool_;
}

double Json::as_number() const {
  if (kind_ != Kind::kNumber) fail("expected number");
  return num_;
}

std::int64_t Json::as_int() const {
  return static_cast<std::int64_t>(as_number());
}

const std::string& Json::as_string() const {
  if (kind_ != Kind::kString) fail("expected string");
  return str_;
}

const std::vector<Json>& Json::items() const {
  if (kind_ != Kind::kArray) fail("expected array");
  return arr_;
}

const std::vector<JsonMember>& Json::members() const {
  if (kind_ != Kind::kObject) fail("expected object");
  return obj_;
}

Json& Json::push_back(Json v) {
  if (kind_ != Kind::kArray) fail("push_back on non-array");
  arr_.push_back(std::move(v));
  return *this;
}

Json& Json::set(const std::string& key, Json v) {
  if (kind_ != Kind::kObject) fail("set on non-object");
  for (auto& [k, old] : obj_) {
    if (k == key) {
      old = std::move(v);
      return *this;
    }
  }
  obj_.emplace_back(key, std::move(v));
  return *this;
}

const Json* Json::find(const std::string& key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [k, v] : obj_) {
    if (k == key) return &v;
  }
  return nullptr;
}

const Json& Json::at(const std::string& key) const {
  const Json* v = find(key);
  if (v == nullptr) fail("missing member \"" + key + "\"");
  return *v;
}

double Json::number_or(const std::string& key, double def) const {
  const Json* v = find(key);
  return v != nullptr && v->is_number() ? v->as_number() : def;
}

std::string Json::string_or(const std::string& key,
                            const std::string& def) const {
  const Json* v = find(key);
  return v != nullptr && v->is_string() ? v->as_string() : def;
}

bool Json::bool_or(const std::string& key, bool def) const {
  const Json* v = find(key);
  return v != nullptr && v->kind() == Kind::kBool ? v->as_bool() : def;
}

bool Json::operator==(const Json& other) const {
  if (kind_ != other.kind_) return false;
  switch (kind_) {
    case Kind::kNull: return true;
    case Kind::kBool: return bool_ == other.bool_;
    case Kind::kNumber: return num_ == other.num_;
    case Kind::kString: return str_ == other.str_;
    case Kind::kArray: return arr_ == other.arr_;
    case Kind::kObject: return obj_ == other.obj_;
  }
  return false;
}

std::string json_number(double d) {
  if (!std::isfinite(d)) return "null";  // JSON has no inf/nan
  char buf[32];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), d);
  if (ec != std::errc()) return "0";
  std::string s(buf, ptr);
  // to_chars may emit "1e+20"-style exponents, which are valid JSON; keep.
  return s;
}

namespace {

/// `s` between quotes, escaped: quotes, backslashes and every control byte
/// (`\n`, `\t`, `\r`, else `\u00XX`), so Json::parse returns `s` unchanged.
void escape_to(const std::string& s, std::string& out) {
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

void indent_to(std::string& out, int indent) {
  out.append(static_cast<std::size_t>(indent) * 2, ' ');
}

}  // namespace

void Json::dump_to(std::string& out, int indent) const {
  switch (kind_) {
    case Kind::kNull: out += "null"; return;
    case Kind::kBool: out += bool_ ? "true" : "false"; return;
    case Kind::kNumber: out += json_number(num_); return;
    case Kind::kString: escape_to(str_, out); return;
    case Kind::kArray: {
      if (arr_.empty()) {
        out += "[]";
        return;
      }
      out += "[\n";
      for (std::size_t i = 0; i < arr_.size(); ++i) {
        indent_to(out, indent + 1);
        arr_[i].dump_to(out, indent + 1);
        if (i + 1 < arr_.size()) out.push_back(',');
        out.push_back('\n');
      }
      indent_to(out, indent);
      out.push_back(']');
      return;
    }
    case Kind::kObject: {
      if (obj_.empty()) {
        out += "{}";
        return;
      }
      out += "{\n";
      for (std::size_t i = 0; i < obj_.size(); ++i) {
        indent_to(out, indent + 1);
        escape_to(obj_[i].first, out);
        out += ": ";
        obj_[i].second.dump_to(out, indent + 1);
        if (i + 1 < obj_.size()) out.push_back(',');
        out.push_back('\n');
      }
      indent_to(out, indent);
      out.push_back('}');
      return;
    }
  }
}

std::string Json::dump() const {
  std::string out;
  dump_to(out, 0);
  out.push_back('\n');
  return out;
}

// --- parser ------------------------------------------------------------------

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Json parse_document() {
    Json v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) err("trailing characters after JSON value");
    return v;
  }

 private:
  [[noreturn]] void err(const std::string& msg) {
    fail(msg, static_cast<std::int64_t>(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos_;
      } else {
        break;
      }
    }
  }

  char peek() {
    if (pos_ >= text_.size()) err("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) err(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(const char* lit) {
    const std::size_t n = std::string(lit).size();
    if (text_.compare(pos_, n, lit) == 0) {
      pos_ += n;
      return true;
    }
    return false;
  }

  Json parse_value() {
    skip_ws();
    const char c = peek();
    if (c == '{') return parse_object();
    if (c == '[') return parse_array();
    if (c == '"') return Json(parse_string());
    if (c == 't') {
      if (!consume_literal("true")) err("bad literal");
      return Json(true);
    }
    if (c == 'f') {
      if (!consume_literal("false")) err("bad literal");
      return Json(false);
    }
    if (c == 'n') {
      if (!consume_literal("null")) err("bad literal");
      return Json();
    }
    return parse_number();
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+'))
      ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) err("expected a value");
    const std::string tok = text_.substr(start, pos_ - start);
    char* end = nullptr;
    const double d = std::strtod(tok.c_str(), &end);
    if (end == nullptr || *end != '\0') err("malformed number '" + tok + "'");
    return Json(d);
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) err("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') break;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) err("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'n': out.push_back('\n'); break;
        case 't': out.push_back('\t'); break;
        case 'r': out.push_back('\r'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) err("truncated \\u escape");
          unsigned cp = 0;
          const char* hex = text_.data() + pos_;
          const auto [end, ec] = std::from_chars(hex, hex + 4, cp, 16);
          if (ec != std::errc() || end != hex + 4) err("bad \\u escape");
          pos_ += 4;
          // ASCII-only escapes are enough for tlpbench documents; encode the
          // rest as UTF-8 without surrogate-pair handling.
          if (cp < 0x80) {
            out.push_back(static_cast<char>(cp));
          } else if (cp < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
            out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
          }
          break;
        }
        default: err("unknown escape");
      }
    }
    return out;
  }

  Json parse_array() {
    expect('[');
    Json arr = Json::array();
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return arr;
    }
    while (true) {
      arr.push_back(parse_value());
      skip_ws();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == ']') {
        ++pos_;
        return arr;
      }
      err("expected ',' or ']'");
    }
  }

  Json parse_object() {
    expect('{');
    Json obj = Json::object();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return obj;
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      obj.set(key, parse_value());
      skip_ws();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == '}') {
        ++pos_;
        return obj;
      }
      err("expected ',' or '}'");
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace

Json Json::parse(const std::string& text) {
  return Parser(text).parse_document();
}

}  // namespace tlp::report
