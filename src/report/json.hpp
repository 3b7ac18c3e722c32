// Minimal JSON value type: the repo's one JSON writer and reader (tlpbench
// and tlpserve records, tlplint JSON/SARIF and its baseline, tlpfuzz reports).
//
// Design constraints (DESIGN.md §9):
//   - objects preserve insertion order, so serialization is deterministic and
//     `tlpbench --render-md` / baseline diffs are byte-stable;
//   - numbers round-trip exactly (shortest form via std::to_chars), so
//     serialize -> parse -> serialize is the identity on tlpbench output;
//   - no external dependency — the container ships no JSON library.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace tlp::report {

/// A parse or type error raised by the JSON layer. Carries a byte offset for
/// parse errors (-1 for type errors).
struct JsonError {
  std::string message;
  std::int64_t offset = -1;
};

class Json;
using JsonMember = std::pair<std::string, Json>;

/// JSON value: null, bool, number (double), string, array, or object.
/// Objects keep members in insertion order; `set` replaces in place.
class Json {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Json() : kind_(Kind::kNull) {}
  Json(bool b) : kind_(Kind::kBool), bool_(b) {}           // NOLINT(google-explicit-constructor)
  Json(double d) : kind_(Kind::kNumber), num_(d) {}        // NOLINT(google-explicit-constructor)
  Json(int i) : kind_(Kind::kNumber), num_(i) {}           // NOLINT(google-explicit-constructor)
  Json(std::int64_t i)                                     // NOLINT(google-explicit-constructor)
      : kind_(Kind::kNumber), num_(static_cast<double>(i)) {}
  Json(std::string s)                                      // NOLINT(google-explicit-constructor)
      : kind_(Kind::kString), str_(std::move(s)) {}
  Json(const char* s) : kind_(Kind::kString), str_(s) {}   // NOLINT(google-explicit-constructor)

  static Json array(std::initializer_list<Json> items = {});
  /// Members in the listed order, as if by successive `set` calls.
  static Json object(std::initializer_list<JsonMember> members = {});

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] bool is_null() const { return kind_ == Kind::kNull; }
  [[nodiscard]] bool is_object() const { return kind_ == Kind::kObject; }
  [[nodiscard]] bool is_array() const { return kind_ == Kind::kArray; }
  [[nodiscard]] bool is_number() const { return kind_ == Kind::kNumber; }
  [[nodiscard]] bool is_string() const { return kind_ == Kind::kString; }

  // Typed accessors; throw JsonError on kind mismatch.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_number() const;
  [[nodiscard]] std::int64_t as_int() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const std::vector<Json>& items() const;
  [[nodiscard]] const std::vector<JsonMember>& members() const;

  // --- array ---------------------------------------------------------------
  Json& push_back(Json v);

  // --- object --------------------------------------------------------------
  /// Sets (or replaces) a member, preserving first-insertion order.
  Json& set(const std::string& key, Json v);
  /// Member lookup; nullptr when absent (or not an object).
  [[nodiscard]] const Json* find(const std::string& key) const;
  /// Member lookup with required presence; throws JsonError when absent.
  [[nodiscard]] const Json& at(const std::string& key) const;
  /// `find`, falling back to `def` for absent members.
  [[nodiscard]] double number_or(const std::string& key, double def) const;
  [[nodiscard]] std::string string_or(const std::string& key,
                                      const std::string& def) const;
  [[nodiscard]] bool bool_or(const std::string& key, bool def) const;

  /// Pretty-prints with 2-space indentation and a trailing newline at the top
  /// level; deterministic for a given value.
  [[nodiscard]] std::string dump() const;

  /// Parses a complete JSON document; throws JsonError with a byte offset on
  /// malformed input or trailing garbage.
  static Json parse(const std::string& text);

  bool operator==(const Json& other) const;
  bool operator!=(const Json& other) const { return !(*this == other); }

 private:
  void dump_to(std::string& out, int indent) const;

  Kind kind_;
  bool bool_ = false;
  double num_ = 0;
  std::string str_;
  std::vector<Json> arr_;
  std::vector<JsonMember> obj_;
};

/// Shortest round-trip decimal form of `d` ("1.5", "42", "0.1").
std::string json_number(double d);

}  // namespace tlp::report
