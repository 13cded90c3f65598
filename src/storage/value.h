// Cell values.

#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <variant>

#include "src/common/result.h"
#include "src/common/string_util.h"
#include "src/storage/type.h"

namespace spider {

/// \brief A single (possibly NULL) cell value.
///
/// Values carry their own runtime type. IND comparison always goes through
/// ToCanonicalString(), which renders a value in the fixed lexicographic
/// form shared by every algorithm (in-engine and database-external), so all
/// five approaches agree on set membership.
class Value {
 public:
  /// NULL value.
  Value() = default;

  static Value Null() { return Value(); }
  static Value Integer(int64_t v) { return Value(Payload(std::in_place_index<1>, v)); }
  static Value Double(double v) { return Value(Payload(std::in_place_index<2>, v)); }
  static Value String(std::string v) {
    return Value(Payload(std::in_place_index<3>, std::move(v)));
  }

  bool is_null() const { return payload_.index() == 0; }
  bool is_integer() const { return payload_.index() == 1; }
  bool is_double() const { return payload_.index() == 2; }
  bool is_string() const { return payload_.index() == 3; }

  /// Typed accessors; behaviour undefined unless the matching is_*() holds.
  int64_t integer() const { return std::get<1>(payload_); }
  double number() const { return std::get<2>(payload_); }
  const std::string& string() const { return std::get<3>(payload_); }

  /// \brief The canonical string rendering used for sorting and equality in
  /// IND discovery. NULL has no canonical form (callers must filter NULLs
  /// before comparison); this returns "" for NULL.
  std::string ToCanonicalString() const;

  /// Stack room for the canonical text of a number (an int64 needs 20).
  using CanonicalBuffer = std::array<char, kDoubleTextBytes>;

  /// ToCanonicalString() without the temporary: a number is rendered into
  /// `buffer`, a string is viewed in place. The view is valid while both
  /// `buffer` and this value are.
  std::string_view CanonicalView(CanonicalBuffer& buffer) const;

  /// Debug rendering ("NULL" for nulls).
  std::string ToString() const;

  /// Parses `text` into a value of type `type`. Empty text parses as NULL.
  [[nodiscard]]
  static Result<Value> Parse(std::string_view text, TypeId type);

  /// Structural equality (NULL == NULL here; SQL three-valued logic is the
  /// engine's concern, not the value type's).
  friend bool operator==(const Value& a, const Value& b) {
    return a.payload_ == b.payload_;
  }

 private:
  using Payload = std::variant<std::monostate, int64_t, double, std::string>;
  explicit Value(Payload payload) : payload_(std::move(payload)) {}

  Payload payload_;
};

}  // namespace spider
