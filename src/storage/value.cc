#include "src/storage/value.h"

#include <charconv>
#include <cmath>

namespace spider {

std::string Value::ToCanonicalString() const {
  CanonicalBuffer buffer;
  return std::string(CanonicalView(buffer));
}

std::string_view Value::CanonicalView(CanonicalBuffer& buffer) const {
  char* const first = buffer.data();
  switch (payload_.index()) {
    case 0:
      return {};
    case 1:
      return std::string_view(
          first, std::to_chars(first, first + buffer.size(),
                               std::get<1>(payload_))
                     .ptr);
    case 2:
      // %.17g drops trailing zeros, so e.g. 4.0 and "4" from columns of
      // nominally different types compare deterministically.
      return std::string_view(first,
                              AppendDouble(first, std::get<2>(payload_)));
    default:
      return std::get<3>(payload_);
  }
}

std::string Value::ToString() const {
  if (is_null()) return "NULL";
  return ToCanonicalString();
}

Result<Value> Value::Parse(std::string_view text, TypeId type) {
  if (text.empty()) return Value::Null();
  switch (type) {
    case TypeId::kInteger: {
      int64_t out = 0;
      auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), out);
      if (ec != std::errc() || ptr != text.data() + text.size()) {
        return Status::InvalidArgument("not an integer: '" + std::string(text) +
                                       "'");
      }
      return Value::Integer(out);
    }
    case TypeId::kDouble: {
      // std::from_chars for double is available in gcc 12.
      double out = 0;
      auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), out);
      if (ec != std::errc() || ptr != text.data() + text.size() ||
          !std::isfinite(out)) {
        return Status::InvalidArgument("not a double: '" + std::string(text) +
                                       "'");
      }
      return Value::Double(out);
    }
    case TypeId::kString:
    case TypeId::kLob:
      return Value::String(std::string(text));
  }
  return Status::InvalidArgument("unknown type");
}

}  // namespace spider
