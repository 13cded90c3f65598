// Small string helpers shared across modules.

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace spider {

/// Splits `s` on `delim`; empty fields are preserved ("a,,b" -> 3 fields).
std::vector<std::string> SplitString(std::string_view s, char delim);

/// Joins `parts` with `delim`.
std::string JoinStrings(const std::vector<std::string>& parts,
                        std::string_view delim);

/// Removes leading and trailing ASCII whitespace.
std::string_view TrimWhitespace(std::string_view s);

/// ASCII lower-casing (locale-independent).
std::string ToLowerAscii(std::string_view s);

/// True if `s` starts with / ends with the given prefix/suffix.
bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

/// True if `s` contains at least one ASCII letter.
bool ContainsLetter(std::string_view s);

/// Room AppendDouble needs: a sign, 17 significant digits, a point and an
/// exponent ("-2.2250738585072014e-308" is 24 bytes).
inline constexpr size_t kDoubleTextBytes = 32;

/// Writes `v` at `out` exactly as printf("%.17g") prints it and returns one
/// past the last byte written; `out` needs kDoubleTextBytes bytes of room.
/// This is the canonical text of a double everywhere (values, .col
/// dictionaries, manifests, report JSON). std::to_chars with the general
/// format and precision 17 is specified to print as printf does, without
/// printf's format parsing and locale.
char* AppendDouble(char* out, double v);

/// Classic Levenshtein edit distance. Quadratic — for short identifiers
/// (approach and option names), where lookup errors use it to suggest the
/// nearest valid spelling.
size_t EditDistance(std::string_view a, std::string_view b);

/// Formats a count with thousands separators, e.g. 139356 -> "139,356"
/// (matches the paper's table style).
std::string FormatWithCommas(int64_t n);

/// Formats bytes human-readably, e.g. 2781872128 -> "2.6GB".
std::string FormatBytes(int64_t bytes);

}  // namespace spider
