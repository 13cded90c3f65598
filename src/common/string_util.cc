#include "src/common/string_util.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdio>
#include <vector>

namespace spider {

std::vector<std::string> SplitString(std::string_view s, char delim) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    size_t pos = s.find(delim, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      break;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::string JoinStrings(const std::vector<std::string>& parts,
                        std::string_view delim) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += delim;
    out += parts[i];
  }
  return out;
}

std::string_view TrimWhitespace(std::string_view s) {
  size_t begin = 0;
  while (begin < s.size() &&
         std::isspace(static_cast<unsigned char>(s[begin]))) {
    ++begin;
  }
  size_t end = s.size();
  while (end > begin && std::isspace(static_cast<unsigned char>(s[end - 1]))) {
    --end;
  }
  return s.substr(begin, end - begin);
}

std::string ToLowerAscii(std::string_view s) {
  std::string out(s);
  for (auto& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

bool ContainsLetter(std::string_view s) {
  for (char c : s) {
    if (std::isalpha(static_cast<unsigned char>(c))) return true;
  }
  return false;
}

char* AppendDouble(char* out, double v) {
  // Cannot fail: kDoubleTextBytes holds every %.17g rendering.
  return std::to_chars(out, out + kDoubleTextBytes, v,
                       std::chars_format::general, 17)
      .ptr;
}

size_t EditDistance(std::string_view a, std::string_view b) {
  std::vector<size_t> row(b.size() + 1);
  for (size_t j = 0; j <= b.size(); ++j) row[j] = j;
  for (size_t i = 1; i <= a.size(); ++i) {
    size_t diagonal = row[0];
    row[0] = i;
    for (size_t j = 1; j <= b.size(); ++j) {
      const size_t previous = row[j];
      const size_t substitution = diagonal + (a[i - 1] == b[j - 1] ? 0 : 1);
      row[j] = std::min({row[j] + 1, row[j - 1] + 1, substitution});
      diagonal = previous;
    }
  }
  return row[b.size()];
}

std::string FormatWithCommas(int64_t n) {
  bool negative = n < 0;
  std::string digits = std::to_string(negative ? -n : n);
  std::string out;
  int count = 0;
  for (auto it = digits.rbegin(); it != digits.rend(); ++it) {
    if (count > 0 && count % 3 == 0) out += ',';
    out += *it;
    ++count;
  }
  if (negative) out += '-';
  return std::string(out.rbegin(), out.rend());
}

std::string FormatBytes(int64_t bytes) {
  char buf[64];
  const double b = static_cast<double>(bytes);
  if (bytes >= (1LL << 30)) {
    std::snprintf(buf, sizeof(buf), "%.1fGB", b / (1LL << 30));
  } else if (bytes >= (1LL << 20)) {
    std::snprintf(buf, sizeof(buf), "%.1fMB", b / (1LL << 20));
  } else if (bytes >= (1LL << 10)) {
    std::snprintf(buf, sizeof(buf), "%.1fKB", b / (1LL << 10));
  } else {
    std::snprintf(buf, sizeof(buf), "%ldB", bytes);
  }
  return buf;
}

}  // namespace spider
