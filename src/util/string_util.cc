#include "util/string_util.h"

#include <charconv>

namespace pfql {

std::vector<std::string> SplitString(std::string_view s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  for (size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string_view StripWhitespace(std::string_view s) {
  size_t b = 0, e = s.size();
  while (b < e && (s[b] == ' ' || s[b] == '\t' || s[b] == '\n' || s[b] == '\r'))
    ++b;
  while (e > b && (s[e - 1] == ' ' || s[e - 1] == '\t' || s[e - 1] == '\n' ||
                   s[e - 1] == '\r'))
    --e;
  return s.substr(b, e - b);
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

std::optional<uint64_t> ParseDecimal(std::string_view text, uint64_t lo,
                                     uint64_t hi) {
  uint64_t value = 0;
  const char* const end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ptr != end || ec != std::errc() || value < lo ||
      value > hi) {
    return std::nullopt;
  }
  return value;
}

StatusOr<uint64_t> ParseFlagValue(std::string_view flag, std::string_view text,
                                  uint64_t lo, uint64_t hi) {
  const std::optional<uint64_t> value = ParseDecimal(text, lo, hi);
  if (!value) {
    return Status::InvalidArgument(
        "--" + std::string(flag) + " expects a number from " +
        std::to_string(lo) + " to " + std::to_string(hi) + ", got '" +
        std::string(text) + "'");
  }
  return *value;
}

}  // namespace pfql
