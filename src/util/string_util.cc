#include "util/string_util.h"

#include <charconv>

namespace pfql {

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
