// Small string helpers shared across modules.
#ifndef PFQL_UTIL_STRING_UTIL_H_
#define PFQL_UTIL_STRING_UTIL_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace pfql {

/// Joins the elements' string forms with `sep` in between.
template <typename Container>
std::string JoinStrings(const Container& items, std::string_view sep) {
  std::string out;
  bool first = true;
  for (const auto& item : items) {
    if (!first) out += sep;
    first = false;
    out += item;
  }
  return out;
}

/// True if `s` starts with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

/// Reads all of `text` as decimal digits (no sign, space or trailing text)
/// for a value in [lo, hi]; nullopt otherwise, a value that wraps included.
std::optional<uint64_t> ParseDecimal(std::string_view text, uint64_t lo,
                                     uint64_t hi);

/// Reads numeric command-line flag `--flag` with ParseDecimal, else
/// InvalidArgument naming the flag and its range.
StatusOr<uint64_t> ParseFlagValue(std::string_view flag, std::string_view text,
                                  uint64_t lo, uint64_t hi);

/// Combines a hash into a seed (boost::hash_combine recipe, 64-bit).
inline void HashCombine(size_t* seed, size_t value) {
  *seed ^= value + 0x9e3779b97f4a7c15ULL + (*seed << 6) + (*seed >> 2);
}

}  // namespace pfql

#endif  // PFQL_UTIL_STRING_UTIL_H_
