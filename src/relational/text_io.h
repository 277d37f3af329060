// Plain-text serialization of database instances, so programs and data can
// live in files and be fed to the CLI driver. Format:
//
//   # comment (also %)
//   relation e(i, j, p) {
//     (0, 1, 1)
//     (0, 2, 3.5)
//     ("quoted string", bare_word, -7)
//   }
//   relation c(i) {}
//
// Bare lower-case words parse as strings; numbers as int64 or double;
// double-quoted strings may contain spaces and escaped quotes (\" and \\).
// FormatInstance round-trips through ParseInstanceText exactly.
#ifndef PFQL_RELATIONAL_TEXT_IO_H_
#define PFQL_RELATIONAL_TEXT_IO_H_

#include <string>
#include <string_view>

#include "relational/instance.h"
#include "util/status.h"

namespace pfql {

/// Parses the textual instance format above.
StatusOr<Instance> ParseInstanceText(std::string_view text);

/// Serializes an instance; output parses back to an equal instance.
std::string FormatInstance(const Instance& instance);

/// Reads and parses an instance file.
StatusOr<Instance> LoadInstanceFile(const std::string& path);

}  // namespace pfql

#endif  // PFQL_RELATIONAL_TEXT_IO_H_
