#!/usr/bin/env bash
# Prints the line count of the C++ sources under src/ (every .cc and .h),
# the figure each CHANGES.md entry reports. Run from the repository root:
#
#   scripts/src_lines.sh
set -euo pipefail
find src -name '*.cc' -o -name '*.h' | xargs cat | wc -l
