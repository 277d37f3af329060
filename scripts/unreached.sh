#!/usr/bin/env bash
# Lists the functions of src/ that no shipped binary reaches. Run from the
# repository root:
#
#   scripts/unreached.sh [build-dir]      # default build-unreached
#
# It configures src/ at -O0 with -ffunction-sections -fdata-sections and
# links with -Wl,--gc-sections, so each binary keeps only the functions it
# can call. It builds the shipped binaries: pfql, pfqld, pfqlr and
# pfql-lint, every bench/ program and every example, and bench_e2e with its
# own pfqld and pfqlr from e2ebench/CMakeLists.txt (configured as it stands).
# It then prints, demangled and sorted, every strong function symbol that a
# src/ library defines and none of those binaries keeps, and their count.
# docs/INTERNALS.md names each function the list should hold and why it
# stays.
#
# Inline functions, templates and functions local to one file are weak or
# local symbols, so the list misses them: it undercounts what is unreached.
set -euo pipefail

out=${1:-build-unreached}
jobs=${JOBS:-$(nproc)}
flags=(-DCMAKE_BUILD_TYPE=Debug
       -DCMAKE_CXX_FLAGS_DEBUG=-O0
       "-DCMAKE_CXX_FLAGS=-ffunction-sections -fdata-sections"
       -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections)

# The executables that bench/ and examples/ add, read from their lists.
shipped=(pfql pfqld pfqlr pfql-lint)
shipped+=($(sed -n 's/^pfql_add_\(bench\|example\)(\([A-Za-z0-9_]*\)).*/\2/p' \
              bench/CMakeLists.txt examples/CMakeLists.txt))
shipped+=($(sed -n 's/^add_executable(\([A-Za-z0-9_]*\) .*/\1/p' \
              bench/CMakeLists.txt))

cmake -S . -B "$out/main" "${flags[@]}" > /dev/null
cmake --build "$out/main" -j "$jobs" --target "${shipped[@]}" > /dev/null
cmake -S e2ebench -B "$out/e2e" "${flags[@]}" > /dev/null
cmake --build "$out/e2e" -j "$jobs" --target bench_e2e > /dev/null

bins=()
for name in "${shipped[@]}"; do
  bins+=($(find "$out/main" -type f -name "$name" -perm -u+x))
done
for name in bench_e2e pfqld pfqlr; do
  bins+=($(find "$out/e2e" -type f -name "$name" -perm -u+x))
done
if [ "${#bins[@]}" -ne $((${#shipped[@]} + 3)) ]; then
  echo "unreached.sh: found ${#bins[@]} binaries, expected" \
       "$((${#shipped[@]} + 3))" >&2
  exit 1
fi

defined=$(mktemp)
kept=$(mktemp)
trap 'rm -f "$defined" "$kept"' EXIT
find "$out/main/src" -name 'libpfql_*.a' -print0 |
  xargs -0 nm --defined-only 2>/dev/null |
  awk '$2 == "T" { print $3 }' | sort -u > "$defined"
for bin in "${bins[@]}"; do
  nm --defined-only "$bin" | awk '{ print $3 }'
done | sort -u > "$kept"

unreached=$(comm -23 "$defined" "$kept" | c++filt | sort)
echo "src/ functions no shipped binary reaches: $(grep -c . <<< "$unreached" || true)"
[ -n "$unreached" ] && echo "$unreached"
exit 0
