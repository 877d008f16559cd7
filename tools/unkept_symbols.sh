#!/bin/sh
# Lists the scg:: functions that src/ defines but no runnable binary keeps,
# and fails on any that tools/unkept_symbols.allow does not list.
#
#   tools/unkept_symbols.sh <scratch-dir>
#
# Builds every bench, every example and scg_perfbench in
# <scratch-dir>/gc-build with -ffunction-sections -fdata-sections and a
# --gc-sections link, then compares the strong scg:: functions of the
# libscg_*.a libraries (scg::detail and anonymous namespaces excluded)
# with the symbols the linked binaries keep. A function no binary keeps is
# either dead, test-only (its home is tests/), or inlined at every src/
# call site; the allowlist names the kept ones, one per line:
#
#   <demangled symbol>  # <reason it stays in src/>
#
# The build takes about a minute on 4 cores. Exit status: 0 when every
# unkept symbol is listed, 1 when one is not, 2 on a usage or build error.
set -eu

if [ $# -ne 1 ]; then
  echo "usage: $0 <scratch-dir>" >&2
  exit 2
fi
Root=$(cd "$(dirname "$0")/.." && pwd)
Build=$1/gc-build
Allow=$Root/tools/unkept_symbols.allow
mkdir -p "$Build"

Targets="scg_perfbench"
for F in "$Root"/bench/bench_*.cpp "$Root"/examples/*.cpp; do
  Targets="$Targets $(basename "$F" .cpp)"
done

cmake -S "$Root" -B "$Build" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="-ffunction-sections -fdata-sections" \
  -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections" \
  -DCMAKE_PROJECT_INCLUDE="$Root/perfbench/cmake/hook.cmake" \
  >"$Build/configure.log" 2>&1 || { cat "$Build/configure.log" >&2; exit 2; }
# shellcheck disable=SC2086
cmake --build "$Build" -j"$(nproc)" --target $Targets \
  >"$Build/build.log" 2>&1 || { tail -40 "$Build/build.log" >&2; exit 2; }

# "<address> <type> <demangled name>" -> name, for the given symbol types.
symbols() {
  Types=$1
  shift
  nm -C --defined-only "$@" 2>/dev/null |
    awk -v T="$Types" 'NF >= 3 && index(T, $2) {
      sub(/^[^ ]+ [^ ]+ /, ""); print }' | sort -u
}

Libs=$(find "$Build/src" -name 'libscg_*.a')
Bins=$(for T in $Targets; do find "$Build" -type f -name "$T" -perm -u+x; done)
# shellcheck disable=SC2086
symbols T $Libs | grep '^scg::' | grep -v '^scg::detail::' |
  grep -v '(anonymous namespace)' >"$Build/defined.txt"
# shellcheck disable=SC2086
symbols TtWw $Bins >"$Build/kept.txt"
comm -23 "$Build/defined.txt" "$Build/kept.txt" >"$Build/unkept.txt"

grep -v '^#' "$Allow" | sed -n 's/  # .*//p' | sort -u >"$Build/allowed.txt"
comm -23 "$Build/unkept.txt" "$Build/allowed.txt" >"$Build/unlisted.txt"
comm -13 "$Build/unkept.txt" "$Build/allowed.txt" >"$Build/stale.txt"

echo "$(wc -l <"$Build/defined.txt") scg:: functions defined," \
  "$(wc -l <"$Build/unkept.txt") kept by no binary," \
  "$(wc -l <"$Build/unlisted.txt") of them not in the allowlist"
if [ -s "$Build/stale.txt" ]; then
  echo "allowlist entries every binary now drops or keeps (prune them):"
  sed 's/^/  /' "$Build/stale.txt"
fi
if [ -s "$Build/unlisted.txt" ]; then
  echo "unkept and not listed in tools/unkept_symbols.allow:"
  sed 's/^/  /' "$Build/unlisted.txt"
  exit 1
fi
