#!/bin/sh
# Checks that the default build and a -DNDEBUG build give the same ctest
# results: the library asserts in every build type (CMakeLists.txt strips
# -DNDEBUG from the build-type flags), so a test that passes only because
# an assert aborts first, or only because none does, shows up here.
#
#   tools/ndebug_parity.sh <scratch-dir>
#
# <scratch-dir> is a scratch directory outside the repository (say
# /tmp/parity); the script refuses one that resolves inside it, where the
# builds would litter the tree. Builds the repository in
# <scratch-dir>/default with the default configuration and in
# <scratch-dir>/ndebug with -DCMAKE_CXX_FLAGS=-DNDEBUG, runs the whole
# ctest suite in each (in parallel, one job per core), and compares the
# sets of passed, skipped and failed test names, printing every test whose
# outcome differs. Both builds and suites take about 6 minutes on 4
# cores; a rerun that rebuilds nothing, about 20 seconds. The perf-smoke
# timing gates run in both suites, so a busy host can fail one of them in
# one build only; rerun before reading such a difference as an assertion
# effect.
#
# Exit status: 0 when both builds give identical result sets, 1 when they
# differ, 2 on a usage or build error.
set -eu

if [ $# -ne 1 ]; then
  echo "usage: $0 <scratch-dir>" >&2
  exit 2
fi
Root=$(cd "$(dirname "$0")/.." && pwd -P)
Scratch=$(realpath -m "$1")
case "$Scratch/" in
"$Root"/*)
  echo "$0: $1 is inside the repository; pass a scratch dir outside it" >&2
  exit 2
  ;;
esac
Jobs=$(nproc)

# build_and_test <name> [cmake args...]: builds into <scratch>/<name>, runs
# ctest there, and writes "<outcome> <test name>" lines, sorted, to
# <scratch>/<name>.results (outcome: passed, skipped or failed).
build_and_test() {
  Name=$1
  shift
  Build=$Scratch/$Name
  mkdir -p "$Build"
  cmake -S "$Root" -B "$Build" "$@" >"$Build/configure.log" 2>&1 ||
    { cat "$Build/configure.log" >&2; exit 2; }
  cmake --build "$Build" -j"$Jobs" >"$Build/build.log" 2>&1 ||
    { tail -40 "$Build/build.log" >&2; exit 2; }
  # A failing test is an outcome to compare, not an error of this script.
  ctest --test-dir "$Build" -j"$Jobs" --output-junit "$Build/junit.xml" \
    >"$Build/ctest.log" 2>&1 || true
  [ -s "$Build/junit.xml" ] ||
    { tail -40 "$Build/ctest.log" >&2; exit 2; }
  # One <testcase name="..." ... status="run|fail|notrun|disabled"> per
  # line; skipped tests report notrun.
  sed -n 's/^[[:space:]]*<testcase name="\([^"]*\)".* status="\([a-z]*\)".*$/\2 \1/p' \
    "$Build/junit.xml" |
    sed -e 's/^run /passed /' -e 's/^fail /failed /' \
      -e 's/^notrun /skipped /' -e 's/^disabled /skipped /' |
    sort >"$Scratch/$Name.results"
  echo "$Name: $(grep -c '^passed ' "$Scratch/$Name.results") passed," \
    "$(grep -c '^skipped ' "$Scratch/$Name.results") skipped," \
    "$(grep -c '^failed ' "$Scratch/$Name.results") failed"
}

build_and_test default
build_and_test ndebug -DCMAKE_CXX_FLAGS=-DNDEBUG

if diff "$Scratch/default.results" "$Scratch/ndebug.results" \
  >"$Scratch/parity.diff"; then
  echo "default and -DNDEBUG builds give identical ctest results"
  exit 0
fi
echo "default (<) and -DNDEBUG (>) ctest results differ:"
grep '^[<>]' "$Scratch/parity.diff"
exit 1
