#!/usr/bin/env bash
# One-shot pre-merge gate: configure, build, and test the flavours the
# determinism contract cares about.
#
#   default      lint + unit + property + golden + batch + fleet + host
#                (the full gate)
#   tracing-off  same labels — proves tracing compiled out changes no
#                behaviour (perf baselines are recorded for the tracing
#                build, so the perf gate only runs on default)
#   asan-ubsan   lint + unit + fuzz + host under ASan/UBSan (+ the
#                gcc/clang extra UBSan checks CMakeLists.txt adds per
#                compiler); host runs here too so the ingest drain loop
#                and the DSTL decoder get the over-read instrumentation
#   tsan         threading + fleet + host + batch under ThreadSanitizer:
#                every sim::ThreadPool user (sweep runner, fleet engine,
#                host ingest's per-lane produce phase, batch kernel)
#
# Every flavour runs the same pre-step: build ds_lint alone and assert
# `ds_lint --root .` exits 0 BEFORE the (much longer) test build. A
# dirty tree fails in seconds, not after minutes of compiling tests.
#
# The perf gate (ctest -L perf on the default build, which includes the
# bench_compare check against committed BENCH_*.json baselines) runs as
# its own step AFTER the flavours: bench_compare exits 77 when the
# environment is not comparable to the recorded baselines (different
# hardware thread count or tracing flavour), and that SKIP must surface
# in the summary as "environment not comparable" — not be folded into a
# flavour's pass/fail where it would read as a green perf check.
#
# The ds_lint sweep also runs at build time (tools/CMakeLists.txt makes
# lint_tree an ALL target), so a dirty tree fails `cmake --build` before
# ctest even starts.
#
# Usage: scripts/check.sh [jobs]   (default: nproc)
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${1:-$(nproc)}"

# Map a configure preset to its binaryDir (see CMakePresets.json).
preset_bindir() {
  case "$1" in
    default)     echo build ;;
    asan-ubsan)  echo build-asan ;;
    tsan)        echo build-tsan ;;
    tracing-off) echo build-notrace ;;
    *)           echo "unknown preset '$1'" >&2; exit 64 ;;
  esac
}

run_flavour() {
  local preset="$1" labels="$2"
  local bindir
  bindir="$(preset_bindir "${preset}")"
  echo "==> [${preset}] configure"
  cmake --preset "${preset}" >/dev/null
  echo "==> [${preset}] lint gate: ds_lint --root ."
  cmake --build --preset "${preset}" -j "${JOBS}" --target ds_lint >/dev/null
  "./${bindir}/tools/ds_lint" --root .
  echo "==> [${preset}] build"
  cmake --build --preset "${preset}" -j "${JOBS}"
  echo "==> [${preset}] ctest -L '${labels}'"
  ctest --preset "${preset}" -L "${labels}" --output-on-failure
}

# Separate perf step: distinguish bench_compare's SKIP (exit 77, wired
# into ctest as SKIP_RETURN_CODE — the run "passes" with ***Skipped)
# from a real FAIL, and say which one happened.
PERF_STATUS="ok"
run_perf_gate() {
  echo "==> [default] perf gate: ctest -L perf"
  local log
  log="$(mktemp)"
  if ! ctest --preset default -L perf --output-on-failure 2>&1 | tee "${log}"; then
    rm -f "${log}"
    echo "==> perf gate FAILED (regression or diverged results)" >&2
    exit 1
  fi
  if grep -q '\*\*\*Skipped' "${log}"; then
    PERF_STATUS="SKIP (environment not comparable to recorded baselines)"
  fi
  rm -f "${log}"
}

run_flavour default     'lint|unit|property|golden|batch|fleet|host'
run_flavour tracing-off 'lint|unit|property|golden|batch|fleet|host'
run_flavour asan-ubsan  'lint|unit|fuzz|host'
run_flavour tsan        'threading|fleet|host|batch'
run_perf_gate

echo "==> all flavours green (perf gate: ${PERF_STATUS})"
