#!/usr/bin/env bash
# Re-bless the golden outputs after a change that moves study outputs on
# purpose (for example a new normal sampler), so every moved byte comes
# from one documented command.
#
#   scripts/regen_golden.sh BUILD_DIR
#
# BUILD_DIR is a configured and built tree with tracing on (e.g. build/).
#   1. Every committed <bench>.csv at the repository root is rewritten by
#      running BUILD_DIR/bench/<bench> in a temporary directory.
#   2. tests/golden/canonical_phone_menu.trace (+ .jsonl) is re-recorded
#      by test_golden_trace under DISTSCROLL_REGEN_GOLDEN=1.
#   3. The golden_study_test digests are printed; paste the ones that
#      moved into tests/golden_study_test.cpp by hand.
# The host capture (tests/golden/canonical_host_ingest.dstl) is left
# alone: regenerate it with DISTSCROLL_REGEN_GOLDEN=1 BUILD_DIR/tests/test_host
# only when host output is meant to change.
#
# Afterwards `git diff --stat` lists every re-blessed file; each one must
# be explained where the change is described.
#
# Exit codes: 0 = regenerated, 1 = a bench or test step failed,
# 64 = malformed command line.
set -euo pipefail

if [[ $# -eq 1 && "$1" == "--help" ]]; then
  echo "usage: scripts/regen_golden.sh BUILD_DIR"
  exit 0
fi
if [[ $# -ne 1 ]]; then
  echo "usage: scripts/regen_golden.sh BUILD_DIR" >&2
  exit 64
fi
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="$(cd "$1" 2>/dev/null && pwd)" || { echo "regen_golden: no such directory '$1'" >&2; exit 64; }

WORK="$(mktemp -d)"
trap 'rm -rf "${WORK}"' EXIT

for csv in "${ROOT}"/*.csv; do
  bench="$(basename "${csv}" .csv)"
  bin="${BUILD}/bench/${bench}"
  [[ -x "${bin}" ]] || { echo "regen_golden: missing bench binary ${bin}" >&2; exit 1; }
  mkdir "${WORK}/${bench}"
  (cd "${WORK}/${bench}" && "${bin}" >stdout.txt 2>&1) ||
    { echo "regen_golden: ${bench} failed (see its output below)" >&2; cat "${WORK}/${bench}/stdout.txt" >&2; exit 1; }
  cp "${WORK}/${bench}/${bench}.csv" "${csv}"
  echo "csv    ${bench}.csv"
done

DISTSCROLL_REGEN_GOLDEN=1 "${BUILD}/tests/test_golden_trace" >"${WORK}/trace.txt" 2>&1 ||
  { cat "${WORK}/trace.txt" >&2; exit 1; }
echo "trace  tests/golden/canonical_phone_menu.trace"

# The digest tests fail until the new constants are pasted in, so their
# exit status is not the verdict here; the printed lines are.
DISTSCROLL_REGEN_GOLDEN=1 "${BUILD}/tests/test_golden_study" >"${WORK}/study.txt" 2>&1 || true
grep '^golden_study ' "${WORK}/study.txt" ||
  { cat "${WORK}/study.txt" >&2; echo "regen_golden: no digests printed" >&2; exit 1; }
