#!/usr/bin/env bash
# The four timing gates, one after another:
#
#   timing_gates.sh BENCH_BIN_DIR REPO_DIR GATE...
#
# GATE is kernels, radius, service or refine. Each runs
# tools/regress_gate.sh on its benchmark binary (from BENCH_BIN_DIR,
# where dune builds bench/), its committed baseline and data (from
# REPO_DIR) and its tolerance; bench/dune says how each tolerance was
# derived. Every named gate runs, even after one fails, and the exit
# status is non-zero when any failed. `dune build @ci` runs all four
# after the test suites and crashprobe, so no gate times its benchmark
# beside another rule's load; the bench/regress-gate* aliases run one.
set -u

bin=$1
repo=$2
shift 2
gate=$(dirname "$0")/regress_gate.sh
failed=()
for g in "$@"; do
  echo "== timing gate: $g"
  case $g in
    kernels)
      bash "$gate" "$bin/kernels.exe" "$bin/check_regress.exe" "$repo/BENCH_kernels.json" \
        "$repo/bench/fixtures" ;;
    radius)
      bash "$gate" "$bin/radius.exe" "$bin/check_regress.exe" "$repo/BENCH_radius.json" \
        "$repo/data" 0.20 ;;
    service)
      bash "$gate" "$bin/daemon.exe" "$bin/check_regress.exe" "$repo/BENCH_service.json" \
        "$repo/data" 0.75 ;;
    refine)
      bash "$gate" "$bin/refine.exe" "$bin/check_regress.exe" "$repo/BENCH_refine.json" \
        "$repo/data" 0.25 --models small_3 ;;
    *)
      echo "timing_gates.sh: unknown gate $g" >&2
      false ;;
  esac || failed+=("$g")
done
if [ ${#failed[@]} -gt 0 ]; then
  echo "timing gates failed: ${failed[*]}" >&2
  exit 1
fi
