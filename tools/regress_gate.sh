#!/usr/bin/env bash
# Hermetic benchmark regression gate for `dune build @ci`.
#
#   regress_gate.sh BENCH_EXE CHECK_REGRESS_EXE BASELINE_JSON [DATA_DIR] [TOLERANCE]
#
# The committed baseline (BENCH_kernels.json or BENCH_radius.json) is
# copied into a scratch directory as the "previous" snapshot, the
# benchmark re-measures on this machine (rotating the copy to
# *.prev.json), and check_regress.exe fails the build if any metric got
# more than 25% slower than the committed baseline. Nothing outside the
# scratch directory is touched, so the gate cannot dirty the
# repository's own snapshot rotation. The optional DATA_DIR is resolved
# to an absolute path and forwarded as --data (benchmarks that load zoo
# models need it, since the benchmark runs inside the scratch dir). The
# optional TOLERANCE (a fraction, default check_regress's 0.25) widens
# the gate; the radius and service gates pass one (bench/dune says
# why). Any arguments past TOLERANCE are forwarded to the benchmark
# verbatim (the
# refine gate re-measures a subset of the committed baseline's models;
# check_regress reports the missing rows as dropped without failing).
set -eu

bench=$(realpath "$1")
check=$(realpath "$2")
baseline=$(realpath "$3")
data_args=()
if [ "$#" -ge 4 ]; then
  data_args=(--data "$(realpath "$4")")
fi
check_args=()
if [ "$#" -ge 5 ]; then
  check_args=(--tolerance "$5")
fi
bench_args=()
if [ "$#" -ge 6 ]; then
  bench_args=("${@:6}")
fi

tmp=$(mktemp -d regress_gate.XXXXXX)
trap 'rm -rf "$tmp"' EXIT

base=$(basename "$baseline")
cp "$baseline" "$tmp/$base"
(cd "$tmp" && "$bench" --json --out "$base" ${data_args[@]+"${data_args[@]}"} \
  ${bench_args[@]+"${bench_args[@]}"})
"$check" --current "$tmp/$base" ${check_args[@]+"${check_args[@]}"}
