#!/usr/bin/env bash
# Paired end-to-end comparison of a parent checkout (A) and this tree (B).
#
#   tools/e2e_pairs.sh PARENT_DIR OUT_DIR SEEDS -- WORKLOADS
#
#   tools/e2e_pairs.sh ../parent /tmp/pairs 1 2 3 4 5 6 7 8 9 10 -- batch-ladder radius-fast
#
# For each seed and workload it runs the command that BENCHMARK.json
# declares (in each checkout, its own) for `run_seconds`, once in
# PARENT_DIR and once in this tree, as bench/e2e/README.md's pair
# procedure does: an odd seed runs this tree first, an even seed the
# parent. Each run's standard output goes to
# OUT_DIR/{A,B}/<workload>.<seed>.json. Then this tree's compare.exe
# rates B against A, the script reports for each workload and seed
# whether A's and B's `digest` lines match and how many differ, and it
# exits with compare's status.
#
# SEEDS and WORKLOADS are words; a quoted list ("1 2 3") works too. A
# run that exits non-zero is reported on stderr and left for compare to
# judge. Nothing under bench/e2e is written.
#
# B is always the checkout this script lives in, so run the copy in the
# tree you changed. Before the runs it prints each tree's path, short
# HEAD and whether its work tree is dirty, and warns when both are clean
# at the same commit (B would be rated against itself). It exits 2 when
# PARENT_DIR is this tree.
set -eu

usage() {
  echo "usage: $0 PARENT_DIR OUT_DIR SEEDS -- WORKLOADS" >&2
  exit 2
}

[ "$#" -ge 4 ] || usage
parent=$(realpath "$1")
out=$(realpath -m "$2")
shift 2
seeds=()
while [ "$#" -gt 0 ] && [ "$1" != "--" ]; do
  for s in $1; do seeds+=("$s"); done
  shift
done
[ "$#" -gt 0 ] || usage
shift
workloads=()
for w in "$@"; do
  for x in $w; do workloads+=("$x"); done
done
[ "${#seeds[@]}" -gt 0 ] && [ "${#workloads[@]}" -gt 0 ] || usage

here=$(cd "$(dirname "$0")/.." && pwd -P)
if [ "$parent" = "$here" ]; then
  echo "e2e_pairs: PARENT_DIR is this tree ($here); B is always the script's own checkout" >&2
  exit 2
fi

# tree DIR: short HEAD and whether the work tree is dirty
tree() {
  local head
  if head=$(git -C "$1" rev-parse --short HEAD 2>/dev/null); then
    if [ -n "$(git -C "$1" status --porcelain)" ]; then
      echo "$head dirty"
    else
      echo "$head clean"
    fi
  else
    echo "not a git checkout"
  fi
}
a_tree=$(tree "$parent")
b_tree=$(tree "$here")
echo "A: $parent ($a_tree)"
echo "B: $here ($b_tree)"
if [ "$a_tree" = "$b_tree" ] && [ "${a_tree##* }" = clean ]; then
  echo "e2e_pairs: warning: A and B are both clean at ${a_tree% *}; B is rated against itself" >&2
fi
mkdir -p "$out/A" "$out/B"

# run DIR SET WORKLOAD SEED: the checkout's own benchmark command
run() {
  local dir=$1 set=$2 w=$3 seed=$4 cmd secs status=0
  mapfile -t cmd < <(jq -r '.command[]' "$dir/BENCHMARK.json")
  secs=$(jq -r '.run_seconds' "$dir/BENCHMARK.json")
  echo "[$(date +%T)] $set $w seed $seed" >&2
  (cd "$dir" && "${cmd[@]}" --workload "$w" --seed "$seed" --seconds "$secs") \
    > "$out/$set/$w.$seed.json" || status=$?
  if [ "$status" -ne 0 ]; then
    echo "e2e_pairs: $set $w seed $seed exited $status" >&2
  fi
}

for seed in "${seeds[@]}"; do
  for w in "${workloads[@]}"; do
    if [ $((seed % 2)) -eq 0 ]; then
      run "$parent" A "$w" "$seed"
      run "$here" B "$w" "$seed"
    else
      run "$here" B "$w" "$seed"
      run "$parent" A "$w" "$seed"
    fi
  done
done

status=0
(cd "$here" && dune exec --root . --display=quiet ./bench/e2e/compare.exe -- \
  --spec BENCHMARK.json "$out/A" "$out/B") || status=$?

# digest_of FILE: the hash on a run's digest line, or "missing"
digest_of() {
  local d
  d=$(grep -m1 '^digest ' "$1" 2>/dev/null) || true
  echo "${d##*: }" | grep . || echo missing
}

differ=0
total=0
for w in "${workloads[@]}"; do
  for seed in "${seeds[@]}"; do
    a=$(digest_of "$out/A/$w.$seed.json")
    b=$(digest_of "$out/B/$w.$seed.json")
    total=$((total + 1))
    if [ "$a" != missing ] && [ "$a" = "$b" ]; then
      echo "digest $w seed $seed: same"
    else
      differ=$((differ + 1))
      echo "digest $w seed $seed: differs (A $a, B $b)"
    fi
  done
done
echo "digests: $differ of $total differ"
exit "$status"
