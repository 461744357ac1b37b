#!/usr/bin/env bash
# Same-runner A/B of the partitioned runtime's throughput: builds
# <base-ref> (exported with `git archive`) and the checkout, both Release,
# then runs `bench_parallel_speedup <items>` in alternating pairs — base
# first in odd pairs, head first in even ones, so drift on a shared
# runner hits both sides alike. Prints every run, then each side's
# median and quartiles of serial_items_per_s and parallel_items_per_s,
# and fails when head's median of either falls below 0.9x base's.
#
# Both sides run on the same machine in the same job, so the gate never
# compares against a number recorded on other hardware.
#
# Usage: scripts/perf_ab.sh <base-ref> [pairs] [items_per_stream]
#   pairs             alternating base/head pairs, at least 5 (default 5)
#   items_per_stream  bench input size (default 2000)

set -euo pipefail

if [[ $# -lt 1 ]]; then
  echo "usage: $0 <base-ref> [pairs] [items_per_stream]" >&2
  exit 2
fi
BASE_REF="$1"
PAIRS="${2:-5}"
ITEMS="${3:-2000}"
if (( PAIRS < 5 )); then
  echo "perf_ab: need at least 5 pairs, got ${PAIRS}" >&2
  exit 2
fi

ROOT="$(git rev-parse --show-toplevel)"
WORK="$(mktemp -d)"
trap 'rm -rf "${WORK}"' EXIT

build() {  # <source dir> <build dir>
  cmake -S "$1" -B "$2" -DCMAKE_BUILD_TYPE=Release \
    -DSTREAMSHARE_BUILD_TESTS=OFF -DSTREAMSHARE_BUILD_EXAMPLES=OFF \
    > "$2.log" 2>&1
  cmake --build "$2" -j "$(nproc)" --target bench_parallel_speedup \
    >> "$2.log" 2>&1 || { cat "$2.log" >&2; exit 1; }
}

mkdir -p "${WORK}/base-src"
git -C "${ROOT}" archive "${BASE_REF}" | tar -x -C "${WORK}/base-src"
echo "# building base ${BASE_REF} ($(git -C "${ROOT}" rev-parse --short "${BASE_REF}"))"
build "${WORK}/base-src" "${WORK}/base"
echo "# building head (checkout of $(git -C "${ROOT}" rev-parse --short HEAD))"
build "${ROOT}" "${WORK}/head"

RESULTS="${WORK}/results.txt"
run() {  # <side> <pair>
  local out
  out="$("${WORK}/$1/bench/bench_parallel_speedup" "${ITEMS}")"
  if ! grep -q '^identical=1$' <<< "${out}"; then
    echo "perf_ab: $1 run $2 lost bit-identity with the serial run" >&2
    exit 1
  fi
  local serial parallel
  serial="$(grep '^serial_items_per_s=' <<< "${out}" | cut -d= -f2)"
  parallel="$(grep '^parallel_items_per_s=' <<< "${out}" | cut -d= -f2)"
  echo "pair=$2 side=$1 serial_items_per_s=${serial} parallel_items_per_s=${parallel}" \
    | tee -a "${RESULTS}"
}

for (( pair = 1; pair <= PAIRS; ++pair )); do
  if (( pair % 2 == 1 )); then
    run base "${pair}"; run head "${pair}"
  else
    run head "${pair}"; run base "${pair}"
  fi
done

python3 - "${RESULTS}" <<'EOF'
import statistics
import sys

runs = {"base": {}, "head": {}}
for line in open(sys.argv[1]):
    fields = dict(kv.split("=", 1) for kv in line.split())
    for metric in ("serial_items_per_s", "parallel_items_per_s"):
        runs[fields["side"]].setdefault(metric, []).append(
            float(fields[metric]))

failed = False
for metric in ("serial_items_per_s", "parallel_items_per_s"):
    summary = {}
    for side in ("base", "head"):
        values = runs[side][metric]
        q1, median, q3 = statistics.quantiles(values, n=4)
        summary[side] = statistics.median(values)
        print(f"{metric} {side}: median {summary[side]:.0f} "
              f"(q1 {q1:.0f}, q3 {q3:.0f}, n={len(values)})")
    ratio = summary["head"] / summary["base"]
    print(f"{metric} head/base median ratio: {ratio:.3f}")
    if ratio < 0.9:
        print(f"FAIL: {metric} head median fell below 0.9x base")
        failed = True
sys.exit(1 if failed else 0)
EOF
