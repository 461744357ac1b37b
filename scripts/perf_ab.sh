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
#
# The --perfbench mode A/Bs one perfbench workload the same way: it runs
# `perfbench/run.py` from an export of <base-ref> and from the checkout
# in alternating pairs (both sides of a pair on the same seed, seeds
# first_seed, first_seed+1, ...), prints every run, each end-to-end
# metric's median and quartiles per side, and in how many pairs head
# beat base (direction from BENCHMARK.json). It gates nothing; it fails
# only when a run fails or an output check does not pass.
#
# Usage: scripts/perf_ab.sh --perfbench <workload> <base-ref> [pairs]
#          [seconds] [first_seed]
#   pairs       alternating base/head pairs, at least 2 (default 10)
#   seconds     length of each perfbench run (default 45)
#   first_seed  seed of the first pair (default 1)

set -euo pipefail

perfbench_ab() {  # <workload> <base-ref> [pairs] [seconds] [first_seed]
  if [[ $# -lt 2 ]]; then
    echo "usage: $0 --perfbench <workload> <base-ref> [pairs] [seconds] [first_seed]" >&2
    exit 2
  fi
  local workload="$1" base_ref="$2" pairs="${3:-10}" seconds="${4:-45}"
  local first_seed="${5:-1}"
  if (( pairs < 2 )); then
    echo "perf_ab: need at least 2 pairs, got ${pairs}" >&2
    exit 2
  fi
  local root
  root="$(git rev-parse --show-toplevel)"
  work="$(mktemp -d)"  # global: the EXIT trap runs after this returns
  trap 'rm -rf "${work}"' EXIT
  mkdir -p "${work}/base-src" "${work}/runs"
  git -C "${root}" archive "${base_ref}" | tar -x -C "${work}/base-src"
  echo "# base ${base_ref} ($(git -C "${root}" rev-parse --short "${base_ref}")), head: checkout of $(git -C "${root}" rev-parse --short HEAD)"

  run_side() {  # <side> <pair>
    local dir="${root}" seed=$(( first_seed + $2 - 1 ))
    [[ "$1" == base ]] && dir="${work}/base-src"
    local out="${work}/runs/$2-$1"
    if ! (cd "${dir}" && python3 perfbench/run.py --workload "${workload}" \
            --seed "${seed}" --seconds "${seconds}") > "${out}.log" 2>&1; then
      cat "${out}.log" >&2
      echo "perf_ab: $1 run of pair $2 failed" >&2
      exit 1
    fi
    tail -n 1 "${out}.log" > "${out}.json"
    echo "# pair $2: $1 run done (seed ${seed})"
  }
  for (( pair = 1; pair <= pairs; ++pair )); do
    if (( pair % 2 == 1 )); then
      run_side base "${pair}"; run_side head "${pair}"
    else
      run_side head "${pair}"; run_side base "${pair}"
    fi
  done

  python3 - "${work}/runs" "${pairs}" "${root}/BENCHMARK.json" <<'PY'
import json
import os
import statistics
import sys

runs_dir, pairs, spec_path = sys.argv[1], int(sys.argv[2]), sys.argv[3]
better = {}
if os.path.exists(spec_path):
    for metric in json.load(open(spec_path)).get("end_to_end", []):
        better[metric["name"]] = metric["better"]

runs = {}
for pair in range(1, pairs + 1):
    for side in ("base", "head"):
        result = json.load(open(os.path.join(runs_dir, f"{pair}-{side}.json")))
        if not result["correct"]:
            sys.exit(f"perf_ab: {side} run of pair {pair} failed its output check")
        runs[(pair, side)] = result
        values = " ".join(f"{name}={entry['value']:.6g}"
                          for name, entry in result["metrics"].items())
        print(f"pair={pair} side={side} attempted={result['attempted']} "
              f"failed={result['failed']} {values}")

for name in runs[(1, "base")]["metrics"]:
    for side in ("base", "head"):
        values = [runs[(pair, side)]["metrics"][name]["value"]
                  for pair in range(1, pairs + 1)]
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
        print(f"{name} {side}: median {median:.6g} "
              f"(q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)})")
    if name in better:
        sign = 1 if better[name] == "higher" else -1
        wins = sum(
            1 for pair in range(1, pairs + 1)
            if sign * (runs[(pair, "head")]["metrics"][name]["value"] -
                       runs[(pair, "base")]["metrics"][name]["value"]) > 0)
        print(f"{name}: head better ({better[name]}) in {wins} of {pairs} pairs")
PY
}

if [[ "${1:-}" == "--perfbench" ]]; then
  shift
  perfbench_ab "$@"
  exit 0
fi

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
