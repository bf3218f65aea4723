#!/usr/bin/env bash
# The segdb benchmark: build, run each workload in a child process of
# its own, check every answer, print every metric by name with its unit.
#
#   benchmark/run.sh                       all five workloads, untraced pass
#   benchmark/run.sh --traced              ... followed by the traced pass
#   benchmark/run.sh --workload served_rw  one workload
#   benchmark/run.sh --seed 7 --seconds 5  another seed, a third of the ops
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                          one run of one pass (the driver's form);
#                                          the last line of stdout is the result
#   --results FILE                         also append one result line per run to FILE
#
# Exit status is non-zero if the build fails or any run is incorrect
# (a failed op, device reads on the hot row).
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"

seed=42
seconds=15
workloads=()
passes=()
results=""
while [ $# -gt 0 ]; do
  case "$1" in
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --workload) workloads+=("$2"); shift 2 ;;
    --trace) passes=("$2"); shift 2 ;;
    --traced) passes=(0 1); shift ;;
    --results) results="$2"; shift 2 ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done
[ ${#workloads[@]} -gt 0 ] || workloads=(embedded_hot embedded_cold embedded_batch served_read served_rw)
[ ${#passes[@]} -gt 0 ] || passes=(0)

# Offline, and into the workspace's own target directory unless the
# caller chose one, so the crates are compiled once for both.
target="${CARGO_TARGET_DIR:-$root/target}"
cargo build --release --offline --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2
bin="$target/release/segdb-benchmark"

out="$here/out"
mkdir -p "$out"
# Database and WAL files live here and go away with the script, also
# when a run fails.
scratch="$(mktemp -d -p "$out" scratch.XXXXXX)"
trap 'rm -rf "$scratch"' EXIT

status=0
for pass in "${passes[@]}"; do
  for workload in "${workloads[@]}"; do
    echo "# rustc: $(rustc --version)"
    log="$scratch/stdout"
    "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$pass" \
      --scratch "$scratch" --out "$out" | tee "$log" || status=1
    if [ -n "$results" ]; then
      printf '{"workload":"%s","trace":%s,"result":%s}\n' \
        "$workload" "$pass" "$(tail -n 1 "$log")" >> "$results"
    fi
  done
done
exit $status
