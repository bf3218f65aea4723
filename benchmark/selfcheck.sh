#!/usr/bin/env bash
# Is the benchmark steady enough to gate on? Runs the suite twice at
# seed 42 and once at seed 7, then compares the two same-seed runs
# metric by metric against the bounds in BENCHMARK.json and prints
# metric, run A, run B, spread, bound, verdict. Counts marked exact must
# agree to the last digit.
#
#   benchmark/selfcheck.sh           both passes, full op counts (~18 min)
#   benchmark/selfcheck.sh --quick   untraced pass, op counts ÷ 10: a smoke
#                                    test (~2 min; set-up dominates it)
#
# Exit status is non-zero if a run is incorrect, a bounded metric moves
# by more than its bound, or an exact count differs.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
args=(--traced)
if [ "${1:-}" = "--quick" ]; then
  args=(--seconds 1.5)
fi

out="$here/out"
mkdir -p "$out"
a="$out/selfcheck-a.jsonl"
b="$out/selfcheck-b.jsonl"
c="$out/selfcheck-seed7.jsonl"
rm -f "$a" "$b" "$c"

status=0
"$here/run.sh" --seed 42 "${args[@]}" --results "$a" > "$out/selfcheck-a.txt" || status=1
"$here/run.sh" --seed 42 "${args[@]}" --results "$b" > "$out/selfcheck-b.txt" || status=1
"$here/run.sh" --seed 7 "${args[@]}" --results "$c" > "$out/selfcheck-seed7.txt" || status=1
if [ $status -ne 0 ]; then
  echo "selfcheck: a run was incorrect; see $out/selfcheck-*.txt" >&2
fi

target="${CARGO_TARGET_DIR:-$root/target}"
"$target/release/segdb-benchmark" --compare "$a" "$b" --bounds "$root/BENCHMARK.json" || status=1
grep -c '"correct":true' "$c" | sed 's/^/selfcheck: correct runs at seed 7: /'
exit $status
