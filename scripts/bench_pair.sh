#!/usr/bin/env bash
# Parent-vs-change measurement by alternating pairs of benchmark runs
# (the procedure a PR that claims a gain has to follow):
#
#   scripts/bench_pair.sh <parent-checkout> <change-checkout> [pairs=10] \
#       [--workload W]... [--seed S] [--seconds N]
#
# Each pair runs `benchmark/run.sh` once on each checkout — which side
# goes first alternates from pair to pair — every checkout building into
# its own `target/`. Everything after [pairs] is passed to run.sh as is.
# Per workload and end-to-end metric (the list in the change checkout's
# BENCHMARK.json) it prints both sides' median and quartiles, how many
# pairs the change won (ties count for neither), failed operations per
# side, and the values the two counts that must not move —
# pages_per_query and space_bytes_per_segment — took, to the 4 decimals
# the table prints. Each side's runs give a set of values per count; the
# summary prints the shared set and `identical` when both sides produced
# the same sets, and both sets and `DIFFER` otherwise. (served_rw's
# pages_per_query moves in the fifth decimal with how its writes
# interleave with its reads; that alone is no difference between sides.)
#
# Result lines (one per run, as `run.sh --results` writes them) and each
# run's output stay in the directory named on the last line.
set -euo pipefail

usage() {
    echo "usage: scripts/bench_pair.sh <parent-checkout> <change-checkout> [pairs=10] [run.sh args]" >&2
    exit 2
}
[ $# -ge 2 ] || usage
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
shift 2
pairs=10
if [ $# -gt 0 ] && [[ "$1" =~ ^[0-9]+$ ]]; then
    pairs=$1
    shift
fi
[ "$pairs" -ge 1 ] || usage
for side in "$parent" "$change"; do
    [ -x "$side/benchmark/run.sh" ] || { echo "bench_pair: no benchmark/run.sh in $side" >&2; exit 2; }
done

out=$(mktemp -d "${TMPDIR:-/tmp}/bench_pair.XXXXXX")
run_side() { # <name> <checkout> <pair> <run.sh args...>
    local name=$1 checkout=$2 pair=$3
    shift 3
    CARGO_TARGET_DIR="$checkout/target" "$checkout/benchmark/run.sh" "$@" \
        --results "$out/$name.jsonl" > "$out/$name-$pair.txt" 2>&1 ||
        echo "bench_pair: $name run $pair exited non-zero (see $out/$name-$pair.txt)" >&2
}
for pair in $(seq 1 "$pairs"); do
    echo "pair $pair/$pairs" >&2
    if [ $((pair % 2)) -eq 1 ]; then
        run_side parent "$parent" "$pair" "$@"
        run_side change "$change" "$pair" "$@"
    else
        run_side change "$change" "$pair" "$@"
        run_side parent "$parent" "$pair" "$@"
    fi
done

# "name better" per end-to-end metric, from the `end_to_end` list.
metrics=$(tr -d ' \n' < "$change/BENCHMARK.json" |
    sed 's/.*"end_to_end":\[\([^]]*\)\].*/\1/' |
    grep -o '"name":"[^"]*","unit":"[^"]*","better":"[^"]*"' |
    sed 's/"name":"\([^"]*\)".*"better":"\([^"]*\)"/\1 \2/')

awk -v metrics="$metrics" '
function value(line, name,    at, rest) {
    at = index(line, "\"" name "\":{\"value\":")
    if (!at) return "";
    rest = substr(line, at + length(name) + 12)
    sub(/[,}].*/, "", rest)
    return rest
}
function distinct(side, w, m, n,    r, i, j, k, t, v, s) {
    k = 0
    for (r = 1; r <= n; r++) {
        t = sprintf("%.4f", val[side, w, m, r])
        for (i = 1; i <= k && v[i] != t; i++) ;
        if (i > k) v[++k] = t
    }
    for (i = 2; i <= k; i++) { t = v[i]; for (j = i - 1; j >= 1 && v[j] + 0 > t + 0; j--) v[j + 1] = v[j]; v[j + 1] = t }
    s = ""
    for (i = 1; i <= k; i++) s = s (i > 1 ? ", " : "") v[i]
    return "{" s "}"
}
function quantile(side, w, m, n, q,    i, j, t, v, pos, lo) {
    for (i = 1; i <= n; i++) v[i] = val[side, w, m, i] + 0
    for (i = 2; i <= n; i++) { t = v[i]; for (j = i - 1; j >= 1 && v[j] > t; j--) v[j + 1] = v[j]; v[j + 1] = t }
    pos = 1 + (n - 1) * q; lo = int(pos)
    return lo >= n ? v[n] : v[lo] + (pos - lo) * (v[lo + 1] - v[lo])
}
BEGIN {
    nm = split(metrics, parts, /[ \n]+/) / 2
    for (i = 1; i <= nm; i++) { name[i] = parts[2 * i - 1]; better[i] = parts[2 * i] }
}
{
    side = FILENAME ~ /parent\.jsonl$/ ? "parent" : "change"
    match($0, /"workload":"[^"]*"/)
    w = substr($0, RSTART + 12, RLENGTH - 13)
    if (!(w in seen)) { seen[w] = 1; order[++nw] = w }
    n = ++runs[side, w]
    match($0, /"failed":[0-9]+/); failed[side, w] += substr($0, RSTART + 9, RLENGTH - 9)
    for (i = 1; i <= nm; i++) val[side, w, name[i], n] = value($0, name[i])
}
END {
    printf "%-15s %-24s %36s %36s %6s\n", "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "wins"
    for (k = 1; k <= nw; k++) {
        w = order[k]; n = runs["parent", w] < runs["change", w] ? runs["parent", w] : runs["change", w]
        for (i = 1; i <= nm; i++) {
            m = name[i]; wins = 0
            for (r = 1; r <= n; r++) {
                p = val["parent", w, m, r] + 0; c = val["change", w, m, r] + 0
                if (better[i] == "lower" ? c < p : c > p) wins++
            }
            printf "%-15s %-24s %14.4f [%9.4f,%9.4f] %14.4f [%9.4f,%9.4f] %3d/%d\n", w, m,
                quantile("parent", w, m, n, 0.5), quantile("parent", w, m, n, 0.25), quantile("parent", w, m, n, 0.75),
                quantile("change", w, m, n, 0.5), quantile("change", w, m, n, 0.25), quantile("change", w, m, n, 0.75),
                wins, n
        }
        same = "identical"; sets = ""
        split("pages_per_query space_bytes_per_segment", fixed, " ")
        for (i = 1; i <= 2; i++) {
            p = distinct("parent", w, fixed[i], n); c = distinct("change", w, fixed[i], n)
            if (p != c) same = "DIFFER"
            sets = sets (i > 1 ? ", " : "") fixed[i] " " (p == c ? p : "parent " p " change " c)
        }
        printf "%-15s failed: parent %d, change %d; %s %s over %d pairs\n",
            w, failed["parent", w], failed["change", w], sets, same, n
    }
}' "$out/parent.jsonl" "$out/change.jsonl"
echo "result lines and run logs: $out"
