#!/usr/bin/env bash
# Full local gate: everything CI would ask for, fully offline.
set -euo pipefail
cd "$(dirname "$0")/.."

# The build stays registry-free: no lock file resolves a crate from a
# registry, and no code, manifest, script or user doc brings the old
# external test harness back. Only the root-level planning and history
# notes other than the three user docs may name it. (Lower-case
# "criterion" on its own is an English word.)
echo "==> registry-free: no lock-file source, no external test harness"
if grep -n '^source = ' Cargo.lock benchmark/Cargo.lock; then
    echo "a lock file resolves a crate from a registry"; exit 1
fi
HARNESS='proptest|Criterion|criterion *=|criterion::|ext-deps|exttests'
if git grep -n -E "$HARNESS" -- ':!*.md' ':!scripts/check.sh' ||
    git grep -n -E "$HARNESS" -- '*/*.md' README.md DESIGN.md EXPERIMENTS.md; then
    echo "a tracked file names the external test harness"; exit 1
fi

echo "==> cargo build --workspace --release"
cargo build --workspace --release

echo "==> cargo test --workspace -q"
cargo test --workspace -q

# benchmark/ is a workspace of its own that links the crates' public
# items: an API break against it must fail here, not in the driver.
echo "==> benchmark package: build + tests against the current crates"
cargo build --release --offline --manifest-path benchmark/Cargo.toml
cargo test --offline --manifest-path benchmark/Cargo.toml

# One pair of one-second runs, this tree against itself: the pairing
# script still drives run.sh and still parses its result lines.
echo "==> bench_pair smoke (working tree vs itself, 1 pair)"
PAIR=$(scripts/bench_pair.sh . . 1 --workload embedded_hot --seconds 1)
echo "$PAIR" | grep -q 'failed: parent 0, change 0; .* identical over 1 pairs' || {
    echo "bench_pair smoke: unexpected summary"; echo "$PAIR"; exit 1; }
# The pool over embedded_hot's in-memory device covers every page, and
# the two must share each page image: a second copy of every page would
# put the row's peak RSS near 256 MiB, one copy puts it near 143 MiB.
RSS=$(echo "$PAIR" | sed 's/\[[^]]*\]//g' |
    awk '$1 == "embedded_hot" && $2 == "peak_rss_mb" { print $4 }')
awk -v rss="$RSS" 'BEGIN { exit !(rss != "" && rss <= 160) }' || {
    echo "bench_pair smoke: embedded_hot peak_rss_mb '$RSS' is above 160 MiB"; exit 1; }
rm -rf "$(echo "$PAIR" | sed -n 's/^result lines and run logs: //p')"
# served_read builds from untrusted input, so its set-up runs the NCT
# check over 100 k segments and a Solution-2 build: the set-up takes
# about 0.19 s, of which the y-indexed sweep is about 0.1 s. The gate is
# twice that, rounded up: a quadratic NCT scan (about 3.8 s) or a build
# that patches each bridge into a written leaf (about 0.5 s) fails it.
echo "==> bench_pair smoke (served_read, working tree vs itself, 1 pair)"
PAIR=$(scripts/bench_pair.sh . . 1 --workload served_read --seconds 1)
echo "$PAIR" | grep -q 'failed: parent 0, change 0; .* identical over 1 pairs' || {
    echo "bench_pair smoke: unexpected summary"; echo "$PAIR"; exit 1; }
SETUP=$(echo "$PAIR" | sed 's/\[[^]]*\]//g' |
    awk '$1 == "served_read" && $2 == "setup_s" { print $4 }')
awk -v s="$SETUP" 'BEGIN { exit !(s != "" && s <= 0.4) }' || {
    echo "bench_pair smoke: served_read setup_s '$SETUP' is above 0.4 s"; exit 1; }
rm -rf "$(echo "$PAIR" | sed -n 's/^result lines and run logs: //p')"

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo fmt --all --check"
cargo fmt --all --check

# A doc link to a private or missing item renders as a dead link.
echo "==> cargo doc --workspace --no-deps (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

# One read surface: each query is named once, by `Query`, and each
# layer keeps one query verb. The count is what ROADMAP item 12 left.
echo "==> read surface: at most 140 method-level pub fns in crates/core/src"
PUB_FNS=$(find crates/core/src -name '*.rs' -exec cat {} + | grep -c '^    pub fn')
[ "$PUB_FNS" -le 140 ] || {
    echo "crates/core/src has $PUB_FNS method-level pub fns, more than 140"; exit 1; }

echo "==> serve/load smoke round-trip"
CLI=target/release/segdb-cli
LOAD=target/release/segdb-load
# The address a backgrounded `serve` / `route` announced in its banner
# file ($1); $2 names the process for the failure message.
listening_on() {
    local addr=""
    for _ in $(seq 1 40); do
        addr=$(sed -n 's/^listening on //p' "$1")
        [ -n "$addr" ] && break
        sleep 0.05
    done
    [ -n "$addr" ] || { echo "$2 never reported its address" >&2; exit 1; }
    echo "$addr"
}
SMOKE=$(mktemp -d)
trap 'kill "${SERVE_PID:-}" "${ROUTE_PID:-}" "${REP_ROUTE_PID:-}" ${SHARD_PIDS[@]:-} ${REP_PIDS[@]:-} 2>/dev/null || true; rm -rf "$SMOKE"' EXIT
"$CLI" gen mixed 300 21 > "$SMOKE/map.csv"
"$CLI" build "$SMOKE/map.db" "$SMOKE/map.csv" --page-size 1024 > /dev/null
"$CLI" serve "$SMOKE/map.db" --addr 127.0.0.1:0 --workers 2 \
    --slowlog-entries 16 > "$SMOKE/serve.out" &
SERVE_PID=$!
ADDR=$(listening_on "$SMOKE/serve.out" "server")
# query --count over the wire must equal the collected answer's length.
QX=$(awk -F, '!/^#/{print $2; exit}' "$SMOKE/map.csv")
COLLECTED=$("$CLI" query --remote "$ADDR" line "$QX" | grep -cv '^#' || true)
COUNTED=$("$CLI" query --remote "$ADDR" line "$QX" --count | head -n 1)
[ "$COLLECTED" = "$COUNTED" ] || {
    echo "query --count ($COUNTED) != collected length ($COLLECTED)"; exit 1; }
REQS=40
SEGDB_BENCH_DIR="$SMOKE" "$LOAD" --addr "$ADDR" --family mixed --n 300 --seed 21 \
    --connections 2 --requests "$REQS" --mode mix > /dev/null
grep -q '"wrong":0' "$SMOKE/BENCH_serve.json" || {
    echo "load driver reported wrong answers"; exit 1; }
grep -q '"server":{' "$SMOKE/BENCH_serve.json" || {
    echo "load report carries no server stats delta"; exit 1; }

echo "==> request-lifecycle smoke (stats histograms, slowlog)"
"$CLI" stats --remote "$ADDR" > "$SMOKE/lifecycle-stats.json"
grep -q '"latency":{"' "$SMOKE/lifecycle-stats.json" || {
    echo "stats reply carries no latency histograms"; exit 1; }
for q in p50 p95 p99; do
    grep -q "\"$q\":[0-9]" "$SMOKE/lifecycle-stats.json" || {
        echo "stats latency block lacks a $q quantile"; exit 1; }
done
grep -q '"pages":{"' "$SMOKE/lifecycle-stats.json" || {
    echo "stats reply carries no pages block"; exit 1; }
grep -q '"dropped_events":' "$SMOKE/lifecycle-stats.json" || {
    echo "stats reply carries no trace drop counter"; exit 1; }
"$CLI" slowlog --remote "$ADDR" > "$SMOKE/slowlog.json"
IDS=$(grep -o '"id":[0-9]*' "$SMOKE/slowlog.json" | cut -d: -f2)
[ -n "$IDS" ] || { echo "slowlog is empty after the load"; exit 1; }
# The load stamps ids from base 0 (so < REQS); CLI invocations stamp
# from a derived per-invocation base shifted left 16 bits. Anything
# else in the slowlog is a stray.
SAW_LOAD_ID=0
for id in $IDS; do
    if [ "$id" -lt "$REQS" ]; then
        SAW_LOAD_ID=1
    elif [ "$id" -lt 65536 ]; then
        echo "slowlog id $id matches neither the load nor a CLI base"
        exit 1
    fi
done
[ "$SAW_LOAD_ID" -eq 1 ] || {
    echo "slowlog captured none of the load's requests"; exit 1; }
SEGDB_BENCH_DIR="$SMOKE" "$LOAD" --addr "$ADDR" --family mixed --n 300 --seed 21 \
    --connections 1 --requests 1 --shutdown > /dev/null
wait "$SERVE_PID"

echo "==> sheared parity smoke (direction 1,2: local and --remote ask the same query)"
"$CLI" gen mixed 2000 7 > "$SMOKE/shear.csv"
"$CLI" build "$SMOKE/shear.db" "$SMOKE/shear.csv" --direction 1,2 > /dev/null
"$CLI" serve "$SMOKE/shear.db" --addr 127.0.0.1:0 --workers 2 > "$SMOKE/serve-shear.out" &
SERVE_PID=$!
ADDR=$(listening_on "$SMOKE/serve-shear.out" "sheared server")
# (500, 0) and (650, 300) lie on one line of direction (1, 2).
for q in "line 500 0" "line 500 300" "ray-up 500 300" "ray-down 500 300" \
    "segment 500 0 650 300"; do
    for mode in --count --exists; do
        # shellcheck disable=SC2086 # $q is the shape and its coordinates
        LOCAL=$("$CLI" query "$SMOKE/shear.db" $q $mode | head -n 1)
        # shellcheck disable=SC2086
        REMOTE=$("$CLI" query --remote "$ADDR" $q $mode | head -n 1)
        [ "$LOCAL" = "$REMOTE" ] || {
            echo "query $q $mode: local answers $LOCAL, remote $REMOTE"; exit 1; }
    done
done
[ "$("$CLI" query --remote "$ADDR" line 500 300 --count | head -n 1)" != \
    "$("$CLI" query --remote "$ADDR" line 500 0 --count | head -n 1)" ] || {
    echo "remote line through (500, 300) answers as the one through (500, 0)"; exit 1; }
kill "$SERVE_PID"; wait "$SERVE_PID" 2>/dev/null || true

echo "==> backlog smoke (64 connections on 2 workers: verified answers, shared walks)"
"$CLI" gen mixed 40000 42 > "$SMOKE/base.csv"
"$CLI" build "$SMOKE/base.db" "$SMOKE/base.csv" > /dev/null
"$CLI" serve "$SMOKE/base.db" --addr 127.0.0.1:0 --workers 2 > "$SMOKE/serve-base.out" &
SERVE_PID=$!
ADDR=$(listening_on "$SMOKE/serve-base.out" "backlog server")
SEGDB_BENCH_DIR="$SMOKE" "$LOAD" --addr "$ADDR" --family mixed --n 40000 --seed 42 \
    --connections 64 --requests 6000 --mode count > /dev/null
grep -q '"wrong":0' "$SMOKE/BENCH_serve.json" || {
    echo "backlog load run reported wrong answers"; exit 1; }
# 64 connections on 2 workers is backlog: groups must have formed.
"$CLI" slowlog --remote "$ADDR" | grep -Eq '"batch_size":([2-9]|[1-9][0-9])' || {
    echo "no slowlog entry ran in a shared walk under a 64-connection backlog"; exit 1; }
SEGDB_BENCH_DIR="$SMOKE" "$LOAD" --addr "$ADDR" --family mixed --n 40000 --seed 42 \
    --connections 1 --requests 1 --no-verify --shutdown > /dev/null
wait "$SERVE_PID"

echo "==> seeded net-chaos smoke (wire-fault load, replayed twice)"
"$CLI" serve "$SMOKE/map.db" --addr 127.0.0.1:0 --workers 2 > "$SMOKE/serve2.out" &
SERVE_PID=$!
ADDR=$(listening_on "$SMOKE/serve2.out" "chaos server")
run_chaos() {
    SEGDB_BENCH_DIR="$SMOKE" "$LOAD" --addr "$ADDR" --family mixed --n 300 --seed 21 \
        --connections 2 --requests 40 --chaos 1234 > /dev/null
    grep -q '"wrong":0' "$SMOKE/BENCH_serve.json" || {
        echo "chaos load reported wrong answers" >&2; exit 1; }
    grep -q '"injected_matches_observed":true' "$SMOKE/BENCH_serve.json" || {
        echo "injected/observed net-fault ledger diverged" >&2; exit 1; }
    grep -q '"injected_disruptive":0,' "$SMOKE/BENCH_serve.json" && {
        echo "chaos load injected no disruptive fault" >&2; exit 1; }
    sed -n 's/.*"trace_digest":"\([0-9a-f]*\)".*/\1/p' "$SMOKE/BENCH_serve.json"
}
DIGEST1=$(run_chaos)
DIGEST2=$(run_chaos)
[ -n "$DIGEST1" ] || { echo "chaos report carries no trace digest"; exit 1; }
[ "$DIGEST1" = "$DIGEST2" ] || {
    echo "chaos trace is not replay-stable: $DIGEST1 vs $DIGEST2"; exit 1; }
"$CLI" stats --remote "$ADDR" > "$SMOKE/remote-stats.json"
grep -q '"net":{' "$SMOKE/remote-stats.json" || {
    echo "remote stats carry no net block"; exit 1; }
grep -q '"write_drops":' "$SMOKE/remote-stats.json" || {
    echo "remote stats carry no hardening counters"; exit 1; }
SEGDB_BENCH_DIR="$SMOKE" "$LOAD" --addr "$ADDR" --family mixed --n 300 --seed 21 \
    --connections 1 --requests 1 --shutdown > /dev/null
wait "$SERVE_PID"

echo "==> write-path smoke (insert over the wire, kill -9, WAL replay)"
"$CLI" serve "$SMOKE/map.db" --addr 127.0.0.1:0 --workers 2 \
    --wal "$SMOKE/map.wal" > "$SMOKE/serve3.out" &
SERVE_PID=$!
ADDR=$(listening_on "$SMOKE/serve3.out" "writable server")
# Insert a fresh segment; a line query through it must see it at once.
"$CLI" insert --remote "$ADDR" 9001 64 70000 512 70000 > "$SMOKE/insert.out"
grep -q '^inserted #9001 ' "$SMOKE/insert.out" || {
    echo "remote insert not acknowledged: $(cat "$SMOKE/insert.out")"; exit 1; }
"$CLI" query --remote "$ADDR" line 100 | grep -qx '9001' || {
    echo "inserted segment invisible to a served query"; exit 1; }
# Power cut: the ack was durable, so a restart on the same WAL must
# replay it even though no fold/save ever ran.
kill -9 "$SERVE_PID"; wait "$SERVE_PID" 2>/dev/null || true
"$CLI" serve "$SMOKE/map.db" --addr 127.0.0.1:0 --workers 2 \
    --wal "$SMOKE/map.wal" > "$SMOKE/serve4.out" &
SERVE_PID=$!
ADDR=$(listening_on "$SMOKE/serve4.out" "restarted server")
grep -q '^wal replayed [1-9]' "$SMOKE/serve4.out" || {
    echo "restart replayed nothing: $(cat "$SMOKE/serve4.out")"; exit 1; }
"$CLI" query --remote "$ADDR" line 100 | grep -qx '9001' || {
    echo "insert lost across kill -9 + WAL replay"; exit 1; }
"$CLI" stats --remote "$ADDR" > "$SMOKE/writer-stats.json"
grep -q '"writer":{' "$SMOKE/writer-stats.json" || {
    echo "writable server stats carry no writer block"; exit 1; }
# Remove the probe segment so the database matches the load driver's
# shadow model again.
"$CLI" remove --remote "$ADDR" 9001 64 70000 512 70000 | grep -q '^removed #9001 ' || {
    echo "remote remove not acknowledged"; exit 1; }
# Mixed read/write load with shadow-model verification.
SEGDB_BENCH_DIR="$SMOKE" "$LOAD" --addr "$ADDR" --family mixed --n 300 --seed 21 \
    --connections 2 --requests 60 --write-pct 30 > /dev/null
grep -q '"sweep_wrong":0' "$SMOKE/BENCH_serve.json" || {
    echo "write sweep found a shadow-model mismatch"; exit 1; }
grep -q '"write_latency_us":{' "$SMOKE/BENCH_serve.json" || {
    echo "write run carries no write latency histogram"; exit 1; }
SEGDB_BENCH_DIR="$SMOKE" "$LOAD" --addr "$ADDR" --family mixed --n 300 --seed 21 \
    --connections 1 --requests 1 --no-verify --shutdown > /dev/null
wait "$SERVE_PID"

echo "==> update-cost smoke (E16, E5: a delete, and an update, within 4x an insert, in pages)"
# Page counts on the simulated device are exact, so this cannot flake.
# An update is a delete plus a re-insert under the same id; one that
# rebuilt the index would cost hundreds of inserts.
SEGDB_BENCH_DIR="$SMOKE" target/release/e16_updates > /dev/null
grep -o '"insert_io_per_op":[0-9.]*,"delete_io_per_op":[0-9.]*,"update_io_per_op":[0-9.]*' \
    "$SMOKE/BENCH_updates.json" |
    awk -F'[:,]' '{ rows++; if ($4 > 4 * $2 || $6 > 4 * $2) dear++ }
        END { exit !(rows == 6 && dear == 0) }' || {
    echo "E16: some row's del or upd io/op exceeds 4 x its ins io/op (or a row is missing)"; exit 1; }
# E5 rows are ["N","insert io/op","delete io/op","update io/op",...].
SEGDB_BENCH_DIR="$SMOKE" target/release/e5_solution1_updates > /dev/null
grep -o '\["[0-9]*","[0-9.]*","[0-9.]*","[0-9.]*"' "$SMOKE/BENCH_e5.json" |
    awk -F'"' '{ rows++; if ($6 > 4 * $4 || $8 > 4 * $4) dear++ }
        END { exit !(rows == 3 && dear == 0) }' || {
    echo "E5: some row's del or upd io/op exceeds 4 x its ins io/op (or a row is missing)"; exit 1; }

echo "==> index kinds (binary | interval only)"
# The baselines are no longer index kinds: asking for one is a usage
# error (exit 2) that names the two kinds there are.
set +e
"$CLI" build "$SMOKE/scan.db" "$SMOKE/map.csv" --index scan > /dev/null 2> "$SMOKE/scan.err"
STATUS=$?
set -e
[ "$STATUS" -eq 2 ] && grep -q '"error":"usage"' "$SMOKE/scan.err" &&
    grep -q 'binary | interval' "$SMOKE/scan.err" || {
    echo "build --index scan: exit $STATUS, stderr: $(cat "$SMOKE/scan.err")"; exit 1; }

echo "==> live-tombstone smoke (offline remove, then fresh processes must not see it)"
# An offline remove leaves a live tombstone in the file. Every reader
# below is a new process, so each loads the tombstone chain at open.
VICTIM=$(awk -F, '!/^#/{print; exit}' "$SMOKE/map.csv")
VICTIM_ID=${VICTIM%%,*}
for INDEX in interval binary; do
    TOMB="$SMOKE/tomb-$INDEX.db"
    "$CLI" build "$TOMB" "$SMOKE/map.csv" --page-size 1024 --index "$INDEX" > /dev/null
    BEFORE=$("$CLI" query "$TOMB" line "$QX" 0 --count | head -n 1)
    "$CLI" remove "$TOMB" ${VICTIM//,/ } | grep -q "^removed #$VICTIM_ID " || {
        echo "$INDEX: offline remove of $VICTIM not acknowledged"; exit 1; }
    # Solution 1 is stored as the interval layout at fanout 1: a fresh
    # process must still read it back as Solution 1.
    WANT_KIND=$([ "$INDEX" = binary ] && echo TwoLevelBinary || echo TwoLevelInterval)
    "$CLI" info "$TOMB" | grep -Eq "^index: +$WANT_KIND\$" || {
        echo "$INDEX: info does not reopen the file as $WANT_KIND:"
        "$CLI" info "$TOMB"; exit 1; }
    "$CLI" query "$TOMB" line "$QX" 0 | grep -v '^#' | cut -d, -f1 | sort -n \
        > "$SMOKE/tomb-local.ids"
    grep -qx "$VICTIM_ID" "$SMOKE/tomb-local.ids" && {
        echo "$INDEX: a fresh local query still reports tombstoned #$VICTIM_ID"; exit 1; }
    LOCAL_N=$(wc -l < "$SMOKE/tomb-local.ids")
    LOCAL_COUNT=$("$CLI" query "$TOMB" line "$QX" 0 --count | head -n 1)
    [ "$LOCAL_N" -eq "$LOCAL_COUNT" ] && [ "$LOCAL_COUNT" -eq $((BEFORE - 1)) ] || {
        echo "$INDEX: tombstoned counts disagree: collected $LOCAL_N," \
            "--count $LOCAL_COUNT, before $BEFORE"
        exit 1; }
    "$CLI" serve "$TOMB" --addr 127.0.0.1:0 --workers 2 > "$SMOKE/serve-tomb.out" &
    SERVE_PID=$!
    ADDR=$(listening_on "$SMOKE/serve-tomb.out" "$INDEX tombstone server")
    "$CLI" query --remote "$ADDR" line "$QX" | grep -v '^#' | sort -n > "$SMOKE/tomb-served.ids"
    cmp -s "$SMOKE/tomb-local.ids" "$SMOKE/tomb-served.ids" || {
        echo "$INDEX: served answer over a tombstoned file differs from the local one"; exit 1; }
    SERVED_COUNT=$("$CLI" query --remote "$ADDR" line "$QX" --count | head -n 1)
    [ "$SERVED_COUNT" = "$LOCAL_COUNT" ] || {
        echo "$INDEX: served --count ($SERVED_COUNT) != local --count ($LOCAL_COUNT)"; exit 1; }
    SEGDB_BENCH_DIR="$SMOKE" "$LOAD" --addr "$ADDR" --family mixed --n 300 --seed 21 \
        --connections 1 --requests 1 --no-verify --shutdown > /dev/null
    wait "$SERVE_PID"
done

echo "==> cluster smoke (partition, route, scatter-gather, degraded reply)"
"$CLI" partition "$SMOKE/map.csv" 3 "$SMOKE/shards" > "$SMOKE/partition.json"
CUTS=$(sed -n 's/.*"cuts":\[\([^]]*\)\].*/\1/p' "$SMOKE/partition.json")
CUT1=${CUTS%,*}
CUT2=${CUTS#*,}
[ -n "$CUT1" ] && [ -n "$CUT2" ] || {
    echo "partition reported no cuts: $(cat "$SMOKE/partition.json")"; exit 1; }
SHARD_PIDS=()
for i in 0 1 2; do
    "$CLI" build "$SMOKE/shards/shard$i.db" "$SMOKE/shards/shard$i.csv" \
        --page-size 1024 > /dev/null
    "$CLI" serve "$SMOKE/shards/shard$i.db" --addr 127.0.0.1:0 --workers 2 \
        > "$SMOKE/shards/serve$i.out" &
    SHARD_PIDS+=($!)
done
SHARD_ADDRS=()
for i in 0 1 2; do
    A=$(listening_on "$SMOKE/shards/serve$i.out" "shard $i")
    SHARD_ADDRS+=("$A")
done
printf '{"shards":[{"addr":"%s","until":%s},{"addr":"%s","until":%s},{"addr":"%s"}]}\n' \
    "${SHARD_ADDRS[0]}" "$CUT1" "${SHARD_ADDRS[1]}" "$CUT2" "${SHARD_ADDRS[2]}" \
    > "$SMOKE/cluster.json"
"$CLI" route "$SMOKE/cluster.json" --addr 127.0.0.1:0 --forward-shutdown \
    > "$SMOKE/route.out" &
ROUTE_PID=$!
RADDR=$(listening_on "$SMOKE/route.out" "router")
# A count routed through the cluster must match the single-node answer
# over the same set (map.db has since absorbed the write-path smoke's
# mutations, so the oracle is a pristine build from the CSV).
"$CLI" build "$SMOKE/cluster-oracle.db" "$SMOKE/map.csv" --page-size 1024 > /dev/null
ROUTED=$("$CLI" query --remote "$RADDR" line "$QX" --count | head -n 1)
LOCAL=$("$CLI" query "$SMOKE/cluster-oracle.db" line "$QX" 0 --count | head -n 1)
[ "$ROUTED" = "$LOCAL" ] || {
    echo "routed count ($ROUTED) != single-node count ($LOCAL)"; exit 1; }
"$CLI" health --remote "$RADDR" | grep -q '"ok":true' || {
    echo "healthy cluster reported unhealthy"; exit 1; }
# The load driver against the router: verified answers, and per-shard
# latency histograms in the report's cluster block.
SEGDB_BENCH_DIR="$SMOKE" "$LOAD" --addr "$RADDR" --family mixed --n 300 --seed 21 \
    --connections 2 --requests 40 --mode mix --cluster > /dev/null
grep -q '"wrong":0' "$SMOKE/BENCH_serve.json" || {
    echo "cluster load reported wrong answers"; exit 1; }
grep -q '"cluster":{' "$SMOKE/BENCH_serve.json" || {
    echo "cluster load report carries no cluster block"; exit 1; }
HISTS=$(grep -o '"latency_us"' "$SMOKE/BENCH_serve.json" | wc -l)
[ "$HISTS" -ge 4 ] || {
    echo "cluster block lacks per-shard latency histograms ($HISTS)"; exit 1; }
# Kill one shard: a query it owns must fail with the structured
# degraded reply, live shards keep answering, health goes red.
kill -9 "${SHARD_PIDS[2]}"; wait "${SHARD_PIDS[2]}" 2>/dev/null || true
if "$CLI" query --remote "$RADDR" line 99999999 --count \
    > "$SMOKE/degraded.out" 2>&1; then
    echo "query owned by a dead shard unexpectedly succeeded"; exit 1
fi
grep -q 'degraded' "$SMOKE/degraded.out" || {
    echo "dead shard did not surface the degraded error: $(cat "$SMOKE/degraded.out")"
    exit 1; }
ROUTED=$("$CLI" query --remote "$RADDR" line "$QX" --count | head -n 1)
[ "$ROUTED" = "$LOCAL" ] || {
    echo "degraded cluster broke a live-shard query ($ROUTED vs $LOCAL)"; exit 1; }
"$CLI" health --remote "$RADDR" | grep -q '"ok":false' || {
    echo "health hid the dead shard"; exit 1; }
# Shutdown through the router fans out to the surviving shards.
SEGDB_BENCH_DIR="$SMOKE" "$LOAD" --addr "$RADDR" --family mixed --n 300 --seed 21 \
    --connections 1 --requests 1 --no-verify --shutdown > /dev/null
wait "$ROUTE_PID"
wait "${SHARD_PIDS[0]}" "${SHARD_PIDS[1]}"

echo "==> replicated-failover smoke (kill -9 one replica mid-load, catch-up, red -> green)"
REP="$SMOKE/rep"
mkdir -p "$REP"
"$CLI" partition "$SMOKE/map.csv" 2 "$REP" --replicas 2 \
    --map-out "$REP/template.json" > "$REP/partition.json"
grep -q '"replicas":2' "$REP/partition.json" || {
    echo "partition did not plan replica sets: $(cat "$REP/partition.json")"; exit 1; }
grep -q '"replicas":\[' "$REP/template.json" || {
    echo "map template carries no replica sets: $(cat "$REP/template.json")"; exit 1; }
RCUT=$(sed -n 's/.*"cuts":\[\([^]]*\)\].*/\1/p' "$REP/partition.json")
[ -n "$RCUT" ] || { echo "replicated partition reported no cut"; exit 1; }
# 2 shards x 2 writable replicas: each replica owns its own db copy and
# its own WAL, so a killed replica restarts from durable local state.
REP_PIDS=()
for i in 0 1; do
    "$CLI" build "$REP/shard$i.db" "$REP/shard$i.csv" --page-size 1024 > /dev/null
    for r in 0 1; do
        cp "$REP/shard$i.db" "$REP/shard$i-r$r.db"
        "$CLI" serve "$REP/shard$i-r$r.db" --addr 127.0.0.1:0 --workers 2 \
            --wal "$REP/shard$i-r$r.wal" > "$REP/serve$i-$r.out" &
        REP_PIDS+=($!)
    done
done
REP_ADDRS=()
for i in 0 1; do
    for r in 0 1; do
        A=$(listening_on "$REP/serve$i-$r.out" "replica $i.$r")
        REP_ADDRS+=("$A")
    done
done
printf '{"shards":[{"replicas":["%s","%s"],"until":%s},{"replicas":["%s","%s"]}]}\n' \
    "${REP_ADDRS[0]}" "${REP_ADDRS[1]}" "$RCUT" "${REP_ADDRS[2]}" "${REP_ADDRS[3]}" \
    > "$REP/cluster.json"
"$CLI" route "$REP/cluster.json" --addr 127.0.0.1:0 --forward-shutdown \
    > "$REP/route.out" &
REP_ROUTE_PID=$!
RADDR2=$(listening_on "$REP/route.out" "replicated router")
# Mixed read/write load; shard 0's preferred replica dies mid-run with
# kill -9. Zero surfaced errors tolerated: ok must equal sent, the
# degraded tally must be zero, and the post-run shadow sweep must hold.
SEGDB_BENCH_DIR="$REP" "$LOAD" --addr "$RADDR2" --family mixed --n 300 --seed 21 \
    --connections 2 --requests 2000 --write-pct 20 --cluster > /dev/null &
LOAD_PID=$!
sleep 0.3
kill -9 "${REP_PIDS[0]}"; wait "${REP_PIDS[0]}" 2>/dev/null || true
wait "$LOAD_PID" || { echo "replicated load run failed"; exit 1; }
grep -q '"requests":2000' "$REP/BENCH_serve.json" || {
    echo "replicated load lost requests"; exit 1; }
grep -q '"ok":2000' "$REP/BENCH_serve.json" || {
    echo "replica death surfaced request errors"; exit 1; }
grep -q '"degraded":0' "$REP/BENCH_serve.json" || {
    echo "replica death surfaced degraded replies"; exit 1; }
grep -q '"sweep_wrong":0' "$REP/BENCH_serve.json" || {
    echo "replicated write sweep found a shadow-model mismatch"; exit 1; }
grep -q '"failover":{' "$REP/BENCH_serve.json" || {
    echo "cluster report carries no failover block"; exit 1; }
# Health is red while the replica is down; a shard-0 count (owner-only
# routing) records the surviving replica's answer as the parity probe.
"$CLI" health --remote "$RADDR2" | grep -q '"ok":false' || {
    echo "health hid the dead replica"; exit 1; }
X_LEFT=$((RCUT - 1))
C_BEFORE=$("$CLI" query --remote "$RADDR2" line "$X_LEFT" --count | head -n 1)
# Restart the replica in place (same address, same WAL) and pull what it
# missed from its live twin; health must flip red -> green.
"$CLI" serve "$REP/shard0-r0.db" --addr "${REP_ADDRS[0]}" --workers 2 \
    --wal "$REP/shard0-r0.wal" > "$REP/serve0-0b.out" &
REP_PIDS[0]=$!
listening_on "$REP/serve0-0b.out" "restarted replica" > /dev/null
"$CLI" sync --remote "${REP_ADDRS[0]}" "${REP_ADDRS[1]}" --from 0 > "$REP/sync.json"
grep -q '"applied":' "$REP/sync.json" || {
    echo "replica catch-up reported nothing: $(cat "$REP/sync.json")"; exit 1; }
H_OK=0
for _ in $(seq 1 20); do
    if "$CLI" health --remote "$RADDR2" | grep -q '"ok":true'; then
        H_OK=1
        break
    fi
    sleep 0.1
done
[ "$H_OK" -eq 1 ] || {
    echo "health never went green after restart + catch-up"; exit 1; }
# The caught-up replica must carry the load's writes: kill its twin and
# re-run the parity probe against the restarted replica alone.
kill -9 "${REP_PIDS[1]}"; wait "${REP_PIDS[1]}" 2>/dev/null || true
C_AFTER=$("$CLI" query --remote "$RADDR2" line "$X_LEFT" --count | head -n 1)
[ "$C_BEFORE" = "$C_AFTER" ] || {
    echo "restarted replica diverged after catch-up ($C_AFTER vs $C_BEFORE)"; exit 1; }
SEGDB_BENCH_DIR="$REP" "$LOAD" --addr "$RADDR2" --family mixed --n 300 --seed 21 \
    --connections 1 --requests 1 --no-verify --shutdown > /dev/null
wait "$REP_ROUTE_PID"
wait "${REP_PIDS[0]}" "${REP_PIDS[2]}" "${REP_PIDS[3]}"

echo "==> seeded crash-recovery smoke (torture sweep, replayed twice)"
TORTURE_ARGS=(torture --seed 7 --scenarios 3 --n 80)
OUT1=$("$CLI" "${TORTURE_ARGS[@]}")
OUT2=$("$CLI" "${TORTURE_ARGS[@]}")
[ "$OUT1" = "$OUT2" ] || {
    echo "torture sweep is not deterministic:"; echo "$OUT1"; echo "$OUT2"; exit 1; }
echo "$OUT1" | grep -q '"fault_events":0,' && {
    echo "torture sweep injected no faults: $OUT1"; exit 1; }
echo "$OUT1" | grep -q '"injected_total":0,' && {
    echo "fault counters saw no injections: $OUT1"; exit 1; }
echo "$OUT1" | grep -q '"observed_io_errors":0}' && {
    echo "pager observed no injected fault: $OUT1"; exit 1; }
echo "$OUT1" | grep -q '"recovery_queries_verified":0,' && {
    echo "no recovery query was verified: $OUT1"; exit 1; }

echo "OK: registry-free, build, tests, benchmark package, bench_pair, clippy, fmt, read surface, serve + sheared parity + lifecycle + net-chaos + write-path + update-cost + live-tombstone + cluster + replicated-failover + crash-recovery smoke all clean."
