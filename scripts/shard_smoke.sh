#!/usr/bin/env bash
# End-to-end sharding smoke: start two worker pctagg_server processes and a
# coordinator pointing at them, SHARD a generated table over the wire, and
# verify (1) the sharded answers — with and without a WHERE on a non-key
# column — are byte-identical to the pre-shard answers on an INT64 measure,
# (2) SHOW reports the topology, (3) a sharded table is
# read-only, (4) killing a worker turns the next query into a typed
# Unavailable instead of a hang, and (5) the documented recovery works:
# restart the worker, reload the table on the coordinator (answered
# locally), re-SHARD it (answered from the shards again). Real processes,
# real sockets, real SIGKILL — the multi-process path the in-process
# dist_test forks around.
#
# Usage: scripts/shard_smoke.sh [build-dir]   (default: build)

set -u
cd "$(dirname "$0")/.."

BUILD=${1:-build}
SERVER=$BUILD/tools/pctagg_server
CLIENT=$BUILD/tools/pctagg_client
BASE_PORT=${PCTAGG_SHARD_SMOKE_PORT:-7571}
COORD_PORT=$BASE_PORT
W1_PORT=$((BASE_PORT + 1))
W2_PORT=$((BASE_PORT + 2))
SCRATCH=$(mktemp -d /tmp/pctagg_shard_smoke_XXXXXX)
PIDS=()

fail() {
  echo "FAIL: $*" >&2
  for pid in "${PIDS[@]:-}"; do kill -9 "$pid" 2>/dev/null; done
  rm -rf "$SCRATCH"
  exit 1
}

cleanup() {
  for pid in "${PIDS[@]:-}"; do kill -9 "$pid" 2>/dev/null; done
  rm -rf "$SCRATCH"
}
trap cleanup EXIT

[ -x "$SERVER" ] || fail "$SERVER not built"
[ -x "$CLIENT" ] || fail "$CLIENT not built"

wait_ready() {  # wait_ready <port> <pid>
  for _ in $(seq 1 50); do
    if printf '.ping\n.quit\n' | "$CLIENT" --connect 127.0.0.1:"$1" \
        >/dev/null 2>&1; then
      return 0
    fi
    kill -0 "$2" 2>/dev/null || fail "server on port $1 died during startup"
    sleep 0.1
  done
  fail "server on port $1 did not start listening"
}

# INT64 measure (itemId) so the distributed merge is bit-identical; ORDER BY
# pins row order to the single-node answer's (the gather emits groups in
# shard order).
QUERY="SELECT dweek, state, Vpct(itemId BY state) AS pct, count(*) AS n \
FROM f GROUP BY dweek, state ORDER BY dweek, state"
# The same shape filtered on columns other than the shard key (city): every
# worker applies the WHERE to its own rows before the merge.
FILTERED_QUERY="SELECT dweek, state, Vpct(itemId BY state) AS pct, \
count(*) AS n FROM f WHERE monthNo <= 6 AND dept <> 3 GROUP BY dweek, state \
ORDER BY dweek, state"

echo "=== phase 1: two workers + coordinator"
"$SERVER" --port "$W1_PORT" &
PIDS+=($!)
W1_PID=$!
wait_ready "$W1_PORT" "$W1_PID"
"$SERVER" --port "$W2_PORT" &
PIDS+=($!)
W2_PID=$!
wait_ready "$W2_PORT" "$W2_PID"
"$SERVER" --port "$COORD_PORT" \
  --worker 127.0.0.1:"$W1_PORT" --worker 127.0.0.1:"$W2_PORT" &
PIDS+=($!)
COORD_PID=$!
wait_ready "$COORD_PORT" "$COORD_PID"
echo "    workers on $W1_PORT/$W2_PORT, coordinator on $COORD_PORT"

echo "=== phase 2: generate, query, SHARD, re-query"
printf '.gen sales f 20000\n.quit\n' | "$CLIENT" --connect 127.0.0.1:"$COORD_PORT" \
  >/dev/null || fail "could not generate table"

"$CLIENT" --connect 127.0.0.1:"$COORD_PORT" --query "$QUERY" \
  > "$SCRATCH/before.csv" || fail "pre-shard query failed"
"$CLIENT" --connect 127.0.0.1:"$COORD_PORT" --query "$FILTERED_QUERY" \
  > "$SCRATCH/before_filtered.csv" || fail "pre-shard filtered query failed"
[ "$(wc -l < "$SCRATCH/before_filtered.csv")" -gt 1 ] ||
  fail "the filtered query returned no rows"

printf '.shard f city\n.quit\n' | "$CLIENT" --connect 127.0.0.1:"$COORD_PORT" \
  > "$SCRATCH/shard.txt" 2>&1 || fail "SHARD failed"
grep -q "sharded f" "$SCRATCH/shard.txt" || fail "SHARD not acknowledged"

"$CLIENT" --connect 127.0.0.1:"$COORD_PORT" --query "$QUERY" \
  > "$SCRATCH/after.csv" || fail "post-shard query failed"
diff -q "$SCRATCH/before.csv" "$SCRATCH/after.csv" >/dev/null ||
  fail "sharded answer differs from the single-node answer"
"$CLIENT" --connect 127.0.0.1:"$COORD_PORT" --query "$FILTERED_QUERY" \
  > "$SCRATCH/after_filtered.csv" || fail "post-shard filtered query failed"
diff -q "$SCRATCH/before_filtered.csv" "$SCRATCH/after_filtered.csv" \
  >/dev/null ||
  fail "sharded filtered answer differs from the single-node answer"
echo "    sharded answers (unfiltered and filtered) are byte-identical to pre-shard"

echo "=== phase 3: topology in SHOW, sharded table is read-only"
printf '.show\n.quit\n' | "$CLIENT" --connect 127.0.0.1:"$COORD_PORT" \
  > "$SCRATCH/show.txt" || fail ".show failed"
grep -q "dist: 2 workers" "$SCRATCH/show.txt" ||
  fail "SHOW does not report the 2-worker topology"

if "$CLIENT" --connect 127.0.0.1:"$COORD_PORT" --query \
    "INSERT INTO f VALUES (0, 0, 1, 1, 1, 1, 1, 1, 1, 1.0)" \
    > "$SCRATCH/insert.txt" 2>&1; then
  fail "INSERT into a sharded table was accepted"
fi
grep -q "read-only" "$SCRATCH/insert.txt" ||
  fail "INSERT rejection does not explain the table is read-only"
echo "    INSERT rejected with the read-only message"

echo "=== phase 4: kill a worker; queries degrade to typed Unavailable"
kill -9 "$W2_PID" || fail "kill failed"
wait "$W2_PID" 2>/dev/null
if "$CLIENT" --connect 127.0.0.1:"$COORD_PORT" --query "$QUERY" \
    > "$SCRATCH/lost.txt" 2>&1; then
  fail "query succeeded with a dead worker"
fi
grep -q "Unavailable" "$SCRATCH/lost.txt" ||
  fail "shard loss did not surface as Unavailable: $(cat "$SCRATCH/lost.txt")"
grep -q "shard 1" "$SCRATCH/lost.txt" ||
  fail "the error does not name the lost shard: $(cat "$SCRATCH/lost.txt")"
echo "    lost worker reported as: $(head -1 "$SCRATCH/lost.txt")"

echo "=== phase 5: restart the worker, reload, re-SHARD"
"$SERVER" --port "$W2_PORT" &
PIDS+=($!)
W2_PID=$!
wait_ready "$W2_PORT" "$W2_PID"
# The same seeded table: the reload ends the sharding, so it answers locally.
printf '.gen sales f 20000\n.quit\n' | "$CLIENT" --connect 127.0.0.1:"$COORD_PORT" \
  >/dev/null || fail "could not reload the table"
"$CLIENT" --connect 127.0.0.1:"$COORD_PORT" --query "$QUERY" \
  > "$SCRATCH/reloaded.csv" || fail "post-reload query failed"
diff -q "$SCRATCH/before.csv" "$SCRATCH/reloaded.csv" >/dev/null ||
  fail "the reloaded answer differs from the pre-shard answer"
printf '.explain %s\n.quit\n' "$QUERY" |
  "$CLIENT" --connect 127.0.0.1:"$COORD_PORT" > "$SCRATCH/reloaded_plan.txt" 2>&1
grep -q "scatter:" "$SCRATCH/reloaded_plan.txt" &&
  fail "the reloaded table still scatters: $(cat "$SCRATCH/reloaded_plan.txt")"
printf '.shard f city\n.quit\n' | "$CLIENT" --connect 127.0.0.1:"$COORD_PORT" \
  > "$SCRATCH/reshard.txt" 2>&1 || fail "re-SHARD failed"
grep -q "sharded f" "$SCRATCH/reshard.txt" ||
  fail "re-SHARD not acknowledged: $(cat "$SCRATCH/reshard.txt")"
"$CLIENT" --connect 127.0.0.1:"$COORD_PORT" --query "$QUERY" \
  > "$SCRATCH/resharded.csv" || fail "post-reshard query failed"
diff -q "$SCRATCH/before.csv" "$SCRATCH/resharded.csv" >/dev/null ||
  fail "the re-sharded answer differs from the pre-shard answer"
printf '.explain %s\n.quit\n' "$QUERY" |
  "$CLIENT" --connect 127.0.0.1:"$COORD_PORT" > "$SCRATCH/resharded_plan.txt" 2>&1
grep -q "scatter:" "$SCRATCH/resharded_plan.txt" ||
  fail "the re-sharded table does not scatter: $(cat "$SCRATCH/resharded_plan.txt")"
echo "    reload answers locally, re-SHARD answers from the shards, both byte-identical"

echo "shard smoke passed"
