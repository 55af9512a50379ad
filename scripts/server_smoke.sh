#!/usr/bin/env bash
# End-to-end smoke test for `ausdb serve`: start, ingest, query, stats,
# snapshot, shutdown — then restart against the snapshot and verify the
# restored state answers the same query identically. Along the way it
# scrapes `GET /metrics` over plain HTTP and asserts the body is
# byte-identical to the `METRICS` protocol reply, checks `HELP`, and
# verifies `--trace-json` writes Chrome trace-event JSON on shutdown.
# Phase 7 probes `GET /healthz` / `GET /readyz` and drives an
# accuracy-SLO violation end to end: subscribe, arm an impossibly tight
# `SLO SET`, close a window, and watch the `ACCURACY` notice plus the
# violation counter land. Phase 8 exercises the history retention
# surfaces: the `HISTORY` verb, the `GET /history` endpoint (which must
# agree byte-for-byte with `HISTORY EXPORT`), and the
# `--history-export` shutdown dump.
#
# Uses bash's /dev/tcp so no netcat is required. Run from anywhere:
#   bash scripts/server_smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."

BIN=${AUSDB_BIN:-target/release/ausdb}
if [[ ! -x "$BIN" ]]; then
    echo "== building $BIN =="
    cargo build --release --bin ausdb
fi

WORK=$(mktemp -d)
SERVER_PID=""
PRIMARY_PID=""
cleanup() {
    [[ -n "$SERVER_PID" ]] && kill "$SERVER_PID" 2>/dev/null || true
    [[ -n "$PRIMARY_PID" ]] && kill "$PRIMARY_PID" 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT
SNAP="$WORK/state.snap"

fail() {
    echo "SMOKE FAIL: $*" >&2
    echo "--- server stdout ---" >&2 && cat "$WORK"/out* >&2 || true
    echo "--- server stderr ---" >&2 && cat "$WORK"/err* >&2 || true
    exit 1
}

start_server() { # start_server <out-suffix> [extra serve flags...]
    local suffix=$1
    shift
    "$BIN" serve --addr 127.0.0.1:0 --snapshot-path "$SNAP" --window 10 \
        --http-addr 127.0.0.1:0 --trace-json "$WORK/trace$suffix.json" "$@" \
        >"$WORK/out$suffix" 2>"$WORK/err$suffix" &
    SERVER_PID=$!
    for _ in $(seq 1 200); do
        grep -q "^metrics listening on " "$WORK/out$suffix" 2>/dev/null && break
        kill -0 "$SERVER_PID" 2>/dev/null || fail "server exited before announcing"
        sleep 0.05
    done
    PORT=$(sed -n 's/^listening on .*:\([0-9][0-9]*\)$/\1/p' "$WORK/out$suffix" | head -1)
    [[ -n "$PORT" ]] || fail "no 'listening on' line"
    HTTP_PORT=$(sed -n 's/^metrics listening on .*:\([0-9][0-9]*\)$/\1/p' "$WORK/out$suffix" | head -1)
    [[ -n "$HTTP_PORT" ]] || fail "no 'metrics listening on' line"
    exec 3<>"/dev/tcp/127.0.0.1/$PORT"
    expect "OK ausdb-serve 1 ready"
}

http_get() { # http_get <target> <body-file> -> status line in $HTTP_STATUS
    exec 4<>"/dev/tcp/127.0.0.1/$HTTP_PORT"
    printf 'GET %s HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n' "$1" >&4
    cat <&4 >"$WORK/http_raw" # server closes after the response
    exec 4<&- 4>&-
    HTTP_STATUS=$(head -1 "$WORK/http_raw" | tr -d '\r')
    # The body starts after the first blank (header-terminating) line.
    awk 'body { print } /^\r?$/ { body = 1 }' "$WORK/http_raw" >"$2"
}

send() { printf '%s\n' "$1" >&3; }

read_reply() { # one line from the server -> $REPLY_LINE
    IFS= read -r -u 3 -t 10 REPLY_LINE || fail "no reply from server"
    REPLY_LINE=${REPLY_LINE%$'\r'}
}

expect() { # expect <glob> — next line must match
    read_reply
    # shellcheck disable=SC2254
    case "$REPLY_LINE" in
        $1) ;;
        *) fail "got '$REPLY_LINE', wanted '$1'" ;;
    esac
}

read_block() { # read lines into file $1 until END/ERR terminator
    : >"$1"
    while read_reply; do
        printf '%s\n' "$REPLY_LINE" >>"$1"
        case "$REPLY_LINE" in
            END*) return 0 ;;
            ERR*) fail "error reply: $REPLY_LINE" ;;
        esac
    done
}

echo "== phase 1: start, ingest, query, stats, snapshot, shutdown =="
start_server 1
send "PING"
expect "OK PONG"
# Three observations in window [100,110); the fourth (ts=112) closes it.
for row in "19,100,56" "19,101,38.5" "19,103,97.25" "19,112,41"; do
    send "INGEST traffic $row"
    expect "OK INGESTED traffic*"
done
send "QUERY SELECT * FROM traffic"
read_block "$WORK/query_before"
grep -q "^SCHEMA " "$WORK/query_before" || fail "query reply lacks SCHEMA"
grep -q "^ROW " "$WORK/query_before" || fail "query reply lacks ROW"
send "STATS"
read_block "$WORK/stats"
grep -q "rows_ingested=4" "$WORK/stats" || fail "stats missing rows_ingested=4"
send "METRICS"
read_block "$WORK/metrics"
grep -q '^# TYPE ausdb_query_latency_seconds histogram$' "$WORK/metrics" ||
    fail "METRICS missing the query latency histogram TYPE line"
grep -q '^ausdb_rows_ingested_total{stream="traffic"} 4$' "$WORK/metrics" ||
    fail "METRICS missing the per-stream ingest counter"
# The HTTP scrape must serve the same exposition as the METRICS verb:
# byte-for-byte identical bodies (METRICS adds only the END terminator).
http_get /metrics "$WORK/http_body"
[[ "$HTTP_STATUS" == "HTTP/1.1 200 OK" ]] || fail "GET /metrics status: $HTTP_STATUS"
sed '$d' "$WORK/metrics" >"$WORK/metrics_body" # drop the END line
diff -u "$WORK/metrics_body" "$WORK/http_body" ||
    fail "GET /metrics body differs from the METRICS protocol reply"
send "HELP"
read_block "$WORK/help"
grep -q '^QUERY ' "$WORK/help" || fail "HELP does not document QUERY"
grep -q '^TRACEX ' "$WORK/help" || fail "HELP does not document TRACEX"
grep -q '^INGESTB ' "$WORK/help" || fail "HELP does not document INGESTB"
send "TRACE 5"
read_block "$WORK/trace"
grep -q '^TRACE #' "$WORK/trace" || fail "TRACE returned no journal entries"
send "SNAPSHOT"
expect "OK SNAPSHOT*"
[[ -s "$SNAP" ]] || fail "snapshot file missing or empty"
send "SHUTDOWN"
expect "OK shutting down"
exec 3<&- 3>&-
wait "$SERVER_PID" || fail "server exited non-zero after SHUTDOWN"
SERVER_PID=""
# --trace-json writes the span ring as Chrome trace-event JSON on exit.
[[ -s "$WORK/trace1.json" ]] || fail "--trace-json wrote no file"
head -1 "$WORK/trace1.json" | grep -q '^\[' || fail "trace JSON does not open an array"
tail -1 "$WORK/trace1.json" | grep -q '^\]' || fail "trace JSON does not close an array"
grep -q '"ph":"X"' "$WORK/trace1.json" || fail "trace JSON has no complete-span events"

echo "== phase 2: restart from snapshot, verify identical state =="
start_server 2
grep -q "restored 1 streams from snapshot" "$WORK/err2" || fail "no restore message"
send "QUERY SELECT * FROM traffic"
read_block "$WORK/query_after"
diff -u "$WORK/query_before" "$WORK/query_after" ||
    fail "restored state answers the query differently"
send "SHUTDOWN"
expect "OK shutting down"
exec 3<&- 3>&-
wait "$SERVER_PID" || fail "restarted server exited non-zero"
SERVER_PID=""

# The same four observations phases 1–2 pushed line-by-line, now fed to
# `ausdb ingest` (the INGESTB binary batch client) via stdin.
ROWS_FILE="$WORK/rows.csv"
printf '%s\n' "19,100,56" "19,101,38.5" "19,103,97.25" "19,112,41" >"$ROWS_FILE"

echo "== phase 3: INGESTB batch ingest answers identically to line ingest =="
SNAP="$WORK/state3.snap"
start_server 3
"$BIN" ingest --addr "127.0.0.1:$PORT" --stream traffic <"$ROWS_FILE" \
    >"$WORK/ingest3" 2>&1 || fail "ausdb ingest failed: $(cat "$WORK/ingest3")"
grep -q "ingested 4 rows" "$WORK/ingest3" || fail "batch client did not report 4 rows"
send "QUERY SELECT * FROM traffic"
read_block "$WORK/query_batch"
diff -u "$WORK/query_before" "$WORK/query_batch" ||
    fail "INGESTB-ingested state answers the query differently from line ingest"
send "STATS"
read_block "$WORK/stats3"
grep -q "rows_ingested=4" "$WORK/stats3" || fail "batch stats missing rows_ingested=4"
send "SHUTDOWN"
expect "OK shutting down"
exec 3<&- 3>&-
wait "$SERVER_PID" || fail "phase-3 server exited non-zero"
SERVER_PID=""

echo "== phase 4: sharded server (--shards 4) is bit-identical too =="
SNAP="$WORK/state4.snap"
start_server 4 --shards 4
"$BIN" ingest --addr "127.0.0.1:$PORT" --stream traffic <"$ROWS_FILE" \
    >"$WORK/ingest4" 2>&1 || fail "sharded ausdb ingest failed: $(cat "$WORK/ingest4")"
send "QUERY SELECT * FROM traffic"
read_block "$WORK/query_sharded"
diff -u "$WORK/query_before" "$WORK/query_sharded" ||
    fail "4-shard state answers the query differently from the single engine"
send "SNAPSHOT"
expect "OK SNAPSHOT*"
[[ -s "$SNAP" ]] || fail "sharded snapshot file missing or empty"
send "SHUTDOWN"
expect "OK shutting down"
exec 3<&- 3>&-
wait "$SERVER_PID" || fail "phase-4 server exited non-zero"
SERVER_PID=""

echo "== phase 5: kill -9 mid-window, WAL replay answers identically =="
SNAP="$WORK/state5.snap"
start_server 5 --wal-dir "$WORK/wal5"
# Three observations land in window [100,110); no close yet, so nothing
# is in the snapshot — only the WAL holds them when we pull the plug.
for row in "19,100,56" "19,101,38.5" "19,103,97.25"; do
    send "INGEST traffic $row"
    expect "OK INGESTED traffic*"
done
send "WALSTAT"
expect "OK WALSTAT role=primary wal=on*last_seq=3*"
kill -9 "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=""
exec 3<&- 3>&-
[[ ! -s "$SNAP" ]] || fail "kill -9 still produced a snapshot"
start_server 5b --wal-dir "$WORK/wal5"
grep -q "replayed 3 WAL records" "$WORK/err5b" || fail "no WAL replay message"
send "INGEST traffic 19,112,41"
expect "OK INGESTED traffic*"
send "QUERY SELECT * FROM traffic"
read_block "$WORK/query_recovered"
diff -u "$WORK/query_before" "$WORK/query_recovered" ||
    fail "state recovered from the WAL answers the query differently"
send "SHUTDOWN"
expect "OK shutting down"
exec 3<&- 3>&-
wait "$SERVER_PID" || fail "phase-5 server exited non-zero"
SERVER_PID=""

echo "== phase 6: follower replicates, rejects writes, promotes =="
SNAP="$WORK/state6p.snap"
start_server 6p --wal-dir "$WORK/wal6p"
for row in "19,100,56" "19,101,38.5" "19,103,97.25" "19,112,41"; do
    send "INGEST traffic $row"
    expect "OK INGESTED traffic*"
done
PRIMARY_PID=$SERVER_PID
PRIMARY_PORT=$PORT
exec 3<&- 3>&-
SNAP="$WORK/state6f.snap"
start_server 6f --wal-dir "$WORK/wal6f" --replicate-from "127.0.0.1:$PRIMARY_PORT"
grep -q "running as read-only follower" "$WORK/err6f" || fail "no follower banner"
for _ in $(seq 1 200); do
    send "WALSTAT"
    read_reply
    case "$REPLY_LINE" in *"last_seq=4"*) break ;; esac
    sleep 0.05
done
case "$REPLY_LINE" in
    "OK WALSTAT role=follower"*"last_seq=4"*) ;;
    *) fail "follower never caught up: $REPLY_LINE" ;;
esac
send "INGEST traffic 1,1,1"
expect "ERR read-only follower*"
send "QUERY SELECT * FROM traffic"
read_block "$WORK/query_follower"
diff -u "$WORK/query_before" "$WORK/query_follower" ||
    fail "follower answers the query differently from the primary workload"
kill -9 "$PRIMARY_PID"
wait "$PRIMARY_PID" 2>/dev/null || true
PRIMARY_PID=""
send "PROMOTE"
expect "OK*"
send "INGEST traffic 19,120,50"
expect "OK INGESTED traffic*"
send "SHUTDOWN"
expect "OK shutting down"
exec 3<&- 3>&-
wait "$SERVER_PID" || fail "phase-6 follower exited non-zero"
SERVER_PID=""

echo "== phase 7: health endpoints and the accuracy-SLO watchdog =="
SNAP="$WORK/state7.snap"
start_server 7
http_get /healthz "$WORK/healthz"
[[ "$HTTP_STATUS" == "HTTP/1.1 200 OK" ]] || fail "GET /healthz status: $HTTP_STATUS"
grep -q '"status":"ok"' "$WORK/healthz" || fail "/healthz body not ok: $(cat "$WORK/healthz")"
http_get /readyz "$WORK/readyz"
[[ "$HTTP_STATUS" == "HTTP/1.1 200 OK" ]] || fail "GET /readyz status: $HTTP_STATUS"
grep -q '"name":"bootstrap","ok":true' "$WORK/readyz" ||
    fail "/readyz lacks a passing bootstrap probe: $(cat "$WORK/readyz")"
send "HEALTH"
read_block "$WORK/health"
grep -q '^HEALTH role=primary ready=true ' "$WORK/health" ||
    fail "HEALTH summary line wrong: $(head -1 "$WORK/health")"
# A second connection subscribes and arms an SLO no window can meet;
# the control connection then ingests a window's worth of observations.
exec 5<>"/dev/tcp/127.0.0.1/$PORT"
IFS= read -r -u 5 -t 10 GREETING || fail "no greeting on the subscriber connection"
printf 'SUBSCRIBE SELECT * FROM traffic\n' >&5
IFS= read -r -u 5 -t 10 SUBLINE || fail "no SUBSCRIBE reply"
case "${SUBLINE%$'\r'}" in
    "OK SUBSCRIBED 1 traffic") ;;
    *) fail "unexpected SUBSCRIBE reply: $SUBLINE" ;;
esac
printf 'SLO SET 1 0.000000001\n' >&5
IFS= read -r -u 5 -t 10 SLOLINE || fail "no SLO SET reply"
case "${SLOLINE%$'\r'}" in
    "OK SLO 1 target=0.000000001") ;;
    *) fail "unexpected SLO SET reply: $SLOLINE" ;;
esac
for row in "19,100,56" "19,101,38.5" "19,103,97.25" "19,112,41"; do
    send "INGEST traffic $row"
    expect "OK INGESTED traffic*"
done
# The window close pushes the EVENT block and, since its CI width can
# never beat a 1e-9 target, an ACCURACY notice right behind it.
: >"$WORK/sub7"
for _ in $(seq 1 200); do
    IFS= read -r -u 5 -t 10 NOTICE || fail "subscriber connection closed early"
    printf '%s\n' "${NOTICE%$'\r'}" >>"$WORK/sub7"
    case "$NOTICE" in ACCURACY*) break ;; esac
done
grep -q '^ACCURACY 1 width=.* target=0.000000001$' "$WORK/sub7" ||
    fail "no ACCURACY notice after the window close: $(cat "$WORK/sub7")"
grep -q '^EVENT ' "$WORK/sub7" || fail "subscriber got no EVENT block"
send "SLO LIST"
read_block "$WORK/slo_list"
grep -q '^SLO 1 stream=traffic target=0.000000001 violations=[1-9]' "$WORK/slo_list" ||
    fail "SLO LIST shows no violation: $(cat "$WORK/slo_list")"
http_get /metrics "$WORK/metrics7"
grep -q '^ausdb_accuracy_slo_violations_total{query="1"} [1-9]' "$WORK/metrics7" ||
    fail "violation counter not exported"
# The subscriber's writer thread flushed that block, so the fan-out delay
# family (enqueue of the oldest block -> end of the socket write) has a sample.
grep -q '^ausdb_fanout_delay_seconds_count [1-9]' "$WORK/metrics7" ||
    fail "ausdb_fanout_delay_seconds has no sample after an EVENT was delivered"
send "SHUTDOWN"
expect "OK shutting down"
exec 3<&- 3>&- 5<&- 5>&-
wait "$SERVER_PID" || fail "phase-7 server exited non-zero"
SERVER_PID=""

echo "== phase 8: history retention: verb, HTTP endpoint, export file =="
SNAP="$WORK/state8.snap"
# Sampler off (AUSDB_HISTORY_SAMPLE_MS=0) so the store holds only the
# deterministic accuracy trajectory: the verb reply, the HTTP body, and
# the shutdown export must then all agree byte-for-byte.
export AUSDB_HISTORY_SAMPLE_MS=0
start_server 8 --history-export "$WORK/history8.json"
unset AUSDB_HISTORY_SAMPLE_MS
# A standing query must exist before the window closes for an accuracy
# point to be retained; its event queue is simply never drained.
exec 5<>"/dev/tcp/127.0.0.1/$PORT"
IFS= read -r -u 5 -t 10 GREETING || fail "no greeting on the subscriber connection"
printf 'SUBSCRIBE SELECT * FROM traffic\n' >&5
IFS= read -r -u 5 -t 10 SUBLINE || fail "no SUBSCRIBE reply"
case "${SUBLINE%$'\r'}" in
    "OK SUBSCRIBED 1 traffic") ;;
    *) fail "unexpected SUBSCRIBE reply: $SUBLINE" ;;
esac
for row in "19,100,56" "19,101,38.5" "19,103,97.25" "19,112,41"; do
    send "INGEST traffic $row"
    expect "OK INGESTED traffic*"
done
# Poll until the window-close accuracy point has landed in the store.
for _ in $(seq 1 200); do
    send "HISTORY"
    read_block "$WORK/hist_list"
    grep -q 'kind=accuracy points=1$' "$WORK/hist_list" && break
    sleep 0.05
done
grep -q '^SERIES ausdb_accuracy{query="1"} kind=accuracy points=1$' "$WORK/hist_list" ||
    fail "HISTORY does not list the accuracy trajectory: $(cat "$WORK/hist_list")"
send 'HISTORY ausdb_accuracy{query="1"} LAST 2h'
read_block "$WORK/hist_series"
grep -q '^POINT t=100 .*df_n=3 .*rows=1 late_rows=0$' "$WORK/hist_series" ||
    fail "accuracy point for window 100 missing: $(cat "$WORK/hist_series")"
send "HISTORY EXPORT"
read_block "$WORK/hist_export"
sed '$d' "$WORK/hist_export" >"$WORK/hist_export_body" # drop the END line
http_get /history "$WORK/hist_http"
[[ "$HTTP_STATUS" == "HTTP/1.1 200 OK" ]] || fail "GET /history status: $HTTP_STATUS"
diff -u "$WORK/hist_export_body" "$WORK/hist_http" ||
    fail "GET /history body differs from the HISTORY EXPORT reply"
# Per-series scrape with the brace/quote series name percent-encoded.
http_get '/history?series=ausdb_accuracy%7Bquery%3D%221%22%7D&last=2h' "$WORK/hist_http1"
[[ "$HTTP_STATUS" == "HTTP/1.1 200 OK" ]] || fail "GET /history?series status: $HTTP_STATUS"
grep -q '"t":100' "$WORK/hist_http1" ||
    fail "per-series scrape lacks window 100: $(cat "$WORK/hist_http1")"
http_get /nope "$WORK/http404"
[[ "$HTTP_STATUS" == "HTTP/1.1 404 Not Found" ]] || fail "GET /nope status: $HTTP_STATUS"
grep -q '^try GET /metrics' "$WORK/http404" || fail "404 body lacks the route hint"
send "SHUTDOWN"
expect "OK shutting down"
exec 3<&- 3>&- 5<&- 5>&-
wait "$SERVER_PID" || fail "phase-8 server exited non-zero"
SERVER_PID=""
# --history-export wrote the same dump the live endpoint served.
diff -u "$WORK/hist_http" "$WORK/history8.json" ||
    fail "--history-export file differs from the live GET /history dump"

echo "server smoke OK"
