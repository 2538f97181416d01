#!/bin/sh
# Kill-and-recover smoke test for the live index subsystem.
#
# Streams INSERT/DELETE/CHECKPOINT commands into a live esd_server, SIGKILLs
# the server mid-stream (at an arbitrary point in the WAL/checkpoint
# protocol), restarts it on the same --live-dir, and checks that the
# recovered state agrees with esd_cli's independent recovery-replay path:
# same applied_seq watermark and the same top-k score column.
#
# usage: kill_recover_smoke.sh <esd_server> <esd_cli> [workdir]
set -eu

SERVER=${1:?usage: kill_recover_smoke.sh <esd_server> <esd_cli> [workdir]}
CLI=${2:?usage: kill_recover_smoke.sh <esd_server> <esd_cli> [workdir]}
DIR=${3:-$(mktemp -d)}
LIVE="$DIR/live"
rm -rf "$LIVE"
mkdir -p "$LIVE"
WAL="$LIVE/wal.bin"

# Optional fault injection ($ESD_FAILPOINTS syntax, e.g.
# "snapshot.rename=1in3;wal.append=1in50"): armed in the first (killed)
# server only, so the stream runs under faults while the restart and the
# esd_cli replay recover clean — the parity assertions stay exact.
SMOKE_FAILPOINTS=${SMOKE_FAILPOINTS:-}

# Endless update stream over a fixed vertex range, with a CHECKPOINT every
# 200 updates so the kill can land before, during, or after a checkpoint.
feed() {
  i=0
  while :; do
    u=$(( (i * 7919) % 997 ))
    v=$(( (i * 104729 + 13) % 997 ))
    if [ "$u" -eq "$v" ]; then v=$(( (v + 1) % 997 )); fi
    if [ $(( i % 5 )) -eq 4 ]; then
      echo "DELETE $u $v"
    else
      echo "INSERT $u $v"
    fi
    i=$(( i + 1 ))
    if [ $(( i % 200 )) -eq 0 ]; then echo "CHECKPOINT"; fi
  done
}

feed | env ESD_FAILPOINTS="$SMOKE_FAILPOINTS" \
  "$SERVER" --dataset youtube-s --scale 0.1 --requests 50 --clients 1 \
  --threads 2 --live-dir "$LIVE" > "$DIR/server1.log" 2>&1 &
SERVER_PID=$!

# Wait until the WAL holds at least ~100 records past its 12-byte header
# (records are 29 bytes), then SIGKILL the server mid-stream. Checkpoints
# reset the file to 12 bytes, so any size past the threshold means we are
# genuinely in the middle of an un-checkpointed suffix.
THRESHOLD=2912
tries=0
while :; do
  if [ -f "$WAL" ]; then size=$(wc -c < "$WAL"); else size=0; fi
  if [ "$size" -gt "$THRESHOLD" ]; then break; fi
  if ! kill -0 "$SERVER_PID" 2>/dev/null; then
    echo "FAIL: server exited before the kill point" >&2
    cat "$DIR/server1.log" >&2
    exit 1
  fi
  tries=$(( tries + 1 ))
  if [ "$tries" -gt 600 ]; then
    echo "FAIL: WAL never reached $THRESHOLD bytes" >&2
    cat "$DIR/server1.log" >&2
    exit 1
  fi
  sleep 0.05
done
kill -9 "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true

# Restart on the same live dir: recovery = snapshot + WAL suffix replay.
printf 'QUERY 10 2\nQUIT\n' | "$SERVER" --dataset youtube-s --scale 0.1 \
  --requests 50 --clients 1 --threads 2 --live-dir "$LIVE" \
  > "$DIR/server2.log" 2>&1

# Independent replay: esd_cli recovers the same dir read-only and builds a
# fresh index from scratch on the recovered graph.
"$CLI" --dataset youtube-s --scale 0.1 --k 10 --tau 2 --live-dir "$LIVE" \
  > "$DIR/cli.log" 2>&1

server_seq=$(grep -o 'applied_seq [0-9]*' "$DIR/server2.log" | head -1)
cli_seq=$(grep -o 'applied_seq [0-9]*' "$DIR/cli.log" | head -1)
if [ -z "$server_seq" ] || [ "$server_seq" != "$cli_seq" ]; then
  echo "FAIL: applied_seq mismatch: server='$server_seq' cli='$cli_seq'" >&2
  cat "$DIR/server2.log" "$DIR/cli.log" >&2
  exit 1
fi
if [ "$server_seq" = "applied_seq 0" ]; then
  echo "FAIL: no updates survived the kill (applied_seq 0)" >&2
  exit 1
fi

# Top-k rows print as "<rank> (u,v) <score>" in both tools; ties may order
# differently across engines, so parity is on the score column.
extract_scores() {
  grep -E '^[[:space:]]*[0-9]+[[:space:]]+\([0-9]+,[0-9]+\)' "$1" \
    | awk '{print $NF}'
}
server_scores=$(extract_scores "$DIR/server2.log")
cli_scores=$(extract_scores "$DIR/cli.log")
if [ -z "$server_scores" ] || [ "$server_scores" != "$cli_scores" ]; then
  echo "FAIL: top-k score mismatch after recovery" >&2
  echo "--- server ---" >&2
  cat "$DIR/server2.log" >&2
  echo "--- cli ---" >&2
  cat "$DIR/cli.log" >&2
  exit 1
fi

echo "PASS: kill-and-recover parity ($server_seq, scores: $(echo "$server_scores" | tr '\n' ' '))"
