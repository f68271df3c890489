#!/usr/bin/env bash
# Daemon kill-and-restart check: start campaignd throttled on DIR,
# submit the campaign that SPEC_FLAGS describe as SHARDS shards, attach
# two concurrent watchers, SIGKILL the daemon mid-run, then restart it
# on the same checkpoint directory. The recovered stream, read by two
# fresh watchers, must be byte-identical to a one-shot run of the same
# spec: the end-to-end form of the recovery contract that
# tests/campaign_daemon.rs and tests/campaign_chaos.rs pin in-process.
#
# Usage:
#   daemon-kill-restart.sh DIR SHARDS [--chaos SEED:PROFILE] [--retry N] -- SPEC_FLAGS...
#
# --chaos arms the daemon's seeded fault plane in both lives. --retry
# lets the clients retry transport faults; the final watches get four
# times the budget, since they also cross the restarted daemon's faults.
# Run from the workspace root after `cargo build --release --workspace`.
# The binaries are invoked directly, not through `cargo run`, so that
# `kill -9` hits the daemon itself.
set -euo pipefail

DIR=$1
SHARDS=$2
shift 2
CHAOS=()
RETRY=()
FINAL_RETRY=()
while [ "$#" -gt 0 ]; do
  case "$1" in
    --chaos) CHAOS=(--chaos "$2"); shift 2 ;;
    --retry) RETRY=(--retry "$2"); FINAL_RETRY=(--retry "$(($2 * 4))"); shift 2 ;;
    --) shift; break ;;
    *) echo "daemon-kill-restart.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done
SPEC=("$@")
BIN=target/release
DPID=
trap 'if [ -n "$DPID" ]; then kill -9 "$DPID" 2>/dev/null || true; fi' EXIT

# Starts campaignd on DIR with the given extra flags and waits for the
# address file it writes once it listens.
start_daemon() {
  rm -f "$DIR/campaignd.addr"
  "$BIN/campaignd" --dir "$DIR" "${CHAOS[@]}" "$@" &
  DPID=$!
  for _ in $(seq 1 100); do
    test -f "$DIR/campaignd.addr" && break
    sleep 0.1
  done
  ADDR=$(cat "$DIR/campaignd.addr")
}

mkdir -p "$DIR"
"$BIN/campaign" "${SPEC[@]}" --out "$DIR/oneshot.csv"

# First life: throttled on one worker, so the kill lands mid-run.
start_daemon --workers 1 --throttle-ms 400
"$BIN/campaign" "${SPEC[@]}" --submit "$ADDR" --shards "$SHARDS" "${RETRY[@]}" --detach
"$BIN/campaign" --watch "$ADDR" --job 1 "${RETRY[@]}" --out "$DIR/killed1.csv" &
W1=$!
"$BIN/campaign" --watch "$ADDR" --job 1 "${RETRY[@]}" --out "$DIR/killed2.csv" &
W2=$!
sleep 2
kill -9 "$DPID"
wait "$W1" || true
wait "$W2" || true
# Mid-run crash state: shard checkpoints survive (written atomically)
# and the merged report does not exist yet. Injected stalls and retries
# make the chaos runs' progress at the kill unpredictable, so only the
# fault-free runs check it.
if [ "${#CHAOS[@]}" -eq 0 ]; then
  test ! -f "$DIR/job-1/report.pnc"
fi
ls "$DIR/job-1/"

# Second life, same checkpoint directory, no throttle: recovery adopts
# the surviving checkpoints, reruns only the missing shards, and fresh
# watchers stream the finished job.
start_daemon
"$BIN/campaign" --watch "$ADDR" --job 1 "${FINAL_RETRY[@]}" --out "$DIR/final1.csv"
"$BIN/campaign" --watch "$ADDR" --job 1 "${FINAL_RETRY[@]}" --out "$DIR/final2.csv"
test -f "$DIR/job-1/report.pnc"
cmp "$DIR/final1.csv" "$DIR/oneshot.csv"
cmp "$DIR/final2.csv" "$DIR/final1.csv"
