#!/usr/bin/env bash
# Three-tenant serve equivalence: one multi-tenant sldigest process must
# produce, per tenant, byte-identical events to three dedicated
# single-tenant serve processes — at 1, 4, and 16 shards — and its
# shared metrics snapshot must reconcile per tenant (DESIGN.md section
# 12).  Replays are paced so loopback UDP stays lossless; --max-datagrams
# plus --idle-exit-s bound every run.
#
# Usage: serve_multitenant_test.sh SLDIGEST_BIN CHECK_METRICS_PY
set -euo pipefail
BIN=$1
CHECK=$2
d=$(mktemp -d)
cleanup() {
  kill $(jobs -p) 2>/dev/null || true
  rm -rf "$d"
}
trap cleanup EXIT

# Three independent networks: configs, history, learned KB, live day.
for i in 1 2 3; do
  "$BIN" gen --dataset A --days 2 --seed $((30 + i)) \
    --out "$d/hist$i.log" --configs "$d/cfg$i" > /dev/null
  "$BIN" gen --dataset A --days 1 --day0 2 --seed $((60 + i)) \
    --out "$d/live$i.log" --configs "$d/cfgx$i" > /dev/null
  "$BIN" learn --configs "$d/cfg$i" --history "$d/hist$i.log" \
    --kb "$d/kb$i.txt" > /dev/null
done
n1=$(wc -l < "$d/live1.log")
n2=$(wc -l < "$d/live2.log")
n3=$(wc -l < "$d/live3.log")

# Waits until $2 "listening" lines appear in stderr file $1, then echoes
# the bound ports in announcement order.
wait_ports() {
  for _ in $(seq 1 150); do
    if [ "$(grep -c 'listening on' "$1" 2>/dev/null || true)" -ge "$2" ]; then
      break
    fi
    sleep 0.1
  done
  grep -o 'listening on 127.0.0.1:[0-9]*' "$1" | grep -o '[0-9]*$'
}

replay() {
  "$BIN" replay --in "$1" --port "$2" --pace-us 100 > /dev/null 2>&1
}

# Reference: three dedicated single-tenant processes (shards=1), the
# pre-multi-tenant deployment shape.
for i in 1 2 3; do
  n=$(wc -l < "$d/live$i.log")
  "$BIN" serve --configs "$d/cfg$i" --kb "$d/kb$i.txt" --port 0 \
    --max-datagrams "$n" --idle-exit-s 15 \
    > "$d/ref$i.txt" 2> "$d/ref$i.err" &
  pid=$!
  port=$(wait_ports "$d/ref$i.err" 1)
  replay "$d/live$i.log" "$port"
  wait "$pid"
  grep -q "done: $n datagrams (0 malformed)" "$d/ref$i.err"
done

# Multi-tenant: one process, three tenants, at 1/4/16 shards.
total=$((n1 + n2 + n3))
for shards in 1 4 16; do
  "$BIN" serve \
    --tenant "t1:$d/cfg1:$d/kb1.txt:0" \
    --tenant "t2:$d/cfg2:$d/kb2.txt:0" \
    --tenant "t3:$d/cfg3:$d/kb3.txt:0" \
    --shards "$shards" --max-datagrams "$total" --idle-exit-s 15 \
    --metrics-out "$d/m$shards.json" \
    > "$d/multi$shards.txt" 2> "$d/multi$shards.err" &
  pid=$!
  ports=$(wait_ports "$d/multi$shards.err" 3)
  [ "$(echo "$ports" | wc -l)" -eq 3 ]
  p1=$(echo "$ports" | sed -n 1p)
  p2=$(echo "$ports" | sed -n 2p)
  p3=$(echo "$ports" | sed -n 3p)
  # Concurrent senders: the three tenants' traffic interleaves on the
  # wire, which must not perturb any tenant's output.
  replay "$d/live1.log" "$p1" &
  r1=$!
  replay "$d/live2.log" "$p2" &
  r2=$!
  replay "$d/live3.log" "$p3" &
  r3=$!
  wait "$r1" "$r2" "$r3"
  wait "$pid"

  for i in 1 2 3; do
    grep "^t$i|" "$d/multi$shards.txt" | sed "s/^t$i|//" \
      > "$d/got${shards}_$i.txt"
    if ! cmp "$d/got${shards}_$i.txt" "$d/ref$i.txt"; then
      echo "tenant t$i diverged from standalone at $shards shards" >&2
      exit 1
    fi
    grep -q "tenant t$i done:" "$d/multi$shards.err"
  done
  # No unprefixed event lines leak through in multi-tenant mode.
  if grep -qv '^t[123]|' "$d/multi$shards.txt"; then
    echo "unprefixed output line in multi-tenant serve" >&2
    exit 1
  fi
  python3 "$CHECK" --per-tenant "$d/m$shards.json" \
    "t1=$n1" "t2=$n2" "t3=$n3"
done
echo "PASS: 3 tenants bit-identical to standalone at 1/4/16 shards"
