#!/usr/bin/env bash
# Launch a 4-node loopback Leopard cluster + closed-loop client, assert every
# request is acked and that all (honest) replicas report the same Execute-fold
# digest. This is the human-runnable twin of tests/socket_cluster_test.cpp and
# tests/chaos_wire_test.cpp (which is what CI runs, under ASan); see
# docs/DEPLOY.md.
#
# usage: tools/run_local_cluster.sh [BUILD_DIR] [PROTOCOL] [REQUESTS] [flags]
#   --shards S         run S parallel protocol shards per node (manifest key
#                      `shards`); replicas report per-shard digests plus the
#                      merged exec_digest, which must still match
#   --byzantine MODE   run one replica under a byzantine interposer
#                      (equivocate | silence | garbage-shares | laggard);
#                      fails unless that replica reports actions taken
#                      (garbage-shares acts only on chunks peers pull from it)
#   --byzantine-id N   which replica misbehaves (default 3, or the initial
#                      leader 1 for equivocate: only a leader proposes)
#   --lag-ms MS        frame delay for --byzantine laggard (default 150)
#   --proxy            route the last replica's dials through a chaos_proxy
#   --proxy-args "..." extra chaos_proxy flags, e.g.
#                      "--delay-ms 20 --jitter-ms 10 --drop-pct 1"
#                      (per-route --partition flags work too; routes listen on
#                      consecutive ports printed at startup)
set -euo pipefail

BUILD_DIR=build PROTOCOL=leopard REQUESTS=500
BYZ_MODE="" BYZ_ID="" LAG_MS=150 USE_PROXY=0 PROXY_ARGS="" SHARDS=1
pos=0
while [ $# -gt 0 ]; do
  case "$1" in
    --shards)       SHARDS="$2"; shift 2 ;;
    --byzantine)    BYZ_MODE="$2"; shift 2 ;;
    --byzantine-id) BYZ_ID="$2"; shift 2 ;;
    --lag-ms)       LAG_MS="$2"; shift 2 ;;
    --proxy)        USE_PROXY=1; shift ;;
    --proxy-args)   PROXY_ARGS="$2"; shift 2 ;;
    --*)            echo "error: unknown flag $1"; exit 1 ;;
    *) case $pos in
         0) BUILD_DIR="$1" ;;
         1) PROTOCOL="$1" ;;
         2) REQUESTS="$1" ;;
         *) echo "error: too many positional args"; exit 1 ;;
       esac; pos=$((pos + 1)); shift ;;
  esac
done

if [ -z "$BYZ_ID" ]; then
  BYZ_ID=3
  [ "$BYZ_MODE" != "equivocate" ] || BYZ_ID=1
fi

NODE_BIN="$BUILD_DIR/leopard_node"
PROXY_BIN="$BUILD_DIR/chaos_proxy"
[ -x "$NODE_BIN" ] || { echo "error: $NODE_BIN not built (cmake --build $BUILD_DIR)"; exit 1; }
[ "$USE_PROXY" = 0 ] || [ -x "$PROXY_BIN" ] || { echo "error: $PROXY_BIN not built"; exit 1; }

WORK="$(mktemp -d /tmp/leopard_cluster.XXXXXX)"
trap 'kill $(cat "$WORK"/*.pid 2>/dev/null) 2>/dev/null || true; rm -rf "$WORK"' EXIT

# Equivocation is only contained through a view change; everything else should
# commit without one.
VIEW_TIMEOUT_MS=60000
[ "$BYZ_MODE" = "equivocate" ] && VIEW_TIMEOUT_MS=2000

PORT_BASE=$(( 20000 + RANDOM % 20000 ))
{
  echo "protocol $PROTOCOL"
  echo "n 4"
  echo "seed 7"
  echo "payload_size 128"
  echo "datablock_requests 100"
  echo "bftblock_links 8"
  echo "datablock_max_wait_ms 20"
  echo "proposal_max_wait_ms 10"
  echo "view_timeout_ms $VIEW_TIMEOUT_MS"
  echo "batch_size 100"
  echo "shards $SHARDS"
  for id in 0 1 2 3; do echo "node $id 127.0.0.1:$(( PORT_BASE + id ))"; done
} > "$WORK/cluster.conf"

# --proxy: replica 3 reaches each lower-id peer only through a chaos_proxy
# route (higher id dials lower, so its manifest's `proxy` lines cover all of
# its replica links). The proxy is a separate interposer process: kill -TERM
# it for forwarding stats, or pass --partition windows via --proxy-args.
if [ "$USE_PROXY" = 1 ]; then
  PROXY_PORT_BASE=$(( PORT_BASE + 10 ))
  ROUTE_FLAGS=()
  {
    cat "$WORK/cluster.conf"
    for id in 0 1 2; do
      echo "proxy $id 127.0.0.1:$(( PROXY_PORT_BASE + id ))"
    done
  } > "$WORK/node3.conf"
  for id in 0 1 2; do
    ROUTE_FLAGS+=(--route "$(( PROXY_PORT_BASE + id )):127.0.0.1:$(( PORT_BASE + id ))")
    echo "proxy route: :$(( PROXY_PORT_BASE + id )) -> replica $id"
  done
  # shellcheck disable=SC2086
  "$PROXY_BIN" "${ROUTE_FLAGS[@]}" $PROXY_ARGS > "$WORK/proxy.out" 2>&1 &
  echo $! > "$WORK/proxy.pid"
  sleep 0.2
fi

for id in 0 1 2 3; do
  MANIFEST="$WORK/cluster.conf"
  [ "$USE_PROXY" = 1 ] && [ "$id" = 3 ] && MANIFEST="$WORK/node3.conf"
  EXTRA=()
  if [ -n "$BYZ_MODE" ] && [ "$id" = "$BYZ_ID" ]; then
    EXTRA=(--byzantine "$BYZ_MODE")
    [ "$BYZ_MODE" = "laggard" ] && EXTRA+=(--byzantine-lag-ms "$LAG_MS")
    echo "replica $id: byzantine mode $BYZ_MODE"
  fi
  "$NODE_BIN" --manifest "$MANIFEST" --id "$id" "${EXTRA[@]+"${EXTRA[@]}"}" \
    --metrics-addr "127.0.0.1:$(( PORT_BASE + 100 + id ))" \
    > "$WORK/replica$id.out" 2>&1 &
  echo $! > "$WORK/replica$id.pid"
done

# Health gate: don't declare the cluster up (or start the client) until every
# replica's /healthz answers. Catches a replica that died on startup with a
# clear message instead of a hung client.
for id in 0 1 2 3; do
  HEALTH_URL="http://127.0.0.1:$(( PORT_BASE + 100 + id ))/healthz"
  for attempt in $(seq 1 50); do
    if curl -sf --max-time 1 "$HEALTH_URL" > /dev/null 2>&1; then break; fi
    kill -0 "$(cat "$WORK/replica$id.pid")" 2>/dev/null \
      || { echo "FAIL: replica $id exited before becoming healthy"; cat "$WORK/replica$id.out"; exit 1; }
    [ "$attempt" = 50 ] && { echo "FAIL: replica $id /healthz never came up"; exit 1; }
    sleep 0.1
  done
done
echo "cluster up: /healthz ok on replicas 0-3 (metrics at ports $(( PORT_BASE + 100 ))-$(( PORT_BASE + 103 )))"

"$NODE_BIN" --manifest "$WORK/cluster.conf" --client --id 100 \
  --requests "$REQUESTS" --window 64 --timeout 120 | tee "$WORK/client.out"
grep -q "acked=$REQUESTS" "$WORK/client.out" || { echo "FAIL: client not fully acked"; exit 1; }

if [ "$USE_PROXY" = 1 ]; then
  kill -TERM "$(cat "$WORK/proxy.pid")" 2>/dev/null || true
  wait "$(cat "$WORK/proxy.pid")" 2>/dev/null || true
  grep -h "role=chaos_proxy" "$WORK/proxy.out" || true
fi

# A byzantine replica is allowed to diverge (it lies to itself too); honest
# replicas must agree.
HONEST_IDS=()
for id in 0 1 2 3; do
  if [ -n "$BYZ_MODE" ] && [ "$id" = "$BYZ_ID" ]; then continue; fi
  HONEST_IDS+=("$id")
done

# The last ack proves only that its maker executed. A replica still
# retrieving a withheld datablock executes it a little later, so wait (up
# to 10 s) until every honest replica reports the same executed block count.
for attempt in $(seq 1 100); do
  COUNTS=$(for id in "${HONEST_IDS[@]}"; do
    curl -sf --max-time 1 "http://127.0.0.1:$(( PORT_BASE + 100 + id ))/statusz" \
      | grep -o '"executed_blocks": *[0-9]*' || echo "none $id"
  done | sort -u)
  [ "$(echo "$COUNTS" | wc -l)" -eq 1 ] && break
  sleep 0.1
done
for id in 0 1 2 3; do kill -TERM "$(cat "$WORK/replica$id.pid")"; done
for id in 0 1 2 3; do wait "$(cat "$WORK/replica$id.pid")" || { echo "FAIL: replica $id unclean exit"; exit 1; }; done

HONEST_OUTS=()
for id in "${HONEST_IDS[@]}"; do HONEST_OUTS+=("$WORK/replica$id.out"); done
DIGESTS=$(grep -ho "exec_digest=[0-9a-f]*" "${HONEST_OUTS[@]}" | sort -u)
echo "$DIGESTS"
[ "$(echo "$DIGESTS" | wc -l)" -eq 1 ] || { echo "FAIL: replica digests diverged"; exit 1; }
# An attack that never fired proves nothing: the byzantine replica's
# leopard_chaos_byz_actions_total series (one per action kind) must sum to >0.
if [ -n "$BYZ_MODE" ]; then
  BYZ_ACTIONS=$(grep -ho "leopard_chaos_byz_actions_total{[^}]*}=[0-9]*" \
    "$WORK/replica$BYZ_ID.out" || true)
  echo "$BYZ_ACTIONS" | tr '\n' ' '; echo
  BYZ_TOTAL=$(echo "$BYZ_ACTIONS" | awk -F= '{ total += $NF } END { print total + 0 }')
  [ "$BYZ_TOTAL" -gt 0 ] || { echo "FAIL: byzantine replica $BYZ_ID reports no $BYZ_MODE actions"; exit 1; }
fi
echo "OK: $REQUESTS requests committed end to end on $PROTOCOL, honest digests match"
