#!/usr/bin/env bash
# netsmoke.sh — the PR 8 acceptance check as a script: build p2pmon,
# run a 3-process monitor cluster over real loopback TCP sockets, and
# require the root's windowed-aggregation output to be byte-identical
# to the single-process simnet run of the same scenario. The root runs
# with -metrics-addr, and the script scrapes its live telemetry
# endpoint (Prometheus and JSON) asserting non-empty wire counters —
# the docs/TELEMETRY.md export path exercised end to end.
#
# Usage: scripts/netsmoke.sh [windows] [fn]
set -euo pipefail

WINDOWS="${1:-4}"
FN="${2:-count}"
cd "$(dirname "$0")/.."

WORK="$(mktemp -d)"
PIDS=()
cleanup() {
  for pid in "${PIDS[@]:-}"; do kill "$pid" 2>/dev/null || true; done
  wait 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

echo "== netsmoke: building p2pmon =="
go build -o "$WORK/p2pmon" ./cmd/p2pmon

# Reserve three distinct loopback ports: hold all three listeners open
# at once so the kernel cannot hand the same port out twice.
cat >"$WORK/freeports.go" <<'EOF'
package main

import (
	"fmt"
	"net"
)

func main() {
	var ls []net.Listener
	for i := 0; i < 4; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			panic(err)
		}
		ls = append(ls, l)
		fmt.Println(l.Addr().(*net.TCPAddr).Port)
	}
	for _, l := range ls {
		l.Close()
	}
}
EOF
mapfile -t PORTS < <(go run "$WORK/freeports.go")
P1="${PORTS[0]}"; P2="${PORTS[1]}"; P3="${PORTS[2]}"; PM="${PORTS[3]}"
PEERS="n1=127.0.0.1:$P1,n2=127.0.0.1:$P2,n3=127.0.0.1:$P3"

echo "== netsmoke: reference run (simnet backend, single process) =="
"$WORK/p2pmon" net -windows "$WINDOWS" -agg-fn "$FN" \
  >"$WORK/simnet.out" 2>"$WORK/simnet.err"

echo "== netsmoke: 3-process cluster over real TCP ($PEERS) =="
for n in n1 n2 n3; do
  addr_var="P${n#n}"
  metrics=()
  if [ "$n" = n1 ]; then metrics=(-metrics-addr "127.0.0.1:$PM"); fi
  "$WORK/p2pmon" net -windows "$WINDOWS" -agg-fn "$FN" \
    -listen "127.0.0.1:${!addr_var}" -name "$n" -peers "$PEERS" \
    "${metrics[@]}" >"$WORK/$n.out" 2>"$WORK/$n.err" &
  PIDS+=("$!")
done

# Scrape the root's live telemetry endpoint while the cluster runs:
# both export formats must answer, and the wire counters must show real
# traffic. The root lingers ~2s after finishing so a scrape of the
# final counters always fits.
echo "== netsmoke: scraping root telemetry at 127.0.0.1:$PM =="
scraped=0
for _ in $(seq 1 200); do
  if curl -fsS "http://127.0.0.1:$PM/metrics" >"$WORK/metrics.prom" 2>/dev/null &&
    curl -fsS "http://127.0.0.1:$PM/metrics.json" >"$WORK/metrics.json" 2>/dev/null &&
    grep -Eq '^wire_decoded_total\{[^}]*\} [1-9]' "$WORK/metrics.prom" &&
    grep -Eq '^transport_sent_total\{[^}]*\} [1-9]' "$WORK/metrics.prom" &&
    grep -q '"name":"wire_decoded_total"' "$WORK/metrics.json"; then
    scraped=1
    break
  fi
  sleep 0.05
done
if [ "$scraped" -ne 1 ]; then
  echo "netsmoke: FAIL — no non-empty wire counters scraped from the root's /metrics" >&2
  cat "$WORK/metrics.prom" 2>/dev/null >&2 || true
  exit 1
fi
echo "root telemetry live:"
grep -E '^(transport_sent_total|transport_recv_total|wire_decoded_total|wire_dropped_total)' "$WORK/metrics.prom" | sed 's/^/  /'

fail=0
for i in "${!PIDS[@]}"; do
  if ! wait "${PIDS[$i]}"; then
    echo "netsmoke: member process $((i + 1)) failed:" >&2
    cat "$WORK/n$((i + 1)).err" >&2
    fail=1
  fi
done
PIDS=()
[ "$fail" -eq 0 ] || exit 1

echo "== netsmoke: comparing root output to the simnet reference =="
if ! diff -u "$WORK/simnet.out" "$WORK/n1.out"; then
  echo "netsmoke: FAIL — tcp cluster output diverged from the simnet run" >&2
  exit 1
fi
if [ -s "$WORK/n2.out" ] || [ -s "$WORK/n3.out" ]; then
  echo "netsmoke: FAIL — a non-root member wrote to stdout" >&2
  exit 1
fi
echo "netsmoke: OK — $(wc -l <"$WORK/simnet.out") windows byte-identical across backends (fn=$FN)"
cat "$WORK/simnet.out"
