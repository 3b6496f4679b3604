#!/bin/sh
# gateway_smoke.sh — end-to-end smoke test of the HTTP/JSON gateway:
# build tycd and tycgw; boot both; drive install, call and a keyed
# submit through curl; open an SSE watch, commit a root change and
# assert the push event arrives with the root name and a CSN; check the
# stats and error mapping; SIGTERM-drain the gateway then the server
# and audit the store with tycfsck.
#
#   scripts/gateway_smoke.sh
#
# Exits non-zero on any failed request, missing SSE event, unclean
# shutdown, or fsck findings.
set -eu
cd "$(dirname "$0")/.."

work="$(mktemp -d)"
pids=""
cleanup() {
	for p in $pids; do kill "$p" 2>/dev/null || true; done
	rm -rf "$work"
}
trap cleanup EXIT

go build -o "$work/tycd" ./cmd/tycd
go build -o "$work/tycgw" ./cmd/tycgw
go build -o "$work/tycfsck" ./cmd/tycfsck

wait_addr() {
	for _ in $(seq 1 100); do
		[ -s "$1" ] && break
		kill -0 "$2" 2>/dev/null || { echo "gwsmoke: process died before listening" >&2; exit 1; }
		sleep 0.1
	done
	cat "$1"
}

"$work/tycd" -store "$work/gw.tyst" -addr 127.0.0.1:0 \
	-portfile "$work/portd" 2>"$work/tycd.log" &
tycd_pid=$!
pids="$pids $tycd_pid"
backend="$(wait_addr "$work/portd" "$tycd_pid")"

"$work/tycgw" -backend "$backend" -addr 127.0.0.1:0 \
	-portfile "$work/portg" 2>"$work/tycgw.log" &
tycgw_pid=$!
pids="$pids $tycgw_pid"
gw="http://$(wait_addr "$work/portg" "$tycgw_pid")"
echo "gwsmoke: tycgw on $gw -> tycd on $backend"

# jget file key: extract a scalar JSON field without jq.
jget() {
	sed -n 's/.*"'"$2"'":\([^,}]*\).*/\1/p' "$1" | head -1
}

# Install a module, call it, and check the answer comes back as JSON.
curl -sS -o "$work/r1" -w '%{http_code}' "$gw/v1/install" \
	-d '{"source":"module demo export double let double(a : Int) : Int = a * 2 end"}' \
	>"$work/c1"
[ "$(cat "$work/c1")" = 200 ] || { echo "gwsmoke: install failed"; cat "$work/r1"; exit 1; }
curl -sS -o "$work/r2" -w '%{http_code}' "$gw/v1/call" \
	-d '{"module":"demo","fn":"double","args":[21]}' >"$work/c2"
[ "$(cat "$work/c2")" = 200 ] || { echo "gwsmoke: call failed"; cat "$work/r2"; exit 1; }
[ "$(jget "$work/r2" value)" = 42 ] || { echo "gwsmoke: call answered $(cat "$work/r2")"; exit 1; }

# Keyed submit with binds: retried deliveries under one key apply once.
submit='{"tml":"(+ a b e cont(n) (k n))","binds":{"a":40,"b":2},"save":"ans"}'
curl -sS -o "$work/r3" -w '%{http_code}' "$gw/v1/submit" \
	-H 'Idempotency-Key: smoke-1' -d "$submit" >"$work/c3"
[ "$(cat "$work/c3")" = 200 ] || { echo "gwsmoke: submit failed"; cat "$work/r3"; exit 1; }
[ "$(jget "$work/r3" value)" = 42 ] || { echo "gwsmoke: submit answered $(cat "$work/r3")"; exit 1; }
curl -sS -o "$work/r3b" -w '%{http_code}' "$gw/v1/submit" \
	-H 'Idempotency-Key: smoke-1' -d "$submit" >/dev/null
[ "$(jget "$work/r3b" value)" = 42 ] || { echo "gwsmoke: replayed submit answered $(cat "$work/r3b")"; exit 1; }

# A saved closure is callable with an empty module.
curl -sS -o "$work/r4" "$gw/v1/call" -d '{"fn":"ans"}'
[ "$(jget "$work/r4" value)" = 42 ] || { echo "gwsmoke: saved call answered $(cat "$work/r4")"; exit 1; }

# Error mapping: bad JSON is the gateway's 400, a missing module the
# server's 404, both definitive (retryable: false) — and neither
# disturbs the session pool.
[ "$(curl -sS -o "$work/e400" -w '%{http_code}' "$gw/v1/submit" -d '{')" = 400 ] || {
	echo "gwsmoke: malformed body was not a 400"; exit 1; }
[ "$(jget "$work/e400" code)" = '"bad-request"' ] && [ "$(jget "$work/e400" retryable)" = false ] || {
	echo "gwsmoke: 400 body $(cat "$work/e400")"; exit 1; }
[ "$(curl -sS -o "$work/e404" -w '%{http_code}' "$gw/v1/call" -d '{"module":"nope","fn":"f"}')" = 404 ] || {
	echo "gwsmoke: unknown module was not a 404"; exit 1; }
[ "$(jget "$work/e404" code)" = '"not-found"' ] && [ "$(jget "$work/e404" retryable)" = false ] || {
	echo "gwsmoke: 404 body $(cat "$work/e404")"; exit 1; }

# Open an SSE watch, then commit a matching root: the push must carry
# the root name and a CSN. curl -N streams; we stop it once the event
# file shows the change.
curl -sSN "$gw/v1/watch?pattern=srv:smoke-*" >"$work/sse" 2>/dev/null &
sse_pid=$!
pids="$pids $sse_pid"
for _ in $(seq 1 50); do
	grep -q '^event: ready' "$work/sse" && break
	sleep 0.1
done
grep -q '^event: ready' "$work/sse" || { echo "gwsmoke: watch never became ready"; exit 1; }
curl -sS -o "$work/r5" "$gw/v1/submit" \
	-d '{"tml":"(+ 6 7 e cont(n) (k n))","save":"smoke-w"}'
ok=""
for _ in $(seq 1 50); do
	if grep -q '"root":"srv:smoke-w"' "$work/sse"; then ok=1; break; fi
	sleep 0.1
done
[ -n "$ok" ] || { echo "gwsmoke: committed change never arrived on the SSE stream"; cat "$work/sse"; exit 1; }
grep -q '^id: ' "$work/sse" || { echo "gwsmoke: SSE events carry no CSN ids"; exit 1; }
kill "$sse_pid" 2>/dev/null || true
wait "$sse_pid" 2>/dev/null || true

# Stats must show gateway traffic and the backend's watch counters.
curl -sS -o "$work/r6" "$gw/v1/stats"
[ "$(jget "$work/r6" installs)" = 1 ] || { echo "gwsmoke: stats installs != 1"; cat "$work/r6"; exit 1; }
grep -q '"watch"' "$work/r6" || { echo "gwsmoke: stats missing backend watch block"; cat "$work/r6"; exit 1; }

# Graceful drain: gateway first (in-flight requests finish, watchers
# close), then the server; the store must audit clean.
kill -TERM "$tycgw_pid"
wait "$tycgw_pid" || { echo "gwsmoke: tycgw exited non-zero" >&2; cat "$work/tycgw.log" >&2; exit 1; }
kill -TERM "$tycd_pid"
wait "$tycd_pid" || { echo "gwsmoke: tycd exited non-zero" >&2; cat "$work/tycd.log" >&2; exit 1; }
pids=""
"$work/tycfsck" -store "$work/gw.tyst" -v
echo "gwsmoke: OK"
