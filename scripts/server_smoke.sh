#!/bin/sh
# server_smoke.sh — end-to-end smoke test of the tycd server and the
# tycsh client: build both, start tycd on an ephemeral port against a
# fresh file store, drive an install/call/submit/save/stats session
# through tycsh, shut the server down with SIGTERM, and verify the
# drained store passes tycfsck. Then boot tycd a second time on the
# drained store: the module installed before the restart still answers,
# and the restart adds no object to the store (tml dump counts them).
#
#   scripts/server_smoke.sh
#
# Exits non-zero if any step fails: a build error, a request error, a
# wrong answer, an unclean shutdown, or fsck findings.
set -eu
cd "$(dirname "$0")/.."

work="$(mktemp -d)"
tycd_pid=""
cleanup() {
	[ -n "$tycd_pid" ] && kill "$tycd_pid" 2>/dev/null || true
	rm -rf "$work"
}
trap cleanup EXIT

go build -o "$work/tycd" ./cmd/tycd
go build -o "$work/tycsh" ./cmd/tycsh
go build -o "$work/tycfsck" ./cmd/tycfsck
go build -o "$work/tml" ./cmd/tml

store="$work/smoke.tyst"

# boot starts tycd on the store and waits for it to publish its bound
# address in $addr.
boot() {
	rm -f "$work/port"
	"$work/tycd" -store "$store" -addr 127.0.0.1:0 -portfile "$work/port" \
		2>"$work/tycd.log" &
	tycd_pid=$!
	for _ in $(seq 1 100); do
		[ -s "$work/port" ] && break
		kill -0 "$tycd_pid" 2>/dev/null || { cat "$work/tycd.log" >&2; exit 1; }
		sleep 0.1
	done
	addr="$(cat "$work/port")"
	echo "smoke: tycd on $addr"
}

# drain SIGTERMs tycd and checks it drained cleanly.
drain() {
	kill -TERM "$tycd_pid"
	wait "$tycd_pid" || { echo "smoke: tycd exited non-zero" >&2; cat "$work/tycd.log" >&2; exit 1; }
	tycd_pid=""
	grep -q "draining" "$work/tycd.log" || { echo "smoke: no drain log line" >&2; exit 1; }
}

# objects prints the store's object count.
objects() {
	"$work/tml" dump -store "$store" | sed -n 's/^store: \([0-9]*\) objects$/\1/p'
}

boot

cat >"$work/script" <<'EOF'
ping
install <<
module demo export double let double(a : Int) : Int = a * 2 end
.
call demo.double 21
optimize demo.double
call demo.double 21
submit name=answer (+ 40 2 e cont(n) (k n))
submit name=again (+ 40 2 e cont(m) (k m))
submit save=ans (+ 40 2 e cont(p) (k p))
call @ans
stats
quit
EOF

"$work/tycsh" -addr "$addr" "$work/script" >"$work/out" 2>"$work/err"
cat "$work/out"

# The two calls, the three submits and the saved-closure call answer 42.
if [ "$(grep -c '^42$' "$work/out")" != 6 ]; then
	echo "smoke: expected six 42s in the output" >&2
	cat "$work/err" >&2
	exit 1
fi
# Two pipeline compilations total — the optimize and the first submit;
# the two α-equivalent resubmissions (including the saving one) hit the
# shared cache. The save itself then invalidates the cache (it moves a
# root, which is a binding change), but that happens after its hit.
grep -q 'hits 2 misses 2 ' "$work/out" || {
	echo "smoke: stats do not show 2 hits / 2 misses" >&2
	exit 1
}

# Graceful drain on SIGTERM.
drain

# The drained store is sound and still carries the saved closure.
"$work/tycfsck" -store "$store" -v

# A second boot on the drained store finds the module installed before
# the restart, and writes nothing: the standard library is already there.
before="$(objects)"
boot
printf 'call demo.double 21\nquit\n' >"$work/script2"
"$work/tycsh" -addr "$addr" "$work/script2" >"$work/out2" 2>"$work/err2"
grep -q '^42$' "$work/out2" || {
	echo "smoke: demo.double 21 did not answer 42 after a restart" >&2
	cat "$work/out2" "$work/err2" >&2
	exit 1
}
drain
after="$(objects)"
if [ -z "$before" ] || [ "$before" != "$after" ]; then
	echo "smoke: the restart moved the store from '$before' to '$after' objects" >&2
	exit 1
fi
echo "smoke: restart kept $after objects"
echo "smoke: OK"
