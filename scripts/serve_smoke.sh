#!/usr/bin/env bash
# Start-up smoke for lightator-serve: build it, start it with the given
# flags, require GET /readyz to answer 200 within 60 s (the agreement
# sweep runs before it does), then require exit 0 on SIGTERM after the
# drain. Any other outcome exits non-zero.
#
#   bash scripts/serve_smoke.sh [--empty-kernels] [lightator-serve flags...]
#
# --empty-kernels also requires GET /v1/kernels to answer an empty
# registry, as a server with compressive acquisition disabled must.
# SMOKE_ADDR sets the listen address (default 127.0.0.1:18080).
set -euo pipefail
cd "$(dirname "$0")/.."

addr=${SMOKE_ADDR:-127.0.0.1:18080}
empty_kernels=0
if [ "${1:-}" = --empty-kernels ]; then
	empty_kernels=1
	shift
fi

dir=$(mktemp -d)
pid=
cleanup() {
	if [ -n "$pid" ]; then kill "$pid" 2> /dev/null || true; fi
	rm -rf "$dir"
}
trap cleanup EXIT

go build -o "$dir/lightator-serve" ./cmd/lightator-serve
"$dir/lightator-serve" -addr "$addr" "$@" &
pid=$!
ready=0
for _ in $(seq 600); do
	if curl -fsS -o /dev/null "http://$addr/readyz" 2> /dev/null; then
		ready=1
		break
	fi
	kill -0 "$pid" 2> /dev/null || break
	sleep 0.1
done
if [ "$ready" -ne 1 ]; then
	echo "lightator-serve $* did not answer /readyz 200 within 60 s"
	exit 1
fi

if [ "$empty_kernels" -eq 1 ]; then
	kernels=$(curl -fsS "http://$addr/v1/kernels")
	if [ "$kernels" != '{"kernels":[]}' ]; then
		echo "lightator-serve $*: GET /v1/kernels answered $kernels, want {\"kernels\":[]}"
		exit 1
	fi
fi

kill -TERM "$pid"
rc=0
wait "$pid" || rc=$?
pid=
echo "lightator-serve $* exited $rc after SIGTERM"
exit "$rc"
