#!/usr/bin/env bash
# Builds the benchmark and the edsd daemon from this checkout, then runs
# the benchmark with the given arguments, from the repository root:
#
#   bash perfbench/run.sh --workload serve-cold --seed 1 --seconds 10 --trace 0
#
# Everything the build and the runs write stays under .bench_build/ in
# the checkout, the Go build cache included.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
if [ ! -f "$root/go.mod" ]; then
	echo "perfbench: no Go module at $root to build edsd from" >&2
	exit 1
fi
out="$root/.bench_build"
mkdir -p "$out/bin"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOFLAGS="" GOWORK=off GOPROXY=off GOTOOLCHAIN=local CGO_ENABLED=0
(cd "$root" && go build -o "$out/bin/edsd" ./cmd/edsd) >&2
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .) >&2
cd "$root"
exec "$out/bin/perfbench" --root "$root" --edsd "$out/bin/edsd" "$@"
