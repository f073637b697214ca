#!/usr/bin/env bash
# Builds subseqctl and the benchmark from the checkout in the current
# directory, then runs one workload; all arguments pass through, e.g.
#
#   bash perfbench/run.sh --workload fleet-zipf-rw --seed 1 --seconds 25 --trace 0
#
# Build output, the Go caches and traces stay under .bench_build/.
set -euo pipefail
root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/subseqctl" ]]; then
	echo "run.sh: no subseqctl source (go.mod, cmd/subseqctl) in $root; run from the checkout root" >&2
	exit 1
fi
out="$root/.bench_build"
mkdir -p "$out/bin"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
# With telemetry on, every go command may start a detached sidecar process
# that outlives this script. "go telemetry off" starts none itself.
go telemetry off
go build -o "$out/bin/subseqctl" ./cmd/subseqctl >&2
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" --bin "$out/bin/subseqctl" --root "$root" --trace-dir "$out/traces" "$@"
