#!/usr/bin/env bash
# Runs the memwall benchmark from the root of a memwall checkout:
#
#   bash memwallbench/run.sh --workload fig3-grid --seed 1 --seconds 20 --trace 0
#   bash memwallbench/run.sh compare RESULTS_A RESULTS_B
#
# It builds memwall once per source state with the committed CPU profile
# (-pgo=default.pgo), plus the benchmark's harness and tracer, into .bench_build
# (the Go build cache lives there too, so nothing is written outside the
# checkout), then hands over to the end-to-end harness. Build output goes
# to standard error; the last line of standard output is the result.
set -euo pipefail

if [[ ! -f go.mod || ! -f default.pgo || ! -d cmd/memwall || ! -d memwallbench ]]; then
	echo "memwallbench: run from the root of a memwall checkout (go.mod, default.pgo, cmd/memwall)" >&2
	exit 2
fi
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=readonly

build_flags="-pgo=default.pgo"
go build $build_flags -o "$out/memwall" ./cmd/memwall >&2
(cd memwallbench && go build -o "$out/harness" ./harness) >&2
# The tracer imports memwall's internal packages; if a refactor
# breaks it, the untraced runs of every workload still work.
layers="$out/layers"
if ! (cd memwallbench && go build -o "$layers" ./layers) >&2; then
	echo "memwallbench: the tracer does not build; traced runs will fail" >&2
	layers=""
fi
if [[ "${1:-}" == compare ]]; then
	exec "$out/harness" "$@"
fi
exec "$out/harness" -memwall "$out/memwall" -layers "$layers" -root "$root" -build-flags "$build_flags" "$@"
