#!/usr/bin/env bash
# Builds perfbench from the checkout it sits in and runs it with the given
# arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload paper_suite --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (binary, Go build cache, Go's own config)
# stays under .bench_build in the working directory, and Go telemetry is
# off there, so the toolchain leaves no process behind.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
(
	cd "$(dirname "$0")"
	export HOME="$out/home" XDG_CONFIG_HOME="$out/config" GOCACHE="$out/gocache" \
		GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS=
	go telemetry off 2>/dev/null || true # toolchains before Go 1.23 have no telemetry
	go build -o "$out/perfbench" .
)
exec "$out/perfbench" "$@"
