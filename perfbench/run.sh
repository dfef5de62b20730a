#!/usr/bin/env bash
# Builds the benchmark from source in this checkout and runs it:
#
#   bash perfbench/run.sh --workload serve --seed 1 --seconds 30 --trace 0
#
# Run it from the root of the repository. Everything it builds or writes
# (Go build cache and settings, binary, WAL directories, reports, span dumps)
# stays under .bench_build/ in the current directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config" "$out/bin"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" TMPDIR="$out/gotmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" -root "$root" "$@"
