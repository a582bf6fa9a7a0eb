#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it with
# the given arguments, for example:
#
#   bash perfbench/run.sh --workload serve-read --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. The Go build cache, temporary files,
# the binary, the durable stores and the span dumps all stay under
# .bench_build there.
set -euo pipefail
if [ ! -f go.mod ] || [ ! -d internal ] || [ ! -f perfbench/go.mod ]; then
	echo "perfbench: run from the root of a repository checkout" >&2
	exit 2
fi
build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/home" "$build/bin"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache" \
	GOTOOLCHAIN=local GOPROXY=off
(cd perfbench && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" "$@"
