#!/usr/bin/env bash
# Builds eshcorpus, eshd and the benchmark driver from the source in the
# current directory (the repository root), then runs the driver with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload warm-serve --seed 1 --seconds 10 --trace 0
#
# Everything the build and the runs write stays under .bench_build/.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gomodcache" "$build/tmp" "$build/bin"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go build -o "$build/bin/" ./cmd/eshcorpus ./cmd/eshd >&2
(cd perfbench && go build -o "$build/bin/perfbench" .) >&2

commit=none
if [ -e .git ]; then
	commit=$(git rev-parse HEAD 2>/dev/null || echo none)
fi
exec "$build/bin/perfbench" -root "$root" -bin "$build/bin" -commit "$commit" "$@"
