#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it:
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Run from the repository root. Build outputs, the Go build cache and
# scratch files stay under $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/gotmp"

export GOCACHE=$build/gocache GOTMPDIR=$build/gotmp GOMODCACHE=$build/gomodcache
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod TMPDIR=$build/gotmp
# The go command keeps telemetry counters under the user config directory.
export XDG_CONFIG_HOME=$build/config

rev=
if [ "$(git rev-parse --show-toplevel 2>/dev/null)" = "$root" ]; then
	rev=$(git rev-parse --short=12 HEAD)
fi
if [ -z "$rev" ]; then
	# Not a git checkout: name the source by a digest of its Go files.
	rev=src-$(find . -path ./.bench_build -prune -o -name '*.go' -print -o -name go.mod -print |
		LC_ALL=C sort | xargs sha256sum | sha256sum | cut -c1-12)
fi

(cd perfbench && go build -o "$build/bin/perfbench" .) >&2
exec "$build/bin/perfbench" --workdir "$build/perfbench" --rev "$rev" "$@"
