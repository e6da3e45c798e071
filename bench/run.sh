#!/usr/bin/env bash
# Builds and runs sdsbench from the repository root, passing every argument
# through, e.g.
#
#   bash bench/run.sh --workload wire-bin --seed 1 --seconds 10 --trace 0
#
# Binaries, the Go build cache and temporary files all go to .bench_build/
# in the checkout, so a run writes nothing outside it. No network access is
# needed: the module has no dependencies outside this repository.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" \
	TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOPROXY=off GOTOOLCHAIN=local
(cd "$root/bench" && go build -o "$out/sdsbench" ./sdsbench)
exec "$out/sdsbench" -root "$root" "$@"
