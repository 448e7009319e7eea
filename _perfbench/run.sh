#!/usr/bin/env bash
# Builds dbpal-train, dbpal-serve and the benchmark harness from source
# into .bench_build and runs the harness with the given arguments:
#
#   bash _perfbench/run.sh --workload ask-repeat --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Every file the build and the run
# write (Go build cache, temporary files, models, logs, span files)
# stays under .bench_build.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/dbpal-serve || ! -d cmd/dbpal-train ]]; then
	echo "run.sh: run from the repository root (no go.mod or cmd/ here)" >&2
	exit 2
fi

out="$(pwd)/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=

go build -o "$out/bin/" ./cmd/dbpal-train ./cmd/dbpal-serve
(cd _perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -bin "$out/bin" -out "$out" "$@"
