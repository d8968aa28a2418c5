#!/usr/bin/env bash
# Builds the sortnetd cost-model benchmark from this checkout's source
# and runs it with the given flags. Run it from the repository root:
#
#   bash costbench/run.sh --workload deep-batch --seed 1 --seconds 25 --trace 0
#
# The binary, the Go build cache and the traced run's span files stay
# under $CARGO_TARGET_DIR when it is set, else under .bench_build/ in
# the checkout. The build fails, and so does this script, when the
# repository's own source is not next to it.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOWORK=off
go -C "$root/costbench" build -o "$out/costbench" .
exec "$out/costbench" --trace-dir "$out" "$@"
