#!/usr/bin/env bash
# Builds perfbench from the surrounding checkout and runs it with the given
# arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload sweep --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under the checkout: the
# binary, the Go build cache and the span files go to $CARGO_TARGET_DIR
# (default .bench_build).
set -euo pipefail
root=$(pwd)
out="$root/${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOPATH="$out/gopath" \
	GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
# The stamp names the commit, with "-dirty" and a digest of the Go sources
# when the working tree has changes; in a checkout without git metadata it
# is the digest alone.
srcdigest() {
	(cd "$root" && find . -path ./.bench_build -prune -o -type f \( -name '*.go' -o -name go.mod \) -print |
		LC_ALL=C sort | xargs cat | sha256sum | cut -c1-16)
}
if [ -d "$root/.git" ] && command -v git >/dev/null; then
	commit=$(git -C "$root" rev-parse HEAD)
	if [ -n "$(git -C "$root" status --porcelain)" ]; then
		commit=$commit-dirty-$(srcdigest)
	fi
else
	commit=src-$(srcdigest)
fi
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
PERFBENCH_COMMIT=$commit exec "$out/perfbench" --spans "$out/spans" "$@"
