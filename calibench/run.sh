#!/usr/bin/env bash
# Build the caliper-rs binaries and the benchmark from source, then run
# one benchmark pass:
#
#   bash calibench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# `bash calibench/run.sh --selftest` builds the same way and runs the
# benchmark's own tests (unit tests plus a tiny-size smoke run of every
# workload). Build output goes to $CARGO_TARGET_DIR (default
# .bench_build); scratch files go to .bench_work. Both live in the
# checkout the script is run from.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
case "$CARGO_TARGET_DIR" in
    /*) target="$CARGO_TARGET_DIR" ;;
    *) target="$root/$CARGO_TARGET_DIR" ;;
esac

cargo build --release --offline --quiet --manifest-path Cargo.toml -p cali-cli --bins >&2
cargo build --release --offline --quiet --manifest-path calibench/Cargo.toml >&2

if [ "${1:-}" = "--selftest" ]; then
    CALIBENCH_BIN_DIR="$target/release" \
        cargo test --release --offline --manifest-path calibench/Cargo.toml >&2
    exit 0
fi
exec "$target/release/calibench" --bin-dir "$target/release" --work-dir .bench_work "$@"
