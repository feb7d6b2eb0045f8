#!/usr/bin/env bash
# Builds the release `dcs` binary and the benchmark from this checkout, then
# runs the benchmark with the given arguments, e.g.
#   bash benchmark/run.sh --workload batch-mine --seed 1 --seconds 20 --trace 0
#   bash benchmark/run.sh --self-test
# Run it from the repository root.  Build output goes to standard error; the
# last line of standard output is the JSON result.
set -euo pipefail
target="${CARGO_TARGET_DIR:-.bench_build}"
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet -p dcs-cli --bin dcs 1>&2
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml --workspace 1>&2
exec "$target/release/dcs-benchmark" --dcs "$target/release/dcs" "$@"
