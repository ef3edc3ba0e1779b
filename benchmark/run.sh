#!/usr/bin/env bash
# Build the benchmark (release, offline) and run it.
#
#   benchmark/run.sh [--seed S] [--seconds N]     every workload + traced pass
#   benchmark/run.sh --smoke                      ~1/20 size, 1 repeat, < 30 s
#   benchmark/run.sh --workload W --seed S --seconds N --trace 0|1
#   benchmark/run.sh compare A.json B.json
#   benchmark/run.sh manifest > BENCHMARK.json
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$here/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
# Build chatter goes to stderr: stdout carries results only.
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml 1>&2
exec "$CARGO_TARGET_DIR/release/adcc_benchmark" "$@"
