#!/usr/bin/env bash
# The repo benchmark's single entry point. Builds the harness (release,
# offline) and hands every argument to it:
#
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one run; the last stdout line is the result JSON
#   benchmark/run.sh [--workload NAME] [--seed N] [--seconds S] [--smoke]
#       every workload untraced then traced; writes benchmark/results/
#   benchmark/run.sh --aa | --spread K
#       self-checks: two sets agree within bounds / spread over K seeds
#   benchmark/run.sh --emit-spec > BENCHMARK.json
#
# Runs from the checkout root and reads and writes only inside it.

set -euo pipefail
cd "$(dirname "$0")/.."

# Pin glibc's malloc thresholds, as scripts/bench.sh does: the stores keep
# multi-MB blobs, and with the default dynamic mmap threshold every blob
# is a fresh mmap whose pages fault in cold, which swamps what is measured.
export MALLOC_MMAP_THRESHOLD_=134217728
export MALLOC_TRIM_THRESHOLD_=134217728
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2

export BENCH_RUSTC="$(rustc --version)"
export BENCH_WORK_FS="$(stat -f -c %T benchmark)"
exec "$CARGO_TARGET_DIR/release/lowdiff-benchmark" "$@"
