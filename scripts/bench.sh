#!/usr/bin/env bash
# Rebuild release and refresh the benchmark reports at the repo root.
#
# Usage: scripts/bench.sh [bench_hotpath flags...]
#   e.g. scripts/bench.sh --elems 33554432 --ranks 8
#
# Writes:
#   BENCH_hotpath.json   — kernel micro-benchmarks (flags above apply here;
#                          see DESIGN.md "Performance" for each row)
#   BENCH_ckpt_e2e.json  — per-strategy training-thread stall through the
#                          CheckpointEngine (see DESIGN.md "The checkpoint
#                          engine"), each row stamped with its
#                          persist_stripes, plus the quant block
#                          (lowdiff-q8 row's diff_bytes_written reduction
#                          against the f32 lowdiff row + the recovery-
#                          fidelity probe's max/mean parameter error); run
#                          bench_ckpt_e2e directly to vary its
#                          --psi/--iters/--stripes/--quant-bits/
#                          --adaptive/--max-quant-err
#
# LOWDIFF_NUM_THREADS caps the thread pool if set.

set -euo pipefail
cd "$(dirname "$0")/.."

# Pin glibc's malloc thresholds: the simulated storage backend retains
# multi-MB blobs, and with the default dynamic mmap threshold every blob
# is a fresh mmap whose pages fault in cold — on lazily-backed VMs that
# costs tens of microseconds *per page* and swamps the numbers being
# measured. A high threshold keeps blob memory on the recycled heap.
export MALLOC_MMAP_THRESHOLD_=134217728
export MALLOC_TRIM_THRESHOLD_=134217728

# count-allocs installs the counting global allocator so the e2e JSON
# records per-strategy steady-state allocation counts (the zero-copy data
# path's acceptance metric); its cost is two relaxed atomics per alloc.
cargo build --release -p lowdiff-bench --features count-allocs \
  --bin bench_hotpath --bin bench_ckpt_e2e
target/release/bench_hotpath --out BENCH_hotpath.json "$@"
# 8-bit quantized diff codec row + fidelity probe alongside the f32 rows.
target/release/bench_ckpt_e2e --out BENCH_ckpt_e2e.json \
  --quant-bits 8 --adaptive --max-quant-err 2e-3
