#!/usr/bin/env bash
# The full CI gate, runnable locally and in any runner:
#
#   scripts/ci.sh
#
# 1. cargo fmt --check     — formatting is canonical, no diffs tolerated
# 2. cargo clippy          — every lint is an error across the workspace,
#                            all targets (libs, bins, tests, benches)
# 2b. cargo doc            — rustdoc with every warning an error: no
#                            unresolved, ambiguous or private intra-doc
#                            link (catches the links a deletion leaves
#                            behind)
# 2c. uncalled gate        — how many `pub` items under crates/*/src no
#                            production code names (scripts/uncalled.sh;
#                            run it bare for the list); fails when the
#                            count exceeds UNCALLED_CEILING below. Lower
#                            the ceiling when a change lowers the count
# 3. cargo test -q         — the full workspace test suite
# 3b. compress @1/@4 threads — the compress suite again with the worker
#                            pool pinned to 1 and to 4 threads: the Top-K
#                            select must equal its oracle whatever the
#                            pool width the host happens to default to
# 3c. recovery @1/@4 threads — the recovery tests of the core crate with
#                            the pool pinned to 1 and to 4 threads: the
#                            replay kernel must equal its diff-by-diff
#                            oracle, and every resume entry point each
#                            other, at any pool width
# 3d. engine @1/@4 threads — the engine tests of the core crate (the
#                            persist pin included), the baselines' tests
#                            and the engine equivalence suite with the
#                            pool pinned to 1 and to 4 threads: striped
#                            fan-out runs on the pool and every baseline
#                            persists through it, so ledgers, stored
#                            bytes and crash-point visits must not depend
#                            on its width
# 3e. tensor + model @1/@4 threads — the tensor and model suites with the
#                            pool pinned to 1 and to 4 threads: matmul_nt
#                            spreads its output tiles over the pool, so its
#                            bits (and the Regression teacher's) must equal
#                            the scalar oracle's at any pool width
# 3f. storage @1/@4 threads — the storage suite with the pool pinned to 1
#                            and to 4 threads: the one-pass full decoder
#                            spreads its pieces and the shard stitch its
#                            gathers over the pool, so every decode
#                            verdict must equal the two-pass oracle's and
#                            every stitched bit the scatter oracle's at
#                            any pool width
# 3g. storage decoders (release) — the hostile-blob regressions and the
#                            decoder mutation suite again in release,
#                            where unchecked length arithmetic would wrap
#                            silently instead of panicking as in debug;
#                            the util suite in release too, so the CRC32
#                            equivalence tests run the carry-less-multiply
#                            kernel as optimized code
# 3h. sharded @1 thread    — the sharded adapter's tests (the lowdiff
#                            `shard::` unit tests, its lazy-projection and
#                            blob-equivalence suite, tests/sharded_cluster.rs),
#                            the seal-on-landed-full pieces the cluster
#                            worker drives (the trainer's unflushed loop,
#                            the per-iteration full outcome, the health
#                            blob refreshed without a flush, at every
#                            landed full on a cheap sink and within its
#                            time budget on a slow one, and a failing
#                            health sink leaving the run healthy) and the whole
#                            cluster crate (its never-seal-a-failed-full
#                            test included) with the pool pinned to 1
#                            thread, which is how the benchmark's cluster
#                            ranks run
# 4. crash-torture smoke   — the fast subset of the crash/resume matrix,
#                            including whole-rank-loss cells recovered
#                            from peer replicas alone
# 5. peer-replication smoke — multi-rank e2e over the peer tier (2+ ranks,
#                            k=1 ring replica) plus the peer-loss contract
# 6. fidelity smoke        — the recovery-fidelity harness: quantized v3
#                            chains recover within the configured error
#                            bound; the f32 path stays bit-exact
# 7. cluster smoke         — the 3-process cluster e2e: TCP coordinator +
#                            3 worker processes, a sealed global
#                            checkpoint, rank 1 killed mid-run (survivors
#                            degrade their barrier, no hangs), all ranks
#                            resumed from the stitched global manifest,
#                            final state bit-identical to an unkilled run.
#                            Hard-capped by `timeout` so a protocol hang
#                            can never wedge the gate.
# 8. bench --smoke         — both benchmark binaries complete on a tiny
#                            configuration (no JSON written);
#                            bench_hotpath also asserts that steady-state
#                            Top-K + error-feedback compress makes no
#                            gradient-sized allocation; the e2e
#                            bench runs three times — 1 and 4 persist
#                            stripes, then with adaptive quantization
#                            on — so the single-blob, striped, quantized
#                            and peer-replicated write paths all run
#                            end-to-end on the in-memory store (the
#                            stripe count of each object is pinned by
#                            the manifests in engine/persist.rs's persist
#                            pin, not timed here)
# 9. benchmark --smoke     — builds the repo benchmark (benchmark/, a
#                            separate package using the public API) and
#                            runs every workload on a tiny configuration,
#                            including its bit-exact resume checks; any
#                            failed check is a non-zero exit
#
# Fails fast: the first failing step fails the gate.

set -euo pipefail
cd "$(dirname "$0")/.."

echo "== fmt =="
cargo fmt --all --check

echo "== clippy =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== rustdoc =="
# Every doc link must resolve to a public item of the documented crate.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "== uncalled pub items (gate) =="
UNCALLED_CEILING=34
uncalled=$(bash scripts/uncalled.sh --count)
echo "$uncalled (ceiling $UNCALLED_CEILING)"
if [ "$uncalled" -gt "$UNCALLED_CEILING" ]; then
  echo "uncalled pub items rose above $UNCALLED_CEILING: run scripts/uncalled.sh for the list" >&2
  exit 1
fi

echo "== test =="
cargo test -q --workspace

echo "== compress @1/@4 threads =="
LOWDIFF_NUM_THREADS=1 cargo test -q -p lowdiff-compress
LOWDIFF_NUM_THREADS=4 cargo test -q -p lowdiff-compress

echo "== recovery @1/@4 threads =="
LOWDIFF_NUM_THREADS=1 cargo test -q -p lowdiff recovery
LOWDIFF_NUM_THREADS=4 cargo test -q -p lowdiff recovery

echo "== engine @1/@4 threads =="
for n in 1 4; do
  LOWDIFF_NUM_THREADS=$n cargo test -q -p lowdiff engine
  LOWDIFF_NUM_THREADS=$n cargo test -q -p lowdiff-baselines
  LOWDIFF_NUM_THREADS=$n cargo test -q --test engine_equivalence
done

echo "== tensor + model @1/@4 threads =="
LOWDIFF_NUM_THREADS=1 cargo test -q -p lowdiff-tensor -p lowdiff-model
LOWDIFF_NUM_THREADS=4 cargo test -q -p lowdiff-tensor -p lowdiff-model

echo "== storage @1/@4 threads =="
LOWDIFF_NUM_THREADS=1 cargo test -q -p lowdiff-storage
LOWDIFF_NUM_THREADS=4 cargo test -q -p lowdiff-storage

echo "== storage decoders (release) =="
cargo test --release -q -p lowdiff-storage --test hostile_blobs
cargo test --release -q -p lowdiff-storage --test decoder_mutations
cargo test --release -q -p lowdiff-util

echo "== sharded @1 thread =="
LOWDIFF_NUM_THREADS=1 cargo test -q -p lowdiff shard::
LOWDIFF_NUM_THREADS=1 cargo test -q -p lowdiff --test sharded_strategy
LOWDIFF_NUM_THREADS=1 cargo test -q --test sharded_cluster
LOWDIFF_NUM_THREADS=1 cargo test -q -p lowdiff unflushed_run_returns_before_the_anchor_lands
LOWDIFF_NUM_THREADS=1 cargo test -q -p lowdiff failed_full_is_not_answered_by_the_reanchor_after_it
LOWDIFF_NUM_THREADS=1 cargo test -q -p lowdiff landed_full_refreshes_the_health_blob_without_a_flush
LOWDIFF_NUM_THREADS=1 cargo test -q -p lowdiff every_landed_full_refreshes_a_cheap_health_blob
LOWDIFF_NUM_THREADS=1 cargo test -q -p lowdiff slow_health_refresh_is_budgeted
LOWDIFF_NUM_THREADS=1 cargo test -q -p lowdiff failing_health_puts_leave_the_run_healthy
LOWDIFF_NUM_THREADS=1 timeout 600 cargo test -q -p lowdiff-cluster

echo "== crash-torture smoke =="
# Fast subset of the crash-point torture matrix (tests/crash_torture.rs):
# every strategy through a torn write, LowDiff through every crash point,
# and whole-rank loss (live state + durable store destroyed together)
# recovered bit-exactly from peer replicas alone.
cargo test -q --test crash_torture smoke_

echo "== peer-replication smoke =="
# Peer-tier e2e (tests/peer_replication.rs): multi-rank WorkerGroup run
# with k=1 ring replication, whole-rank loss resumed from the surviving
# peer, and the drop/account/re-replicate contract under peer loss.
cargo test -q --test peer_replication

echo "== fidelity smoke =="
# Recovery-fidelity harness (tests/fidelity.rs): wire-level quantization
# bound, recovered-parameter error, resumed-loss drift, size accounting.
cargo test -q --test fidelity

echo "== cluster smoke =="
# Multi-process sharded cluster (crates/cluster/tests/cluster_e2e.rs):
# spawn coordinator + 3 workers, checkpoint, kill rank 1, resume, assert
# the stitched shard state is bit-identical to the uninterrupted run.
timeout 300 cargo test -q -p lowdiff-cluster --test cluster_e2e

echo "== bench smoke =="
cargo build --release -q -p lowdiff-bench --features count-allocs \
  --bin bench_hotpath --bin bench_ckpt_e2e
# Same malloc pinning as scripts/bench.sh (see the comment there).
MALLOC_MMAP_THRESHOLD_=134217728 MALLOC_TRIM_THRESHOLD_=134217728 \
  target/release/bench_hotpath --smoke
MALLOC_MMAP_THRESHOLD_=134217728 MALLOC_TRIM_THRESHOLD_=134217728 \
  target/release/bench_ckpt_e2e --smoke --stripes 1
MALLOC_MMAP_THRESHOLD_=134217728 MALLOC_TRIM_THRESHOLD_=134217728 \
  target/release/bench_ckpt_e2e --smoke --stripes 4
MALLOC_MMAP_THRESHOLD_=134217728 MALLOC_TRIM_THRESHOLD_=134217728 \
  target/release/bench_ckpt_e2e --smoke --quant-bits 8 --adaptive --max-quant-err 2e-3 --peers 2

echo "== benchmark smoke =="
bash benchmark/run.sh --smoke

echo "CI gate passed."
