//! [`WorkerGroup`]: spawn `n` worker ranks and give each a [`WorkerCtx`]
//! with the collectives distributed data-parallel training needs.

use crate::rendezvous::Rendezvous;
use lowdiff_compress::SparseGrad;
use lowdiff_util::par::chunk_ranges;
use std::cell::Cell;

/// Handle for one rank inside a running group.
pub struct WorkerCtx {
    rank: usize,
    n: usize,
    dense: Rendezvous<Vec<f32>>,
    sparse: Rendezvous<SparseGrad>,
    unit: Rendezvous<()>,
    gen_dense: Cell<u64>,
    gen_sparse: Cell<u64>,
    gen_unit: Cell<u64>,
}

impl WorkerCtx {
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Dense allreduce with mean semantics (the standard data-parallel
    /// gradient synchronization): every rank ends with the elementwise
    /// average of all contributions.
    ///
    /// Implemented as chunked **reduce-scatter + allgather**: rank *r*
    /// reduces only the *r*-th of `n` fixed contiguous chunks, then the
    /// reduced chunks are gathered back. Per rank that moves ~3Ψ elements
    /// (contribute Ψ, reduce Ψ/n over n contributions, copy Ψ back) instead
    /// of the naive (n+1)Ψ — cloning every peer's full vector — and the
    /// reduction work is split n ways instead of duplicated n times.
    ///
    /// Each element is still accumulated from 0.0 in rank order, so the
    /// result is bit-identical to [`WorkerCtx::allreduce_mean_naive`].
    pub fn allreduce_mean(&self, buf: &mut [f32]) {
        let gen = self.gen_dense.get();
        self.gen_dense.set(gen + 2); // two rounds: reduce-scatter, allgather
        let all = self.dense.exchange_shared(self.rank, gen, buf.to_vec());
        let ranges = chunk_ranges(buf.len(), self.n);
        // Ranks beyond the chunk count (Ψ < n) own an empty chunk.
        let my = ranges.get(self.rank).cloned().unwrap_or(0..0);
        let inv = 1.0 / self.n as f32;
        let mut mine = vec![0.0f32; my.len()];
        for contrib in all.iter() {
            for (o, &c) in mine.iter_mut().zip(&contrib[my.clone()]) {
                *o += c;
            }
        }
        for o in mine.iter_mut() {
            *o *= inv;
        }
        drop(all);
        let chunks = self.dense.exchange_shared(self.rank, gen + 1, mine);
        for (range, chunk) in ranges.iter().zip(chunks.iter()) {
            buf[range.clone()].copy_from_slice(chunk);
        }
    }

    /// The pre-reduce-scatter implementation: every rank clones every
    /// peer's full vector and reduces all Ψ elements itself. Kept for the
    /// equivalence property test and as the `bench_hotpath` baseline.
    #[doc(hidden)]
    pub fn allreduce_mean_naive(&self, buf: &mut [f32]) {
        let gen = self.gen_dense.get();
        self.gen_dense.set(gen + 1);
        let all = self.dense.exchange(self.rank, gen, buf.to_vec());
        let inv = 1.0 / self.n as f32;
        for (i, b) in buf.iter_mut().enumerate() {
            let mut acc = 0.0f32;
            for contrib in &all {
                acc += contrib[i];
            }
            *b = acc * inv;
        }
    }

    /// Sparse allgather-then-merge: the synchronization used with Top-K
    /// compression. Every rank contributes its local sparse gradient; all
    /// ranks receive the union-with-sum merge, scaled by 1/n (mean).
    pub fn allgather_sparse(&self, local: &SparseGrad) -> SparseGrad {
        let gen = self.gen_sparse.get();
        self.gen_sparse.set(gen + 1);
        let all = self.sparse.exchange_shared(self.rank, gen, local.clone());
        let mut merged = SparseGrad::merge_all(local.dense_len, all.iter());
        let inv = 1.0 / self.n as f32;
        for v in merged.values.iter_mut() {
            *v *= inv;
        }
        merged
    }

    /// Barrier across all ranks.
    pub fn barrier(&self) {
        let gen = self.gen_unit.get();
        self.gen_unit.set(gen + 1);
        self.unit.exchange(self.rank, gen, ());
    }
}

/// A group of `n` simulated GPU ranks.
pub struct WorkerGroup {
    n: usize,
}

impl WorkerGroup {
    pub fn new(n: usize) -> Self {
        assert!(n > 0);
        Self { n }
    }

    /// Run `f` on every rank concurrently; returns each rank's result in
    /// rank order. Panics in any worker propagate.
    pub fn run<R, F>(&self, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(WorkerCtx) -> R + Sync,
    {
        let dense: Rendezvous<Vec<f32>> = Rendezvous::new(self.n);
        let sparse: Rendezvous<SparseGrad> = Rendezvous::new(self.n);
        let unit: Rendezvous<()> = Rendezvous::new(self.n);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..self.n)
                .map(|rank| {
                    let ctx = WorkerCtx {
                        rank,
                        n: self.n,
                        dense: dense.clone(),
                        sparse: sparse.clone(),
                        unit: unit.clone(),
                        gen_dense: Cell::new(0),
                        gen_sparse: Cell::new(0),
                        gen_unit: Cell::new(0),
                    };
                    let f = &f;
                    scope.spawn(move || f(ctx))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker panicked"))
                .collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allreduce_mean_matches_serial_average() {
        let n = 4;
        let grads: Vec<Vec<f32>> = (0..n)
            .map(|r| (0..16).map(|i| (r * 16 + i) as f32).collect())
            .collect();
        let expected: Vec<f32> = (0..16)
            .map(|i| grads.iter().map(|g| g[i]).sum::<f32>() / n as f32)
            .collect();

        let group = WorkerGroup::new(n);
        let results = group.run(|ctx| {
            let mut buf = grads[ctx.rank()].clone();
            ctx.allreduce_mean(&mut buf);
            buf
        });
        for (rank, r) in results.iter().enumerate() {
            assert_eq!(r, &expected, "rank {rank} diverged");
        }
    }

    #[test]
    fn allgather_sparse_union() {
        let n = 3;
        let group = WorkerGroup::new(n);
        let results = group.run(|ctx| {
            let rank = ctx.rank() as u32;
            // Each rank contributes its own index plus shared index 9.
            let local = SparseGrad::new(10, vec![rank, 9], vec![1.0, 3.0]);
            ctx.allgather_sparse(&local)
        });
        for r in &results {
            assert_eq!(r.indices, vec![0, 1, 2, 9]);
            // Own indices contributed once → 1/3; index 9 summed 3× → 3.0.
            assert_eq!(r.values, vec![1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0, 3.0]);
        }
    }

    #[test]
    fn repeated_collectives_stay_consistent() {
        let n = 2;
        let group = WorkerGroup::new(n);
        let results = group.run(|ctx| {
            let mut sums = Vec::new();
            for iter in 0..20 {
                let mut buf = vec![ctx.rank() as f32 + iter as f32; 4];
                ctx.allreduce_mean(&mut buf);
                sums.push(buf[0]);
                ctx.barrier();
            }
            sums
        });
        assert_eq!(results[0], results[1]);
        for (iter, &s) in results[0].iter().enumerate() {
            assert!((s - (0.5 + iter as f32)).abs() < 1e-6);
        }
    }

    #[test]
    fn reduce_scatter_bit_identical_to_naive() {
        // The chunked reduce-scatter must agree with the clone-everything
        // reference to the last bit, including awkward lengths (Ψ not
        // divisible by n, Ψ < n) and values that expose accumulation-order
        // differences.
        use lowdiff_util::DetRng;
        for n in [2usize, 3, 5] {
            for len in [0usize, 1, 3, 7, 1000, 1003] {
                let grads: Vec<Vec<f32>> = (0..n)
                    .map(|r| {
                        let mut rng = DetRng::new(100 + r as u64);
                        (0..len).map(|_| (rng.normal() * 1e3) as f32).collect()
                    })
                    .collect();
                let group = WorkerGroup::new(n);
                let results = group.run(|ctx| {
                    let mut fast = grads[ctx.rank()].clone();
                    let mut slow = grads[ctx.rank()].clone();
                    ctx.allreduce_mean(&mut fast);
                    ctx.barrier();
                    ctx.allreduce_mean_naive(&mut slow);
                    (fast, slow)
                });
                for (rank, (fast, slow)) in results.iter().enumerate() {
                    let fast_bits: Vec<u32> = fast.iter().map(|x| x.to_bits()).collect();
                    let slow_bits: Vec<u32> = slow.iter().map(|x| x.to_bits()).collect();
                    assert_eq!(fast_bits, slow_bits, "n={n} len={len} rank={rank}");
                }
            }
        }
    }

    #[test]
    fn single_worker_group_is_identity() {
        let group = WorkerGroup::new(1);
        let r = group.run(|ctx| {
            let mut buf = vec![1.0, 2.0];
            ctx.allreduce_mean(&mut buf);
            buf
        });
        assert_eq!(r[0], vec![1.0, 2.0]);
    }
}
