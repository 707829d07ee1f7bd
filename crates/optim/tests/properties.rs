//! Property-based tests for the optimizer invariants LowDiff relies on.

use lowdiff_optim::{Adam, AdamState, ModelState};
use proptest::prelude::*;

fn arb_grads(n: usize, steps: usize) -> impl Strategy<Value = Vec<Vec<f32>>> {
    prop::collection::vec(prop::collection::vec(-5.0f32..5.0, n..=n), 1..=steps)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// THE LowDiff invariant: replaying the same gradient sequence from
    /// the same state reproduces the final state bit-for-bit (Finding 1 —
    /// the update is a pure function of (state, gradient)).
    #[test]
    fn adam_replay_is_bit_exact(grads in arb_grads(37, 12)) {
        let adam = Adam::default();
        let run = || {
            let mut st = ModelState::new(vec![0.3; 37]);
            for g in &grads {
                st.apply_gradient(&adam, g);
            }
            st
        };
        prop_assert_eq!(run(), run());
    }

    /// Elementwise independence: replaying any contiguous shard alone
    /// produces exactly the serial result for that shard (the sharded
    /// parallel-recovery invariant).
    #[test]
    fn adam_sharding_exact(
        grads in arb_grads(53, 8),
        split in 1usize..52,
    ) {
        let adam = Adam::default();
        // Serial reference.
        let mut st = AdamState::new(53);
        let mut p = vec![0.1f32; 53];
        for g in &grads {
            adam.step(&mut st, &mut p, g);
        }
        // Two shards replayed independently.
        let mut st2 = AdamState::new(53);
        let mut p2 = vec![0.1f32; 53];
        for r in [0..split, split..53] {
            for (k, g) in grads.iter().enumerate() {
                adam.step_range(
                    &mut p2[r.clone()],
                    &mut st2.m[r.clone()],
                    &mut st2.v[r.clone()],
                    &g[r.clone()],
                    k as u64 + 1,
                );
            }
        }
        prop_assert_eq!(p, p2);
        prop_assert_eq!(st.m, st2.m);
        prop_assert_eq!(st.v, st2.v);
    }

    /// The chunked-parallel Adam kernel is bit-identical across pool
    /// widths: 1 thread and many threads must agree exactly (elementwise
    /// update ⇒ chunking cannot change any arithmetic).
    #[test]
    fn adam_parallel_thread_count_invariant(grads in arb_grads(37, 6), threads in 2usize..9) {
        let n = 1usize << 15; // cross the auto-parallel threshold
        let adam = Adam::default();
        let run = |t: usize| {
            rayon::pool::with_num_threads(t, || {
                let mut st = AdamState::new(n);
                let mut p = vec![0.5f32; n];
                for g in &grads {
                    let big: Vec<f32> = g.iter().cycle().take(n).copied().collect();
                    adam.step(&mut st, &mut p, &big);
                }
                (st, p)
            })
        };
        let (st1, p1) = run(1);
        let (st2, p2) = run(threads);
        prop_assert_eq!(
            p1.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            p2.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
        prop_assert_eq!(st1.m, st2.m);
        prop_assert_eq!(st1.v, st2.v);
    }

    /// Adam never produces NaN/Inf from finite inputs.
    #[test]
    fn adam_stays_finite(grads in arb_grads(8, 20)) {
        let adam = Adam { lr: 0.1, ..Adam::default() };
        let mut st = AdamState::new(8);
        let mut p = vec![1.0f32; 8];
        for g in &grads {
            adam.step(&mut st, &mut p, g);
        }
        prop_assert!(p.iter().all(|x| x.is_finite()));
        prop_assert!(st.m.iter().chain(&st.v).all(|x| x.is_finite()));
    }

    /// First-step magnitude is ~lr for any non-zero gradient.
    #[test]
    fn adam_first_step_is_lr(g in -100.0f32..100.0) {
        prop_assume!(g.abs() > 1e-3);
        let adam = Adam { lr: 0.05, ..Adam::default() };
        let mut st = AdamState::new(1);
        let mut p = vec![0.0f32];
        adam.step(&mut st, &mut p, &[g]);
        prop_assert!((p[0].abs() - 0.05).abs() < 1e-3);
    }
}
