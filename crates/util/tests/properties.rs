//! Property-based tests for utility invariants.

use lowdiff_testkit::reference::crc32_bytewise;
use lowdiff_util::par::chunk_ranges;
use lowdiff_util::{crc32, DetRng};
use proptest::prelude::*;

/// Slicing-by-8 must agree with the byte-at-a-time reference for every
/// length mod 8 and every starting offset.
#[test]
fn crc_sliced_matches_bytewise_all_alignments() {
    let data: Vec<u8> = (0..4096u32)
        .map(|x| (x.wrapping_mul(2654435761) >> 24) as u8)
        .collect();
    for start in 0..8 {
        for len in [0usize, 1, 7, 8, 9, 63, 64, 65, 1000, 4000] {
            let slice = &data[start..(start + len).min(data.len())];
            assert_eq!(
                crc32(slice),
                crc32_bytewise(slice),
                "start={start} len={len}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Chunking covers [0, len) exactly once, in order, with balanced sizes.
    #[test]
    fn chunks_partition_exactly(len in 0usize..10_000, chunks in 1usize..64) {
        let rs = chunk_ranges(len, chunks);
        let mut next = 0usize;
        for r in &rs {
            prop_assert_eq!(r.start, next, "gap or overlap");
            prop_assert!(!r.is_empty());
            next = r.end;
        }
        prop_assert_eq!(next, len);
        if !rs.is_empty() {
            let min = rs.iter().map(|r| r.len()).min().unwrap();
            let max = rs.iter().map(|r| r.len()).max().unwrap();
            prop_assert!(max - min <= 1, "unbalanced: {min}..{max}");
        }
    }

    /// CRC32 streaming in arbitrary chunkings equals one-shot.
    #[test]
    fn crc_chunking_invariant(data in prop::collection::vec(any::<u8>(), 0..2000), cut in 0usize..2000) {
        let cut = cut.min(data.len());
        let mut h = lowdiff_util::crc::Hasher::new();
        h.update(&data[..cut]);
        h.update(&data[cut..]);
        prop_assert_eq!(h.finalize(), crc32(&data));
    }

    /// sample_indices: distinct, sorted, in range, correct count.
    #[test]
    fn sample_indices_contract(seed in any::<u64>(), n in 1usize..2000, k_frac in 0.0f64..=1.0) {
        let k = ((n as f64 * k_frac) as usize).min(n);
        let mut rng = DetRng::new(seed);
        let v = rng.sample_indices(n, k);
        prop_assert_eq!(v.len(), k);
        for w in v.windows(2) {
            prop_assert!(w[0] < w[1]);
        }
        if let Some(&last) = v.last() {
            prop_assert!((last as usize) < n);
        }
    }

    /// below(b) is always < b.
    #[test]
    fn below_in_bounds(seed in any::<u64>(), bound in 1u64..u64::MAX) {
        let mut rng = DetRng::new(seed);
        for _ in 0..20 {
            prop_assert!(rng.below(bound) < bound);
        }
    }

    /// Exponential samples are positive and finite.
    #[test]
    fn exponential_positive(seed in any::<u64>(), mean in 1e-6f64..1e6) {
        let mut rng = DetRng::new(seed);
        for _ in 0..20 {
            let x = rng.exponential(mean);
            prop_assert!(x > 0.0 && x.is_finite());
        }
    }

    /// Forked streams with distinct ids differ from each other and the root.
    #[test]
    fn forks_differ(seed in any::<u64>()) {
        let root = DetRng::new(seed);
        let mut a = root.fork(1);
        let mut b = root.fork(2);
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        prop_assert_ne!(va, vb);
    }
}
