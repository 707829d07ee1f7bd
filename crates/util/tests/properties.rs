//! Property-based tests for utility invariants.

use lowdiff_testkit::reference::crc32_bytewise;
use lowdiff_util::crc::crc32_combine;
use lowdiff_util::par::chunk_ranges;
use lowdiff_util::{crc32, DetRng};
use proptest::prelude::*;

fn bytes(len: usize) -> Vec<u8> {
    (0..len as u32)
        .map(|x| (x.wrapping_mul(2654435761) >> 24) as u8)
        .collect()
}

/// `crc32` — the carry-less-multiply kernel where the CPU has it,
/// slicing-by-8 below 64 bytes and for the tail — must agree with the
/// byte-at-a-time reference at every length up to 1 KiB, every starting
/// offset within a 16-byte vector, and on large buffers.
#[test]
fn crc_matches_bytewise_all_lengths_and_alignments() {
    let data = bytes(1024 + 16);
    for start in 0..16 {
        for len in 0..=1024 {
            let slice = &data[start..start + len];
            assert_eq!(
                crc32(slice),
                crc32_bytewise(slice),
                "start={start} len={len}"
            );
        }
    }
    for len in [64 << 10, (1 << 20) + 3] {
        let big = bytes(len);
        assert_eq!(crc32(&big), crc32_bytewise(&big), "len={len}");
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

    /// Streaming in random pieces, many under the 64-byte kernel minimum,
    /// equals the byte-at-a-time reference over the whole buffer.
    #[test]
    fn crc_random_pieces_match_bytewise(
        data in prop::collection::vec(any::<u8>(), 0..4000),
        cuts in prop::collection::vec(0usize..300, 0..40),
    ) {
        let mut h = lowdiff_util::crc::Hasher::new();
        let mut rest = &data[..];
        for n in cuts {
            let (piece, tail) = rest.split_at(n.min(rest.len()));
            h.update(piece);
            rest = tail;
        }
        h.update(rest);
        prop_assert_eq!(h.finalize(), crc32_bytewise(&data));
    }

    /// `crc32_combine` of the halves equals the CRC of the whole at every
    /// split, the empty halves included.
    #[test]
    fn crc_combine_every_split(data in prop::collection::vec(any::<u8>(), 0..400)) {
        let whole = crc32_bytewise(&data);
        for split in 0..=data.len() {
            let (a, b) = data.split_at(split);
            prop_assert_eq!(crc32_combine(crc32(a), crc32(b), b.len() as u64), whole);
        }
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
