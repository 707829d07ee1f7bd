//! Consistent-hash chunk→rank assignment for the multi-process cluster.
//!
//! The flat parameter vector is cut into `num_chunks` equal slices
//! ([`lowdiff_storage::ShardSpec`]); the coordinator maps each chunk id to
//! the rank that persists it. Consistent hashing (ranks placed on a ring
//! at `vnodes` pseudo-random points each, chunks assigned to the next
//! point clockwise) keeps the mapping *stable*: when a rank joins or
//! leaves, only the chunks landing on its arc segments move — everyone
//! else keeps their shards, so a membership change re-keys O(chunks/n)
//! of the partition instead of reshuffling all of it.
//!
//! Everything is deterministic (SplitMix64 over seeded points), so every
//! process in the cluster — and every test — derives the identical ring.

/// SplitMix64: a tiny, high-quality 64-bit mixer. Good enough as a hash
/// for ring placement and cheap enough to call per chunk.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

// Rank points and chunk lookups hash *disjoint* input domains (bit 63
// tells them apart). With a shared mixing function, overlapping domains
// would let a chunk's hash coincide exactly with a vnode point and pin
// the whole keyspace to one rank.
const RANK_DOMAIN: u64 = 1 << 63;

/// A consistent-hash ring over a set of ranks.
#[derive(Clone, Debug)]
pub struct HashRing {
    /// Sorted `(point, rank)` pairs; ties broken toward the lower rank so
    /// the ring is a pure function of the member set.
    points: Vec<(u64, u32)>,
}

impl HashRing {
    /// Default virtual nodes per rank. The ring balances arcs, not a
    /// handful of chunks: at the coordinator's default 16 chunks the
    /// per-rank split is 5/11 for 2 ranks, 3/7/6 for 3 and 2/6/4/4 for 4
    /// (pinned by a unit test), so one rank can persist twice its 1/n.
    pub const DEFAULT_VNODES: usize = 64;

    /// Build a ring over `ranks`, each placed at `vnodes` points.
    pub fn new(ranks: &[u32], vnodes: usize) -> Self {
        assert!(!ranks.is_empty(), "ring needs at least one rank");
        assert!(vnodes >= 1, "ring needs at least one vnode per rank");
        let mut points: Vec<(u64, u32)> = ranks
            .iter()
            .flat_map(|&r| {
                (0..vnodes as u64)
                    .map(move |v| (splitmix64(RANK_DOMAIN | ((r as u64) << 32) | v), r))
            })
            .collect();
        points.sort_unstable();
        points.dedup_by_key(|p| p.0);
        Self { points }
    }

    /// The rank owning `chunk`: the first ring point at or after the
    /// chunk's hash, wrapping at the top.
    pub fn assign(&self, chunk: u32) -> u32 {
        let h = splitmix64(chunk as u64);
        let i = self.points.partition_point(|&(p, _)| p < h);
        let i = if i == self.points.len() { 0 } else { i };
        self.points[i].1
    }

    /// The full partition: `chunks_of[i]` = sorted chunk ids owned by
    /// `ranks[i]` (the order the ring was built with is irrelevant —
    /// callers index by rank). Ranks owning no arc get an empty list.
    pub fn assignment(&self, num_chunks: u32) -> Vec<(u32, Vec<u32>)> {
        let mut by_rank: std::collections::BTreeMap<u32, Vec<u32>> =
            self.points.iter().map(|&(_, r)| (r, Vec::new())).collect();
        for c in 0..num_chunks {
            by_rank.entry(self.assign(c)).or_default().push(c);
        }
        by_rank.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn owners(ranks: &[u32], num_chunks: u32) -> Vec<u32> {
        let ring = HashRing::new(ranks, HashRing::DEFAULT_VNODES);
        (0..num_chunks).map(|c| ring.assign(c)).collect()
    }

    #[test]
    fn partition_is_exact_and_deterministic() {
        let ring = HashRing::new(&[0, 1, 2], HashRing::DEFAULT_VNODES);
        let assignment = ring.assignment(64);
        let mut all: Vec<u32> = assignment.iter().flat_map(|(_, c)| c.clone()).collect();
        all.sort_unstable();
        assert_eq!(all, (0..64).collect::<Vec<_>>());
        // Same inputs, same ring — byte-for-byte.
        let again = HashRing::new(&[0, 1, 2], HashRing::DEFAULT_VNODES).assignment(64);
        assert_eq!(assignment, again);
        // Small cluster, enough chunks: everyone owns something.
        assert!(assignment.iter().all(|(_, c)| !c.is_empty()));
    }

    /// A joining rank steals only its own arcs: every chunk either kept
    /// its owner or moved *to the new rank* — never between old ranks.
    #[test]
    fn join_moves_only_chunks_to_the_new_rank() {
        let before = owners(&[0, 1, 2], 256);
        let after = owners(&[0, 1, 2, 3], 256);
        let mut moved = 0usize;
        for (b, a) in before.iter().zip(after.iter()) {
            if b != a {
                assert_eq!(*a, 3, "chunk moved between surviving ranks");
                moved += 1;
            }
        }
        assert!(moved > 0, "new rank got nothing");
        assert!(
            moved <= 256 / 2,
            "join reshuffled {moved}/256 chunks — not consistent"
        );
    }

    /// A leaving rank's chunks scatter to survivors; everything else
    /// stays put.
    #[test]
    fn leave_moves_only_the_leavers_chunks() {
        let before = owners(&[0, 1, 2, 3], 256);
        let after = owners(&[0, 1, 3], 256);
        for (c, (b, a)) in before.iter().zip(after.iter()).enumerate() {
            if *b != 2 {
                assert_eq!(b, a, "chunk {c} moved although its owner survived");
            } else {
                assert_ne!(*a, 2);
            }
        }
    }

    /// The split `DEFAULT_VNODES` documents, at the coordinator's default
    /// 16 chunks.
    #[test]
    fn default_split_matches_the_documented_one() {
        for (world, split) in [
            (2u32, vec![5, 11]),
            (3, vec![3, 7, 6]),
            (4, vec![2, 6, 4, 4]),
        ] {
            let ranks: Vec<u32> = (0..world).collect();
            let ring = HashRing::new(&ranks, HashRing::DEFAULT_VNODES);
            let counts: Vec<usize> = ring
                .assignment(16)
                .into_iter()
                .map(|(_, chunks)| chunks.len())
                .collect();
            assert_eq!(counts, split, "world {world}");
        }
    }
}
