//! Ψ/n parameter shards and global-manifest stitching — the storage half
//! of the multi-process cluster mode.
//!
//! The paper's distributed claim is that each of `n` ranks persists only
//! `Ψ/n` of the model per checkpoint and the cluster still recovers a
//! *consistent global* state. The pieces live here because they are pure
//! data-plane concerns:
//!
//! * [`ShardSpec`] — which chunks of the flat `[0, Ψ)` parameter space a
//!   rank owns (chunk ids come from the coordinator's consistent-hash
//!   assignment). Projection (`Ψ → Ψ/n`) is applied to slices and to
//!   sparse/dense gradients; a shard full gathers the spec's
//!   [`ShardSpec::ranges`] of the state and EF residual straight into its
//!   frame ([`crate::codec::encode_full_frame_into`]). Because Adam's update is
//!   elementwise, a shard-projected state evolved under shard-projected
//!   gradients is bit-identical to the projection of the full run — the
//!   invariant the stitch functions rely on and the tests pin.
//! * [`stitch_states`] / [`stitch_fulls`] / [`stitch_diff_chains`] — the
//!   inverse: reassemble a full `Ψ` checkpoint (and its differential
//!   chain) from per-rank shard stores, refusing anything but an exact
//!   partition.
//! * [`GlobalManifest`] — the coordinator's seal record, following the
//!   LDSM stripe-manifest idiom (magic, version, CRC trailer, strict
//!   decode): a global checkpoint at iteration `t` is visible iff the
//!   manifest exists, and the manifest is written iff *every* rank
//!   reported its shard full at `t` sealed.

use crate::codec::{
    put_u16, put_u32, put_u64, seal, CodecError, Cursor, DiffEntry, FullCheckpoint,
};
use lowdiff_compress::{AuxState, CompressedGrad, SparseGrad};
use lowdiff_optim::{AdamState, ModelState};
use rayon::prelude::*;
use std::collections::BTreeMap;
use std::io;
use std::ops::Range;

fn err(what: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.into())
}

/// A rank's slice of the flat `[0, Ψ)` parameter space: a sorted set of
/// fixed-size chunks (the consistent-hash assignment unit). Chunk `c`
/// covers `[c·L, min((c+1)·L, Ψ))` with `L = ⌈Ψ / num_chunks⌉`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardSpec {
    psi: usize,
    num_chunks: u32,
    chunks: Vec<u32>,
}

impl ShardSpec {
    /// Build a spec from a coordinator chunk assignment. Chunk ids are
    /// sorted and deduped; ids past `num_chunks` are rejected.
    pub fn new(psi: usize, num_chunks: u32, mut chunks: Vec<u32>) -> io::Result<Self> {
        if num_chunks == 0 {
            return Err(err("shard spec needs num_chunks ≥ 1"));
        }
        chunks.sort_unstable();
        chunks.dedup();
        if let Some(&last) = chunks.last() {
            if last >= num_chunks {
                return Err(err(format!("chunk {last} out of {num_chunks}")));
            }
        }
        Ok(Self {
            psi,
            num_chunks,
            chunks,
        })
    }

    /// The whole space as one shard (world size 1 degenerates to this).
    pub fn full(psi: usize) -> Self {
        Self {
            psi,
            num_chunks: 1,
            chunks: vec![0],
        }
    }

    pub fn psi(&self) -> usize {
        self.psi
    }

    pub fn num_chunks(&self) -> u32 {
        self.num_chunks
    }

    pub fn chunks(&self) -> &[u32] {
        &self.chunks
    }

    /// Elements per chunk (the last chunk may be short).
    fn chunk_len(&self) -> usize {
        self.psi.div_ceil(self.num_chunks as usize).max(1)
    }

    /// The global element range chunk `c` covers.
    pub fn chunk_range(&self, c: u32) -> Range<usize> {
        let l = self.chunk_len();
        let start = (c as usize * l).min(self.psi);
        let end = ((c as usize + 1) * l).min(self.psi);
        start..end
    }

    /// The shard's global ranges, ascending and non-overlapping.
    pub fn ranges(&self) -> impl Iterator<Item = Range<usize>> + '_ {
        self.chunks
            .iter()
            .map(|&c| self.chunk_range(c))
            .filter(|r| !r.is_empty())
    }

    /// Elements this shard owns (its Ψ/n).
    pub fn len(&self) -> usize {
        self.ranges().map(|r| r.len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Gather `full[range]` for every owned range into a shard-local
    /// vector (shard-local order is ascending global order).
    pub fn project_slice(&self, full: &[f32]) -> Vec<f32> {
        debug_assert_eq!(full.len(), self.psi, "projection input must be Ψ-sized");
        let mut out = Vec::with_capacity(self.len());
        for r in self.ranges() {
            out.extend_from_slice(&full[r]);
        }
        out
    }

    /// Scatter a shard-local vector back into its global positions.
    pub fn scatter_slice_into(&self, shard: &[f32], full: &mut [f32]) -> io::Result<()> {
        check_shard_len(self, shard)?;
        if full.len() != self.psi {
            return Err(err("scatter target must be Ψ-sized"));
        }
        let mut off = 0;
        for r in self.ranges() {
            full[r.clone()].copy_from_slice(&shard[off..off + r.len()]);
            off += r.len();
        }
        Ok(())
    }

    /// Project a sparse gradient: keep coordinates falling in owned
    /// ranges, remapped to shard-local offsets.
    pub fn project_sparse(&self, g: &SparseGrad) -> SparseGrad {
        let mut indices = Vec::new();
        let mut values = Vec::new();
        let mut off = 0usize;
        let mut cursor = 0usize;
        for r in self.ranges() {
            // Coordinates are sorted: advance a cursor instead of
            // re-scanning per range.
            while cursor < g.indices.len() && (g.indices[cursor] as usize) < r.start {
                cursor += 1;
            }
            while cursor < g.indices.len() && (g.indices[cursor] as usize) < r.end {
                indices.push((g.indices[cursor] as usize - r.start + off) as u32);
                values.push(g.values[cursor]);
                cursor += 1;
            }
            off += r.len();
        }
        SparseGrad::new(self.len(), indices, values)
    }

    /// Inverse of [`Self::project_sparse`]: lift shard-local coordinates
    /// back to global positions.
    pub fn unproject_sparse(&self, g: &SparseGrad) -> SparseGrad {
        assert_eq!(g.dense_len, self.len(), "shard-local gradient expected");
        let mut indices = Vec::with_capacity(g.indices.len());
        let mut off = 0usize;
        let mut cursor = 0usize;
        for r in self.ranges() {
            while cursor < g.indices.len() && (g.indices[cursor] as usize) < off + r.len() {
                indices.push((g.indices[cursor] as usize - off + r.start) as u32);
                cursor += 1;
            }
            off += r.len();
        }
        SparseGrad::new(self.psi, indices, g.values.clone())
    }

    /// Project a compressed gradient. Quantized gradients are not
    /// shardable (scale/zero-point are global to the tensor), which is
    /// why cluster mode restricts compressors to top-k/none — `None`
    /// tells the caller the configuration is unsupported rather than
    /// silently corrupting shards.
    pub fn project_grad(&self, g: &CompressedGrad) -> Option<CompressedGrad> {
        match g {
            CompressedGrad::Sparse(s) => Some(CompressedGrad::Sparse(self.project_sparse(s))),
            CompressedGrad::Dense(d) => Some(CompressedGrad::Dense(self.project_slice(d))),
            CompressedGrad::Quant(_) => None,
        }
    }
}

/// One owned range of the stitched space: `len` elements at global
/// offset `start`, held by part `part` at shard-local offset `local`.
struct Segment {
    start: usize,
    len: usize,
    part: usize,
    local: usize,
}

/// Check that `specs` partition `[0, Ψ)` exactly — every element owned by
/// exactly one shard — by sorting every owned range and walking them, and
/// return those ranges in global order: the stitch's gather plan.
fn check_partition(psi: usize, specs: &[&ShardSpec]) -> io::Result<Vec<Segment>> {
    let mut segs = Vec::new();
    for (part, spec) in specs.iter().enumerate() {
        if spec.psi() != psi {
            return Err(err(format!(
                "shard spec Ψ={} disagrees with Ψ={psi}",
                spec.psi()
            )));
        }
        let mut local = 0;
        for r in spec.ranges() {
            segs.push(Segment {
                start: r.start,
                len: r.len(),
                part,
                local,
            });
            local += r.len();
        }
    }
    segs.sort_unstable_by_key(|s| s.start);
    // Overlap outranks a gap, whichever comes first in the walk.
    let (mut end, mut gap) = (0, false);
    for s in &segs {
        if s.start < end {
            return Err(err("shards overlap"));
        }
        gap |= s.start > end;
        end = s.start + s.len;
    }
    if gap || end != psi {
        return Err(err("shards do not cover [0, Ψ)"));
    }
    Ok(segs)
}

/// A shard-local slice must hold exactly what its spec owns.
fn check_shard_len(spec: &ShardSpec, shard: &[f32]) -> io::Result<()> {
    if shard.len() != spec.len() {
        return Err(err(format!(
            "shard slice is {} elements, spec owns {}",
            shard.len(),
            spec.len()
        )));
    }
    Ok(())
}

/// Build one global array with a single in-order pass over the borrowed
/// shard slices (`shards[part]` is part `part`'s shard-local array).
fn gather(psi: usize, segs: &[Segment], shards: &[&[f32]]) -> Vec<f32> {
    let mut out = Vec::with_capacity(psi);
    for s in segs {
        out.extend_from_slice(&shards[s.part][s.local..s.local + s.len]);
    }
    debug_assert_eq!(out.len(), psi);
    out
}

/// Gather every array of `arrays` (each given as its per-part shard
/// slices) in parallel, in order.
fn gather_all(psi: usize, segs: &[Segment], arrays: Vec<Vec<&[f32]>>) -> Vec<Vec<f32>> {
    arrays
        .into_par_iter()
        .with_min_len(1)
        .map(|shards| gather(psi, segs, &shards))
        .collect()
}

/// Validate per-rank shard states against their specs — partition,
/// agreeing iteration and step counter, slice lengths — and return the
/// gather plan plus the shared `(iteration, t)`.
fn check_states(
    psi: usize,
    parts: &[(&ShardSpec, &ModelState)],
) -> io::Result<(Vec<Segment>, u64, u64)> {
    let specs: Vec<&ShardSpec> = parts.iter().map(|&(s, _)| s).collect();
    let segs = check_partition(psi, &specs)?;
    let (it, t) = match parts.first() {
        Some((_, st)) => (st.iteration, st.opt.t),
        None => return Err(err("no shards to stitch")),
    };
    for (spec, st) in parts {
        if st.iteration != it || st.opt.t != t {
            return Err(err(format!(
                "shard iteration mismatch: {}@t={} vs {it}@t={t}",
                st.iteration, st.opt.t
            )));
        }
        for xs in [&st.params, &st.opt.m, &st.opt.v] {
            check_shard_len(spec, xs)?;
        }
    }
    Ok((segs, it, t))
}

/// The per-part params, m and v slices (in that order) for `gather_all`.
fn state_arrays<'a>(parts: &[(&ShardSpec, &'a ModelState)]) -> Vec<Vec<&'a [f32]>> {
    vec![
        parts.iter().map(|(_, st)| &st.params[..]).collect(),
        parts.iter().map(|(_, st)| &st.opt.m[..]).collect(),
        parts.iter().map(|(_, st)| &st.opt.v[..]).collect(),
    ]
}

/// The stitched state from `gather_all`'s params, m and v (in that order).
fn assemble_state(arrays: &mut impl Iterator<Item = Vec<f32>>, it: u64, t: u64) -> ModelState {
    let mut next = || arrays.next().expect("params, m and v gathered");
    let (params, m, v) = (next(), next(), next());
    ModelState {
        iteration: it,
        params,
        opt: AdamState { m, v, t },
    }
}

/// Reassemble a full `Ψ` model state from per-rank shard states. Every
/// shard must agree on iteration and step counter, and the specs must
/// partition `[0, Ψ)`. Each global array is one in-order gather from the
/// borrowed shards; the three run in parallel.
pub fn stitch_states(psi: usize, parts: &[(ShardSpec, ModelState)]) -> io::Result<ModelState> {
    let refs: Vec<(&ShardSpec, &ModelState)> = parts.iter().map(|(s, st)| (s, st)).collect();
    let (segs, it, t) = check_states(psi, &refs)?;
    let arrays = state_arrays(&refs);
    Ok(assemble_state(
        &mut gather_all(psi, &segs, arrays).into_iter(),
        it,
        t,
    ))
}

/// Reassemble a full checkpoint — model state plus auxiliary resume state
/// — from per-rank shard fulls. Residuals stitch like params; the scalar
/// aux (compressor, RNG cursor, quant policy) is replicated on every rank
/// and must agree. Nothing is cloned: params, m, v and the residual are
/// each gathered once from the borrowed shards, in parallel.
pub fn stitch_fulls(
    psi: usize,
    parts: &[(ShardSpec, FullCheckpoint)],
) -> io::Result<FullCheckpoint> {
    let refs: Vec<(&ShardSpec, &ModelState)> = parts.iter().map(|(s, fc)| (s, &fc.state)).collect();
    let (segs, it, t) = check_states(psi, &refs)?;
    let first = &parts[0].1;
    for (_, fc) in parts.iter().skip(1) {
        if fc.aux.compressor != first.aux.compressor
            || fc.aux.rng != first.aux.rng
            || fc.aux.quant != first.aux.quant
        {
            return Err(err("shard aux state disagrees across ranks"));
        }
        if fc.aux.residual.is_some() != first.aux.residual.is_some() {
            return Err(err("shard residual presence disagrees across ranks"));
        }
    }
    let residuals: Option<Vec<&[f32]>> = parts
        .iter()
        .map(|(_, fc)| fc.aux.residual.as_deref())
        .collect();
    if let Some(rs) = &residuals {
        for ((spec, _), r) in parts.iter().zip(rs) {
            check_shard_len(spec, r)?;
        }
    }
    let mut arrays = state_arrays(&refs);
    arrays.extend(residuals);
    let mut gathered = gather_all(psi, &segs, arrays).into_iter();
    let state = assemble_state(&mut gathered, it, t);
    Ok(FullCheckpoint {
        state,
        aux: AuxState {
            residual: gathered.next(),
            compressor: first.aux.compressor,
            rng: first.aux.rng,
            quant: first.aux.quant,
        },
        lossy: parts.iter().any(|(_, fc)| fc.lossy),
    })
}

/// Reassemble the global differential chain from per-rank shard chains:
/// for each iteration, lift every shard's projected gradient back to
/// global coordinates and take their union (shards are disjoint, so the
/// union is exact — no coordinate is summed twice). Dense entries scatter
/// into a Ψ-sized dense gradient.
pub fn stitch_diff_chains(
    psi: usize,
    parts: &[(ShardSpec, Vec<DiffEntry>)],
) -> io::Result<Vec<DiffEntry>> {
    let specs: Vec<&ShardSpec> = parts.iter().map(|(s, _)| s).collect();
    check_partition(psi, &specs)?;
    // iteration → per-shard contributions, ordered by iteration.
    let mut by_iter: BTreeMap<u64, Vec<(&ShardSpec, &CompressedGrad)>> = BTreeMap::new();
    for (spec, chain) in parts {
        for e in chain {
            by_iter
                .entry(e.iteration)
                .or_default()
                .push((spec, &e.grad));
        }
    }
    let mut out = Vec::with_capacity(by_iter.len());
    for (iteration, grads) in by_iter {
        // A rank whose shard received zero coordinates this iteration
        // still records an (empty) entry; a *missing* entry means that
        // rank's chain has a gap there, and a partial global diff would
        // corrupt replay.
        if grads.len() != parts.len() {
            return Err(err(format!(
                "iteration {iteration} present on {}/{} shards",
                grads.len(),
                parts.len()
            )));
        }
        let dense = grads
            .iter()
            .any(|(_, g)| matches!(g, CompressedGrad::Dense(_)));
        let grad = if dense {
            let mut full = vec![0.0f32; psi];
            for (spec, g) in &grads {
                match g {
                    CompressedGrad::Dense(d) => spec.scatter_slice_into(d, &mut full)?,
                    _ => return Err(err("mixed dense/sparse shard entries")),
                }
            }
            CompressedGrad::Dense(full)
        } else {
            let lifted: Vec<SparseGrad> = grads
                .iter()
                .map(|(spec, g)| match g {
                    CompressedGrad::Sparse(s) if s.dense_len == spec.len() => {
                        Ok(spec.unproject_sparse(s))
                    }
                    CompressedGrad::Sparse(_) => Err(err(format!(
                        "iteration {iteration}: shard entry length differs from its shard"
                    ))),
                    _ => Err(err("quantized shard entries are not stitchable")),
                })
                .collect::<io::Result<_>>()?;
            CompressedGrad::Sparse(SparseGrad::merge_all(psi, lifted.iter()))
        };
        out.push(DiffEntry { iteration, grad });
    }
    Ok(out)
}

/// Magic for the stitched-global manifest blob (LowDiff Global Manifest).
pub const MAGIC_GLOBAL: &[u8; 4] = b"LDGM";
/// Current global-manifest wire version.
pub const GLOBAL_MANIFEST_VERSION: u16 = 1;

/// One rank's sealed shard inside a [`GlobalManifest`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardSeal {
    pub rank: u32,
    /// Chunk ids this rank owned when it sealed.
    pub chunks: Vec<u32>,
    /// Encoded shard-full blob length (the worker's store object).
    pub len: u64,
    /// CRC32 of the encoded shard-full blob.
    pub crc: u32,
}

/// The coordinator's seal record for one global checkpoint: which rank
/// holds which chunks at `iteration`, with per-shard blob digests. Same
/// visibility contract as the LDSM stripe manifest: the global checkpoint
/// *is* this blob — if decoding fails or any shard is missing, recovery
/// ignores the iteration entirely.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GlobalManifest {
    pub iteration: u64,
    pub psi: u64,
    pub num_chunks: u32,
    pub shards: Vec<ShardSeal>,
}

impl GlobalManifest {
    pub fn world_size(&self) -> usize {
        self.shards.len()
    }

    /// The [`ShardSpec`] of `rank` under this manifest.
    pub fn spec_of(&self, rank: u32) -> io::Result<ShardSpec> {
        let seal = self
            .shards
            .iter()
            .find(|s| s.rank == rank)
            .ok_or_else(|| err(format!("rank {rank} not in manifest")))?;
        ShardSpec::new(self.psi as usize, self.num_chunks, seal.chunks.clone())
    }

    /// Serialize: magic, version, header, shard table, CRC32 trailer.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.shards.len() * 32);
        out.extend_from_slice(MAGIC_GLOBAL);
        put_u16(&mut out, GLOBAL_MANIFEST_VERSION);
        put_u64(&mut out, self.iteration);
        put_u64(&mut out, self.psi);
        put_u32(&mut out, self.num_chunks);
        put_u32(&mut out, self.shards.len() as u32);
        for s in &self.shards {
            put_u32(&mut out, s.rank);
            put_u32(&mut out, s.chunks.len() as u32);
            for &c in &s.chunks {
                put_u32(&mut out, c);
            }
            put_u64(&mut out, s.len);
            put_u32(&mut out, s.crc);
        }
        seal(&mut out);
        out
    }

    /// Strict decode — wrong magic/version, truncation, trailing bytes, a
    /// length field the blob cannot back, or a CRC mismatch all fail with
    /// `InvalidData` (an unreadable manifest means the global checkpoint
    /// never became visible).
    pub fn decode(data: &[u8]) -> io::Result<GlobalManifest> {
        Self::parse(data).map_err(|e| err(format!("global manifest: {e}")))
    }

    fn parse(data: &[u8]) -> Result<GlobalManifest, CodecError> {
        let mut cur = Cursor::open(data, MAGIC_GLOBAL)?;
        let version = cur.get_u16("truncated header")?;
        if version != GLOBAL_MANIFEST_VERSION {
            return Err(CodecError::UnsupportedVersion(version));
        }
        let iteration = cur.get_u64("truncated header")?;
        let psi = cur.get_u64("truncated header")?;
        let num_chunks = cur.get_u32("truncated header")?;
        // rank u32 + chunk count u32 + len u64 + crc u32 per shard
        let n = cur.get_len_u32(20, "truncated shard table")?;
        let mut shards = Vec::with_capacity(n);
        for _ in 0..n {
            let rank = cur.get_u32("truncated shard table")?;
            let nc = cur.get_u32("truncated shard table")?;
            shards.push(ShardSeal {
                rank,
                chunks: cur.get_u32s(nc.into(), "truncated shard table")?,
                len: cur.get_u64("truncated shard table")?,
                crc: cur.get_u32("truncated shard table")?,
            });
        }
        cur.finish()?;
        Ok(GlobalManifest {
            iteration,
            psi,
            num_chunks,
            shards,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lowdiff_optim::Adam;
    use lowdiff_util::DetRng;

    /// The eager projection of a whole state onto `s` (production gathers
    /// shard fulls straight into their frames instead).
    fn project_state(s: &ShardSpec, state: &ModelState) -> ModelState {
        ModelState {
            iteration: state.iteration,
            params: s.project_slice(&state.params),
            opt: AdamState {
                m: s.project_slice(&state.opt.m),
                v: s.project_slice(&state.opt.v),
                t: state.opt.t,
            },
        }
    }

    fn spec(psi: usize, num_chunks: u32, chunks: &[u32]) -> ShardSpec {
        ShardSpec::new(psi, num_chunks, chunks.to_vec()).unwrap()
    }

    /// Three-way partition of Ψ=10 over 4 chunks (sizes 3,3,3,1).
    fn three_way(psi: usize) -> Vec<ShardSpec> {
        vec![
            spec(psi, 4, &[0]),
            spec(psi, 4, &[1, 3]),
            spec(psi, 4, &[2]),
        ]
    }

    #[test]
    fn spec_ranges_and_projection() {
        let s = spec(10, 4, &[1, 3]);
        let ranges: Vec<_> = s.ranges().collect();
        assert_eq!(ranges, vec![3..6, 9..10]);
        assert_eq!(s.len(), 4);
        let full: Vec<f32> = (0..10).map(|i| i as f32).collect();
        let proj = s.project_slice(&full);
        assert_eq!(proj, vec![3.0, 4.0, 5.0, 9.0]);
        let mut back = vec![0.0; 10];
        s.scatter_slice_into(&proj, &mut back).unwrap();
        assert_eq!(back, vec![0.0, 0.0, 0.0, 3.0, 4.0, 5.0, 0.0, 0.0, 0.0, 9.0]);
    }

    #[test]
    fn sparse_projection_roundtrips() {
        let s = spec(10, 4, &[1, 3]);
        let g = SparseGrad::new(10, vec![0, 3, 5, 9], vec![1.0, 2.0, 3.0, 4.0]);
        let p = s.project_sparse(&g);
        assert_eq!(p.dense_len, 4);
        assert_eq!(p.indices, vec![0, 2, 3]);
        assert_eq!(p.values, vec![2.0, 3.0, 4.0]);
        let lifted = s.unproject_sparse(&p);
        assert_eq!(lifted.indices, vec![3, 5, 9]);
        assert_eq!(lifted.values, vec![2.0, 3.0, 4.0]);
    }

    #[test]
    fn quant_gradients_refuse_to_shard() {
        let s = spec(8, 2, &[0]);
        let q = lowdiff_compress::QuantGrad {
            dense_len: 8,
            bits: 8,
            codes: vec![0; 8],
            scale: 1.0,
            zero: 0.0,
        };
        assert!(s.project_grad(&CompressedGrad::Quant(q)).is_none());
    }

    #[test]
    fn stitch_states_is_exact_inverse() {
        let psi = 10;
        let mut rng = DetRng::new(7);
        let mut full = ModelState::new((0..psi).map(|_| rng.uniform_f32(1.0)).collect());
        let adam = Adam::default();
        for _ in 0..5 {
            let grad: Vec<f32> = (0..psi).map(|_| rng.uniform_f32(0.1)).collect();
            full.apply_gradient(&adam, &grad);
        }
        let parts: Vec<(ShardSpec, ModelState)> = three_way(psi)
            .into_iter()
            .map(|s| {
                let st = project_state(&s, &full);
                (s, st)
            })
            .collect();
        let stitched = stitch_states(psi, &parts).unwrap();
        assert_eq!(stitched, full, "stitch ∘ project = identity, bit-exact");
    }

    #[test]
    fn stitch_rejects_gaps_overlaps_and_skew() {
        let psi = 10;
        let full = ModelState::new(vec![1.0; psi]);
        let specs = three_way(psi);
        // Gap: drop one shard.
        let parts: Vec<_> = specs[..2]
            .iter()
            .map(|s| (s.clone(), project_state(s, &full)))
            .collect();
        assert!(stitch_states(psi, &parts).is_err());
        // Overlap: duplicate a shard.
        let mut parts: Vec<_> = specs
            .iter()
            .map(|s| (s.clone(), project_state(s, &full)))
            .collect();
        parts.push(parts[0].clone());
        assert!(stitch_states(psi, &parts).is_err());
        // Iteration skew.
        let mut parts: Vec<_> = specs
            .iter()
            .map(|s| (s.clone(), project_state(s, &full)))
            .collect();
        parts[1].1.iteration = 99;
        assert!(stitch_states(psi, &parts).is_err());
        // Ψ mismatch: one spec cut from a different parameter space, and
        // the stitch asked for the wrong Ψ.
        let mut parts: Vec<_> = specs
            .iter()
            .map(|s| (s.clone(), project_state(s, &full)))
            .collect();
        assert!(stitch_states(psi + 1, &parts).is_err());
        parts[2].0 = spec(psi + 1, 4, &[3]);
        assert!(stitch_states(psi, &parts).is_err());
        // A shard slice shorter than its spec.
        let mut parts: Vec<_> = specs
            .iter()
            .map(|s| (s.clone(), project_state(s, &full)))
            .collect();
        parts[0].1.opt.v.pop();
        assert!(stitch_states(psi, &parts).is_err());
        // Residual presence must agree across ranks, and each present
        // residual must match its spec.
        let residual = vec![0.5; psi];
        let fulls = |with: &[bool]| -> Vec<(ShardSpec, FullCheckpoint)> {
            specs
                .iter()
                .zip(with)
                .map(|(s, &w)| {
                    let fc = FullCheckpoint {
                        state: project_state(s, &full),
                        aux: AuxState {
                            residual: w.then(|| s.project_slice(&residual)),
                            ..AuxState::default()
                        },
                        lossy: false,
                    };
                    (s.clone(), fc)
                })
                .collect()
        };
        let all = stitch_fulls(psi, &fulls(&[true; 3])).unwrap();
        assert_eq!(all.aux.residual.as_deref(), Some(&residual[..]));
        assert!(stitch_fulls(psi, &fulls(&[false; 3]))
            .unwrap()
            .aux
            .residual
            .is_none());
        for mixed in [[true, false, true], [false, false, true]] {
            let err = stitch_fulls(psi, &fulls(&mixed)).unwrap_err();
            assert!(err.to_string().contains("residual presence"), "{err}");
        }
        let mut short = fulls(&[true; 3]);
        short[1].1.aux.residual.as_mut().unwrap().pop();
        assert!(stitch_fulls(psi, &short).is_err());
    }

    #[test]
    fn shard_evolution_commutes_with_projection() {
        // The core exactness argument: Adam is elementwise, so training a
        // shard on shard-projected gradients equals projecting the fully
        // trained state. Stitching the shard evolutions rebuilds the full
        // run bit-for-bit.
        let psi = 10;
        let mut rng = DetRng::new(42);
        let init: Vec<f32> = (0..psi).map(|_| rng.uniform_f32(1.0)).collect();
        let adam = Adam::default();
        let specs = three_way(psi);
        let mut full = ModelState::new(init.clone());
        let mut shards: Vec<ModelState> = specs.iter().map(|s| project_state(s, &full)).collect();
        for _ in 0..7 {
            let grad: Vec<f32> = (0..psi).map(|_| rng.uniform_f32(0.5)).collect();
            full.apply_gradient(&adam, &grad);
            for (s, st) in specs.iter().zip(shards.iter_mut()) {
                st.apply_gradient(&adam, &s.project_slice(&grad));
            }
        }
        let parts: Vec<_> = specs.into_iter().zip(shards).collect();
        let stitched = stitch_states(psi, &parts).unwrap();
        assert_eq!(stitched, full);
        assert_eq!(stitched.max_abs_diff(&full), 0.0);
    }

    #[test]
    fn diff_chains_stitch_to_global_union() {
        let psi = 10;
        let specs = three_way(psi);
        let g5 = SparseGrad::new(psi, vec![0, 4, 9], vec![1.0, 2.0, 3.0]);
        let g6 = SparseGrad::new(psi, vec![2, 3], vec![4.0, 5.0]);
        let parts: Vec<(ShardSpec, Vec<DiffEntry>)> = specs
            .iter()
            .map(|s| {
                (
                    s.clone(),
                    vec![
                        DiffEntry {
                            iteration: 5,
                            grad: CompressedGrad::Sparse(s.project_sparse(&g5)),
                        },
                        DiffEntry {
                            iteration: 6,
                            grad: CompressedGrad::Sparse(s.project_sparse(&g6)),
                        },
                    ],
                )
            })
            .collect();
        let chain = stitch_diff_chains(psi, &parts).unwrap();
        assert_eq!(chain.len(), 2);
        assert_eq!(chain[0].iteration, 5);
        match (&chain[0].grad, &chain[1].grad) {
            (CompressedGrad::Sparse(a), CompressedGrad::Sparse(b)) => {
                assert_eq!(
                    (a.indices.clone(), a.values.clone()),
                    (g5.indices, g5.values)
                );
                assert_eq!(
                    (b.indices.clone(), b.values.clone()),
                    (g6.indices, g6.values)
                );
            }
            _ => panic!("expected sparse stitched entries"),
        }
        // A shard missing an iteration is a gap, not an empty diff.
        let mut torn = parts.clone();
        torn[1].1.pop();
        assert!(stitch_diff_chains(psi, &torn).is_err());
    }

    #[test]
    fn wrong_length_shard_entry_is_invalid_data() {
        // A decodable sparse entry sized for another shard: an error,
        // never an assertion inside the stitch.
        let psi = 10;
        let parts: Vec<(ShardSpec, Vec<DiffEntry>)> = three_way(psi)
            .into_iter()
            .map(|s| {
                let len = if s.chunks() == [1, 3] { 1 } else { s.len() };
                let grad = CompressedGrad::Sparse(SparseGrad::new(len, vec![0], vec![1.0]));
                (s, vec![DiffEntry { iteration: 5, grad }])
            })
            .collect();
        let e = stitch_diff_chains(psi, &parts).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{e}");
    }

    #[test]
    fn global_manifest_roundtrips_and_rejects_corruption() {
        let m = GlobalManifest {
            iteration: 40,
            psi: 1000,
            num_chunks: 64,
            shards: vec![
                ShardSeal {
                    rank: 0,
                    chunks: vec![0, 2, 63],
                    len: 4096,
                    crc: 0xabcd,
                },
                ShardSeal {
                    rank: 1,
                    chunks: vec![1, 3],
                    len: 2048,
                    crc: 0x1234,
                },
            ],
        };
        let bytes = m.encode();
        assert_eq!(GlobalManifest::decode(&bytes).unwrap(), m);
        let spec = m.spec_of(1).unwrap();
        assert_eq!(spec.chunks(), &[1, 3]);
        assert!(m.spec_of(9).is_err());
        // Torn, flipped, trailing — all invisible, never panics.
        assert!(GlobalManifest::decode(&bytes[..bytes.len() - 3]).is_err());
        let mut bad = bytes.clone();
        bad[6] ^= 1;
        assert!(GlobalManifest::decode(&bad).is_err());
        let mut long = bytes.clone();
        long.insert(bytes.len() - 4, 0);
        assert!(GlobalManifest::decode(&long).is_err());
        assert!(GlobalManifest::decode(b"LDSM").is_err());
    }
}
