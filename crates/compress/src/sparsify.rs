//! Top-K sparsification.
//!
//! Top-K with ρ = 0.01 is the paper's default (§6.1), and because LowDiff
//! reuses the compressed gradient as the differential checkpoint, the
//! selection sits on every iteration's critical path. It is an exact
//! **radix-threshold select**: nothing is sorted, permuted or indexed
//! through; the input is only streamed.
//!
//! * **Key.** Every element is ranked by `key = |v|.to_bits()` — the f32
//!   bit pattern with the sign cleared, a 31-bit integer. For IEEE-754
//!   values integer order on that pattern *is* magnitude order:
//!   `±0 < denormals < normals < +inf < NaN`. It is a total order on every
//!   input (the float comparison it replaces is not: NaN is incomparable),
//!   so NaNs rank above `+inf` and are selected first.
//! * **Threshold.** The k-th largest key `T` is found digit by digit
//!   (`LEVELS`: 12 + 12 + 7 bits). Each level is one streaming pass that
//!   histograms the next digit of every key still matching the digits
//!   resolved so far; scanning the histogram from the top gives the digit
//!   of `T` and how many elements are still to be taken below it. After
//!   the last level `T` is exact, together with the *tie budget* `r`: how
//!   many of the elements with `key == T` belong to the top k.
//! * **Emit.** One in-order pass writes `{i : key > T}` plus the first `r`
//!   indices with `key == T` — ascending, ties to the lower index.
//!
//! Memory is `O(chunks · 4096)` counters whatever the input (an all-equal
//! gradient refines through the same three histograms; there is no
//! candidate list to overflow).
//!
//! **Determinism.** The selected set is a function of the input alone: it
//! is defined by `(T, r)` and index order, not by how the work was split.
//! Chunk boundaries depend only on the input length; per-chunk histograms
//! are integer counts, summed exactly; each chunk's output window is the
//! prefix sum of those counts. Any thread count, including one, runs the
//! same chunks and produces the same bytes.

use crate::grad::{CompressedGrad, SparseGrad};
use crate::Compressor;
use rayon::prelude::*;

/// Number of elements kept for a ratio over a dense length:
/// `max(1, round(ρ·n))` (never zero, or training would stall).
pub fn k_for_ratio(dense_len: usize, ratio: f64) -> usize {
    assert!((0.0..=1.0).contains(&ratio), "ratio {ratio} out of [0,1]");
    if dense_len == 0 {
        return 0;
    }
    ((dense_len as f64 * ratio).round() as usize).clamp(1, dense_len)
}

/// Magnitude rank of `v`: the bit pattern of `|v|`. See the module doc.
#[inline(always)]
fn key(v: f32) -> u32 {
    v.to_bits() & 0x7FFF_FFFF
}

/// Width of [`key`] in bits.
const KEY_BITS: u32 = 31;
/// The digits of the key, most significant first, as `(shift, bits)`.
const LEVELS: [(u32, u32); 3] = [(19, 12), (7, 12), (0, 7)];
/// Counters per histogram: `2^bits` of the widest level.
const HIST: usize = 1 << 12;
/// Elements per chunk below which splitting further costs more in
/// histogram upkeep than it can win in parallelism.
const MIN_CHUNK: usize = 1 << 15;

/// Elements per block of [`for_each_match`].
const BLOCK: usize = 16;

/// Call `hit(i, chunk[i])`, in index order, for every element whose key
/// satisfies `pred`. Matches are rare on every pass that uses this (a
/// boundary bucket, the selected 1%), so the chunk is tested a block at a
/// time — a branch-free loop the compiler vectorizes — and only blocks
/// holding a match are walked element by element.
#[inline(always)]
fn for_each_match(chunk: &[f32], pred: impl Fn(u32) -> bool, mut hit: impl FnMut(usize, f32)) {
    let mut blocks = chunk.chunks_exact(BLOCK);
    let mut base = 0;
    for block in &mut blocks {
        let block: &[f32; BLOCK] = block.try_into().expect("exact chunks");
        let mut any = 0u32;
        for &v in block {
            any |= pred(key(v)) as u32;
        }
        if any != 0 {
            for (i, &v) in block.iter().enumerate() {
                if pred(key(v)) {
                    hit(base + i, v);
                }
            }
        }
        base += BLOCK;
    }
    for (i, &v) in blocks.remainder().iter().enumerate() {
        if pred(key(v)) {
            hit(base + i, v);
        }
    }
}

/// The radix-threshold select (module doc): the `k` largest-magnitude
/// elements of `data` as ascending indices plus their values, ties to the
/// lower index. `hists` is the counter scratch, grown once and reused.
fn radix_select(data: &[f32], k: usize, hists: &mut Vec<u32>) -> (Vec<u32>, Vec<f32>) {
    let n = data.len();
    assert!(0 < k && k < n, "radix_select wants 0 < k < n");
    assert!(n <= u32::MAX as usize + 1, "indices are u32");
    let chunk_len = n.div_ceil((n / MIN_CHUNK).clamp(1, rayon::MAX_CHUNKS));
    let nchunks = n.div_ceil(chunk_len);
    hists.resize(nchunks * HIST, 0);

    // Digits of the threshold key resolved so far (`key >> unresolved`),
    // how many elements are still to be taken among the keys sharing
    // them, and per chunk how many keys are already known to be above.
    let (mut prefix, mut unresolved, mut need) = (0u32, KEY_BITS, k);
    let mut above = [0usize; rayon::MAX_CHUNKS];
    let mut digit = 0; // of T, at the level resolved last
    for (shift, bits) in LEVELS {
        let mask = (1u32 << bits) - 1;
        hists.fill(0);
        hists
            .par_chunks_mut(HIST)
            .zip(data.par_chunks(chunk_len))
            .with_min_len(1)
            .for_each(|(hist, chunk)| {
                let hist: &mut [u32; HIST] = hist.try_into().expect("HIST-sized rows");
                // (`% HIST` changes nothing — the mask is narrower — but
                // shows the compiler that the index is in bounds.)
                let bucket = |key: u32| ((key >> shift) & mask) as usize % HIST;
                if unresolved == KEY_BITS {
                    // First level: every key is in the class.
                    for &v in chunk {
                        hist[bucket(key(v))] += 1;
                    }
                } else {
                    for_each_match(
                        chunk,
                        |key| key >> unresolved == prefix,
                        |_, v| hist[bucket(key(v))] += 1,
                    );
                }
            });
        let mut total = [0usize; HIST];
        for hist in hists.chunks(HIST) {
            for (t, &c) in total.iter_mut().zip(hist) {
                *t += c as usize;
            }
        }
        // The digit of T: highest bucket at which the count from the top
        // reaches `need`. It exists because `need` never exceeds the
        // population being histogrammed.
        digit = mask as usize;
        while total[digit] < need {
            need -= total[digit];
            digit -= 1;
        }
        for (a, hist) in above.iter_mut().zip(hists.chunks(HIST)) {
            *a += hist[digit + 1..].iter().map(|&c| c as usize).sum::<usize>();
        }
        prefix = (prefix << bits) | digit as u32;
        unresolved = shift;
    }
    // `prefix` is now T itself, `need` the tie budget, and the last
    // level's bucket `digit` holds each chunk's count of `key == T`.
    let threshold = prefix;

    let mut indices = vec![0u32; k];
    let mut values = vec![0f32; k];
    let mut windows = Vec::with_capacity(nchunks);
    let (mut rest_i, mut rest_v) = (&mut indices[..], &mut values[..]);
    for (c, chunk) in data.chunks(chunk_len).enumerate() {
        let ties = need.min(hists[c * HIST + digit] as usize);
        need -= ties;
        let (out_i, tail_i) = rest_i.split_at_mut(above[c] + ties);
        let (out_v, tail_v) = rest_v.split_at_mut(above[c] + ties);
        (rest_i, rest_v) = (tail_i, tail_v);
        windows.push((c * chunk_len, chunk, ties, out_i, out_v));
    }
    debug_assert!(rest_i.is_empty() && need == 0);
    windows
        .into_par_iter()
        .with_min_len(1)
        .for_each(|(base, chunk, mut ties, out_i, out_v)| {
            let mut j = 0;
            for_each_match(
                chunk,
                // Keys are 31 bits wide: the signed compare is the same
                // and, unlike the unsigned one, vectorizes on baseline x86.
                |key| key as i32 >= threshold as i32,
                |i, v| {
                    if key(v) > threshold || ties > 0 {
                        ties -= usize::from(key(v) == threshold);
                        out_i[j] = (base + i) as u32;
                        out_v[j] = v;
                        j += 1;
                    }
                },
            );
            debug_assert_eq!(j, out_i.len());
        });
    (indices, values)
}

/// Keep the k elements of largest magnitude.
///
/// ```
/// use lowdiff_compress::{Compressor, TopK};
///
/// let mut topk = TopK::new(0.5); // keep 50%
/// let compressed = topk.compress(&[0.1, -5.0, 0.3, 4.0]);
/// let sparse = compressed.as_sparse().unwrap();
/// assert_eq!(sparse.indices, vec![1, 3]);   // the two largest |values|
/// assert_eq!(sparse.values, vec![-5.0, 4.0]);
/// ```
#[derive(Clone, Debug)]
pub struct TopK {
    pub ratio: f64,
    /// Histogram scratch of the selection, reused across `compress` calls
    /// so the steady state allocates only the k-sized output.
    hists: Vec<u32>,
}

impl TopK {
    pub fn new(ratio: f64) -> Self {
        assert!(ratio > 0.0 && ratio <= 1.0, "TopK ratio {ratio}");
        Self {
            ratio,
            hists: Vec::new(),
        }
    }

    /// Core selection: ascending indices of the `k` largest-|v| entries,
    /// ties broken toward the lower index; identical at any thread count.
    ///
    /// Magnitudes are ranked by the bit pattern of `|v|` (module doc), a
    /// total order that agrees with `<` on every non-NaN float and places
    /// **NaN above `+inf`**: a NaN gradient entry is always selected (and
    /// so shows up in the sparse handle instead of hiding in a residual).
    pub fn select(grad: &[f32], k: usize) -> Vec<u32> {
        Self::select_with(grad, k, &mut Vec::new()).0
    }

    fn select_with(grad: &[f32], k: usize, hists: &mut Vec<u32>) -> (Vec<u32>, Vec<f32>) {
        let n = grad.len();
        if k == 0 {
            return (Vec::new(), Vec::new());
        }
        if k >= n {
            return ((0..n as u32).collect(), grad.to_vec());
        }
        radix_select(grad, k, hists)
    }
}

impl Compressor for TopK {
    fn compress(&mut self, grad: &[f32]) -> CompressedGrad {
        let k = k_for_ratio(grad.len(), self.ratio);
        let (indices, values) = Self::select_with(grad, k, &mut self.hists);
        CompressedGrad::Sparse(SparseGrad::new(grad.len(), indices, values))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lowdiff_util::DetRng;

    #[test]
    fn k_for_ratio_bounds() {
        assert_eq!(k_for_ratio(1000, 0.01), 10);
        assert_eq!(k_for_ratio(1000, 1.0), 1000);
        assert_eq!(k_for_ratio(10, 0.001), 1, "k must never be 0");
        assert_eq!(k_for_ratio(0, 0.5), 0);
    }

    #[test]
    fn topk_picks_true_top() {
        let g = vec![0.1, -5.0, 0.3, 4.0, -0.2, 2.0];
        let mut c = TopK::new(0.5); // k = 3
        let out = c.compress(&g);
        let s = out.as_sparse().unwrap();
        assert_eq!(s.indices, vec![1, 3, 5]);
        assert_eq!(s.values, vec![-5.0, 4.0, 2.0]);
    }

    #[test]
    fn topk_tie_break_is_deterministic() {
        let g = vec![1.0f32; 8];
        let a = TopK::select(&g, 3);
        let b = TopK::select(&g, 3);
        assert_eq!(a, b);
        assert_eq!(a, vec![0, 1, 2], "ties must prefer lower indices");
    }

    #[test]
    fn topk_magnitudes_dominate_dropped() {
        let mut rng = DetRng::new(77);
        let g: Vec<f32> = (0..5000).map(|_| rng.normal() as f32).collect();
        let kept = TopK::select(&g, 50);
        let min_kept = kept
            .iter()
            .map(|&i| g[i as usize].abs())
            .fold(f32::INFINITY, f32::min);
        let kept_set: std::collections::HashSet<u32> = kept.iter().copied().collect();
        let max_dropped = g
            .iter()
            .enumerate()
            .filter(|(i, _)| !kept_set.contains(&(*i as u32)))
            .map(|(_, v)| v.abs())
            .fold(0.0f32, f32::max);
        assert!(
            min_kept >= max_dropped,
            "kept {min_kept} < dropped {max_dropped}"
        );
    }

    #[test]
    fn topk_decompress_is_projection() {
        // compress(decompress(compress(g))) keeps the same support.
        let g = vec![0.5, -2.0, 0.1, 3.0];
        let mut c = TopK::new(0.5);
        let once = c.compress(&g);
        let twice = c.compress(&once.to_dense());
        assert_eq!(once, twice);
    }

    /// The definition of the result, by full sort: the first k under
    /// (key descending, index ascending).
    fn by_sort(g: &[f32], k: usize) -> Vec<u32> {
        let mut idx: Vec<u32> = (0..g.len() as u32).collect();
        idx.sort_by_key(|&i| (std::cmp::Reverse(key(g[i as usize])), i));
        idx.truncate(k);
        idx.sort_unstable();
        idx
    }

    #[test]
    fn select_matches_definition_at_any_thread_count() {
        // Sizes on both sides of every chunk-count step (1 chunk, 2, the
        // 64-chunk cap) and not divisible by the chunk count.
        let mut rng = DetRng::new(31);
        for n in [
            1000,
            2 * MIN_CHUNK - 1,
            2 * MIN_CHUNK,
            3 * MIN_CHUNK + 17,
            64 * MIN_CHUNK + 5,
        ] {
            let mut g: Vec<f32> = (0..n).map(|_| rng.normal() as f32).collect();
            // Ties across chunk boundaries, both signs.
            for i in (0..n).step_by(97) {
                g[i] = if i % 2 == 0 { 0.5 } else { -0.5 };
            }
            // (The largest size checks two cuts only: debug-build time.)
            let all = [1, 2, n / 100, n / 2, n - 1, n];
            let ks = if n > 4 * MIN_CHUNK {
                &all[2..4]
            } else {
                &all[..]
            };
            for &k in ks {
                let want = by_sort(&g, k);
                for t in [1, 2, 4] {
                    let got = rayon::pool::with_num_threads(t, || TopK::select(&g, k));
                    assert_eq!(got, want, "n={n} k={k} threads={t}");
                }
            }
        }
    }

    #[test]
    fn select_on_degenerate_inputs() {
        let n = 3 * MIN_CHUNK + 1;
        // All equal: the whole input is one tie run; lowest indices win.
        assert_eq!(
            TopK::select(&vec![-2.5f32; n], 70_000),
            (0..70_000).collect::<Vec<u32>>()
        );
        // Zeros of both signs are one magnitude.
        let zeros: Vec<f32> = (0..n)
            .map(|i| if i % 3 == 0 { -0.0 } else { 0.0 })
            .collect();
        assert_eq!(TopK::select(&zeros, 5), vec![0, 1, 2, 3, 4]);
        // Denormals order by magnitude; infinities beat every finite.
        let mut g = vec![0.0f32; n];
        g[7] = f32::from_bits(1); // smallest denormal
        g[n - 1] = -f32::from_bits(2);
        g[40_000] = f32::NEG_INFINITY;
        g[90_000] = f32::MAX;
        assert_eq!(TopK::select(&g, 1), vec![40_000]);
        assert_eq!(TopK::select(&g, 2), vec![40_000, 90_000]);
        assert_eq!(TopK::select(&g, 3), vec![40_000, 90_000, n as u32 - 1]);
        assert_eq!(
            TopK::select(&g, 5),
            vec![0, 7, 40_000, 90_000, n as u32 - 1]
        );
    }

    #[test]
    fn nan_ranks_above_infinity() {
        let mut g = vec![1.0f32; 1000];
        g[10] = f32::INFINITY;
        g[500] = f32::NAN;
        g[900] = -f32::NAN;
        assert_eq!(TopK::select(&g, 2), vec![500, 900]);
        assert_eq!(TopK::select(&g, 3), vec![10, 500, 900]);
        assert_eq!(TopK::select(&g, 4), vec![0, 10, 500, 900]);
        let mut c = TopK::new(0.002);
        let s = c.compress(&g);
        assert!(s.as_sparse().unwrap().values.iter().all(|v| v.is_nan()));
    }

    #[test]
    fn compress_reuses_its_scratch_and_matches_select() {
        let mut rng = DetRng::new(9);
        let n = 2 * MIN_CHUNK + 3;
        let mut c = TopK::new(0.01);
        for _ in 0..3 {
            let g: Vec<f32> = (0..n).map(|_| rng.normal() as f32).collect();
            let out = c.compress(&g);
            let s = out.as_sparse().unwrap();
            assert_eq!(s.indices, TopK::select(&g, k_for_ratio(n, 0.01)));
            assert!(s
                .indices
                .iter()
                .zip(&s.values)
                .all(|(&i, &v)| g[i as usize].to_bits() == v.to_bits()));
        }
    }

    #[test]
    fn ratio_one_is_lossless() {
        let g = vec![1.0, -2.0, 0.0, 4.0];
        let mut c = TopK::new(1.0);
        assert_eq!(c.compress(&g).to_dense(), g);
    }
}
