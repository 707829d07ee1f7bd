//! Uniform linear quantization (16-, 8- and 4-bit).
//!
//! `q = round((v − lo) / scale)`, `v̂ = lo + q · scale`. Simple min/max
//! range quantizer — enough to exercise the "Quantization" branch of §2.3
//! and to give the cost model 2×/4×/8× size points between Top-K and dense.

use crate::grad::{CompressedGrad, QuantGrad};
use crate::Compressor;

/// Uniform quantizer with a fixed bit width.
#[derive(Clone, Debug)]
pub struct UniformQuant {
    pub bits: u8,
}

impl UniformQuant {
    pub fn new(bits: u8) -> Self {
        assert!(
            bits == 16 || bits == 8 || bits == 4,
            "supported widths: 16, 8, 4 (got {bits})"
        );
        Self { bits }
    }

    fn levels(&self) -> u32 {
        (1u32 << self.bits) - 1
    }
}

impl Compressor for UniformQuant {
    fn compress(&mut self, grad: &[f32]) -> CompressedGrad {
        let n = grad.len();
        let lo = grad.iter().copied().fold(f32::INFINITY, f32::min);
        let hi = grad.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let (lo, hi) = if n == 0 { (0.0, 0.0) } else { (lo, hi) };
        let levels = self.levels() as f32;
        let scale = if hi > lo { (hi - lo) / levels } else { 1.0 };

        let quantize = |v: f32| -> u32 {
            (((v - lo) / scale).round() as i64).clamp(0, self.levels() as i64) as u32
        };

        let codes = match self.bits {
            16 => {
                let mut packed = Vec::with_capacity(n * 2);
                for &v in grad {
                    packed.extend_from_slice(&(quantize(v) as u16).to_le_bytes());
                }
                packed
            }
            8 => grad.iter().map(|&v| quantize(v) as u8).collect(),
            4 => {
                let mut packed = Vec::with_capacity(n.div_ceil(2));
                let mut it = grad.iter();
                while let Some(&a) = it.next() {
                    let qa = quantize(a) as u8;
                    let qb = it.next().map(|&b| quantize(b) as u8).unwrap_or(0);
                    packed.push(qa | (qb << 4));
                }
                packed
            }
            _ => unreachable!(),
        };

        CompressedGrad::Quant(QuantGrad {
            dense_len: n,
            bits: self.bits,
            codes,
            scale,
            zero: lo,
        })
    }
}

/// Reconstruct the dense gradient from a quantized one: element `i` is
/// `zero + code_i · scale`.
pub fn dequantize(q: &QuantGrad) -> Vec<f32> {
    let mut out = Vec::with_capacity(q.dense_len);
    match q.bits {
        16 => {
            for pair in q.codes.chunks_exact(2) {
                let c = u16::from_le_bytes([pair[0], pair[1]]);
                out.push(q.zero + c as f32 * q.scale);
            }
        }
        8 => {
            for &c in &q.codes {
                out.push(q.zero + c as f32 * q.scale);
            }
        }
        4 => {
            for &byte in &q.codes {
                out.push(q.zero + (byte & 0x0F) as f32 * q.scale);
                if out.len() < q.dense_len {
                    out.push(q.zero + (byte >> 4) as f32 * q.scale);
                }
            }
        }
        b => panic!("unsupported bit width {b}"),
    }
    out.truncate(q.dense_len);
    out
}

/// Decode only `range` of the dense gradient into `out`
/// (`out.len() == range.len()`). Every width is element-addressable —
/// 16-bit is two bytes per element, 8-bit one, 4-bit one nibble (low
/// nibble first) — so sharded recovery can decode its own window in
/// O(range) instead of expanding the full Ψ-sized vector.
pub fn dequantize_range(q: &QuantGrad, range: std::ops::Range<usize>, out: &mut [f32]) {
    assert!(range.end <= q.dense_len, "range beyond dense_len");
    assert_eq!(out.len(), range.len(), "output buffer length mismatch");
    match q.bits {
        16 => {
            for (o, i) in out.iter_mut().zip(range) {
                let c = u16::from_le_bytes([q.codes[2 * i], q.codes[2 * i + 1]]);
                *o = q.zero + c as f32 * q.scale;
            }
        }
        8 => {
            for (o, &c) in out.iter_mut().zip(&q.codes[range]) {
                *o = q.zero + c as f32 * q.scale;
            }
        }
        4 => {
            for (o, i) in out.iter_mut().zip(range) {
                let byte = q.codes[i / 2];
                let code = if i % 2 == 0 { byte & 0x0F } else { byte >> 4 };
                *o = q.zero + code as f32 * q.scale;
            }
        }
        b => panic!("unsupported bit width {b}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lowdiff_util::DetRng;

    #[test]
    fn dequantize_range_matches_full_decode() {
        let mut rng = DetRng::new(9);
        let g: Vec<f32> = (0..257).map(|_| rng.normal() as f32).collect();
        for c in [
            UniformQuant::new(16).compress(&g),
            UniformQuant::new(8).compress(&g),
            UniformQuant::new(4).compress(&g),
        ] {
            let q = match &c {
                CompressedGrad::Quant(q) => q,
                _ => unreachable!(),
            };
            let full = dequantize(q);
            for range in [0..257usize, 0..1, 13..14, 13..100, 100..257, 255..257] {
                let mut out = vec![0.0f32; range.len()];
                dequantize_range(q, range.clone(), &mut out);
                assert_eq!(out, full[range.clone()], "range {range:?}");
            }
        }
    }

    #[test]
    fn roundtrip_error_bounded_8bit() {
        let mut rng = DetRng::new(1);
        let g: Vec<f32> = (0..1000).map(|_| rng.normal() as f32).collect();
        let mut q = UniformQuant::new(8);
        let c = q.compress(&g);
        let d = c.to_dense();
        let range = g.iter().fold(f32::NEG_INFINITY, |m, &x| m.max(x))
            - g.iter().fold(f32::INFINITY, |m, &x| m.min(x));
        let step = range / 255.0;
        for (a, b) in g.iter().zip(&d) {
            assert!((a - b).abs() <= step * 0.5 + 1e-6, "{a} vs {b}");
        }
    }

    #[test]
    fn roundtrip_error_bounded_4bit() {
        let g: Vec<f32> = (0..100).map(|i| (i as f32) / 10.0).collect();
        let mut q = UniformQuant::new(4);
        let d = q.compress(&g).to_dense();
        assert_eq!(d.len(), 100);
        let step = (9.9 - 0.0) / 15.0;
        for (a, b) in g.iter().zip(&d) {
            assert!((a - b).abs() <= step * 0.5 + 1e-5, "{a} vs {b}");
        }
    }

    #[test]
    fn odd_length_4bit() {
        let g = vec![1.0, 2.0, 3.0];
        let mut q = UniformQuant::new(4);
        let d = q.compress(&g).to_dense();
        assert_eq!(d.len(), 3);
    }

    #[test]
    fn constant_input_exact() {
        let g = vec![2.5f32; 17];
        let mut q = UniformQuant::new(8);
        let d = q.compress(&g).to_dense();
        assert!(d.iter().all(|&v| (v - 2.5).abs() < 1e-6));
    }

    #[test]
    fn payload_sizes() {
        // Packed bit-width bytes, never 4 bytes/element: the stats
        // invariant (`diff_bytes_written == StorageBackend::bytes_written`)
        // depends on these being the true packed sizes.
        let g = vec![0.0f32; 1000];
        let c16 = UniformQuant::new(16).compress(&g);
        let c8 = UniformQuant::new(8).compress(&g);
        let c4 = UniformQuant::new(4).compress(&g);
        assert_eq!(c16.payload_bytes(), 16 + 2000);
        assert_eq!(c8.payload_bytes(), 16 + 1000);
        assert_eq!(c4.payload_bytes(), 16 + 500);
    }

    #[test]
    fn roundtrip_error_bounded_16bit() {
        let mut rng = DetRng::new(6);
        let g: Vec<f32> = (0..500).map(|_| rng.normal() as f32).collect();
        let mut q = UniformQuant::new(16);
        let d = q.compress(&g).to_dense();
        let range = g.iter().fold(f32::NEG_INFINITY, |m, &x| m.max(x))
            - g.iter().fold(f32::INFINITY, |m, &x| m.min(x));
        let step = range / 65535.0;
        for (a, b) in g.iter().zip(&d) {
            assert!((a - b).abs() <= step * 0.5 + 1e-6, "{a} vs {b}");
        }
    }

    #[test]
    fn f32_max_roundtrips_at_every_width() {
        // `zero == f32::MAX` is an ordinary zero point: an input whose
        // minimum is f32::MAX decodes to itself, whole and windowed.
        for bits in [4u8, 8, 16] {
            let c = UniformQuant::new(bits).compress(&[f32::MAX; 5]);
            assert_eq!(c.to_dense(), vec![f32::MAX; 5], "{bits}-bit");
            let CompressedGrad::Quant(q) = &c else {
                unreachable!()
            };
            let mut out = [0.0f32; 3];
            dequantize_range(q, 1..4, &mut out);
            assert_eq!(out, [f32::MAX; 3], "{bits}-bit window");
        }
    }

    #[test]
    fn empty_input() {
        let mut q = UniformQuant::new(8);
        assert_eq!(q.compress(&[]).to_dense(), Vec::<f32>::new());
    }
}
