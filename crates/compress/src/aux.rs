//! Auxiliary training state that must ride along with a full checkpoint
//! for resume to be bit-exact ("resume ≡ never crashed").
//!
//! `ModelState` alone is not enough: error-feedback training keeps a
//! residual buffer outside the model, the compressor has an identity and
//! configuration that the resumed run must match, and the data pipeline
//! has an RNG cursor. A full checkpoint that drops any of these forces a
//! *lossy* resume — training continues, but diverges from the
//! uninterrupted run. [`AuxView`] is the borrowed capture-side view
//! (zero-copy snapshot into the checkpoint engine); [`AuxState`] is the
//! owned decode-side result.

/// Which compressor family produced the differentials.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum CompressorKind {
    /// No compression (dense gradients).
    None = 0,
    /// Top-K sparsification (`ratio` = ρ).
    TopK = 1,
    /// Uniform linear quantization (`bits` = width).
    Quant = 2,
}

impl CompressorKind {
    pub fn from_u8(v: u8) -> Option<Self> {
        match v {
            0 => Some(Self::None),
            1 => Some(Self::TopK),
            2 => Some(Self::Quant),
            _ => None,
        }
    }
}

/// Compressor identity + configuration, compact enough to embed in every
/// full checkpoint. Resume refuses to continue under a *different*
/// compressor than the one that produced the stored residual/differentials
/// (the chains would not compose).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CompressorCfg {
    pub kind: CompressorKind,
    /// Sparsifier keep-ratio ρ; 1.0 for quantizers and `None`.
    pub ratio: f64,
    /// Quantizer bit width; 0 for sparsifiers and `None`.
    pub bits: u8,
}

impl CompressorCfg {
    pub fn none() -> Self {
        Self {
            kind: CompressorKind::None,
            ratio: 1.0,
            bits: 0,
        }
    }

    pub fn topk(ratio: f64) -> Self {
        Self {
            kind: CompressorKind::TopK,
            ratio,
            bits: 0,
        }
    }

    pub fn quant(bits: u8) -> Self {
        Self {
            kind: CompressorKind::Quant,
            ratio: 1.0,
            bits,
        }
    }
}

/// Borrowed view of the auxiliary state at capture time. Strategies thread
/// this through their hooks so the engine can snapshot it without the
/// trainer allocating; `AuxView::NONE` is the explicit "nothing to carry"
/// value used by call sites that predate (or opt out of) exact resume.
#[derive(Clone, Copy, Debug, Default)]
pub struct AuxView<'a> {
    /// Error-feedback residual at the checkpointed iteration boundary.
    pub residual: Option<&'a [f32]>,
    /// Identity/config of the compressor producing the differentials.
    pub compressor: Option<CompressorCfg>,
    /// Data/iteration RNG cursor (xoshiro256** state words).
    pub rng: Option<[u64; 4]>,
    /// Adaptive precision-policy state (current width + demote streak), so
    /// a resumed run re-enters the state machine where the crash left it.
    pub quant: Option<crate::adaptive::QuantPolicyState>,
}

impl AuxView<'static> {
    /// No auxiliary state. Resuming from a checkpoint written with this is
    /// lossy when error feedback is on.
    pub const NONE: AuxView<'static> = AuxView {
        residual: None,
        compressor: None,
        rng: None,
        quant: None,
    };
}

impl<'a> AuxView<'a> {
    pub fn is_empty(&self) -> bool {
        self.residual.is_none()
            && self.compressor.is_none()
            && self.rng.is_none()
            && self.quant.is_none()
    }

    pub fn to_state(&self) -> AuxState {
        AuxState {
            residual: self.residual.map(|r| r.to_vec()),
            compressor: self.compressor,
            rng: self.rng,
            quant: self.quant,
        }
    }
}

/// Owned auxiliary state, as decoded from a full checkpoint.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct AuxState {
    pub residual: Option<Vec<f32>>,
    pub compressor: Option<CompressorCfg>,
    pub rng: Option<[u64; 4]>,
    pub quant: Option<crate::adaptive::QuantPolicyState>,
}

impl AuxState {
    pub fn is_empty(&self) -> bool {
        self.residual.is_none()
            && self.compressor.is_none()
            && self.rng.is_none()
            && self.quant.is_none()
    }

    pub fn view(&self) -> AuxView<'_> {
        AuxView {
            residual: self.residual.as_deref(),
            compressor: self.compressor,
            rng: self.rng,
            quant: self.quant,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_view_is_empty() {
        assert!(AuxView::NONE.is_empty());
        assert!(AuxView::NONE.to_state().is_empty());
        assert!(AuxState::default().is_empty());
    }

    #[test]
    fn view_roundtrips_through_owned() {
        let st = AuxState {
            residual: Some(vec![1.0, -2.0]),
            compressor: Some(CompressorCfg::topk(0.01)),
            rng: Some([1, 2, 3, 4]),
            quant: Some(crate::adaptive::QuantPolicyState {
                bits: 8,
                streak: 2,
                adaptive: true,
                max_err: 0.05,
                floor_bits: 4,
            }),
        };
        let back = st.view().to_state();
        assert_eq!(back, st);
        assert!(!st.is_empty());
    }

    #[test]
    fn quant_policy_alone_is_not_empty() {
        let st = AuxState {
            quant: Some(crate::adaptive::QuantPolicyState {
                bits: 16,
                streak: 0,
                adaptive: false,
                max_err: 0.0,
                floor_bits: 4,
            }),
            ..AuxState::default()
        };
        assert!(!st.is_empty());
        assert!(!st.view().is_empty());
    }

    #[test]
    fn kind_tags_roundtrip() {
        for k in [
            CompressorKind::None,
            CompressorKind::TopK,
            CompressorKind::Quant,
        ] {
            assert_eq!(CompressorKind::from_u8(k as u8), Some(k));
        }
        assert_eq!(CompressorKind::from_u8(200), None);
    }
}
