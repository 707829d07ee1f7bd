//! Adaptive precision policy: per-tensor bit-width selection with
//! promote/demote hysteresis (ROADMAP open item 4; Inshrinkerator-style
//! dynamic quantization of checkpoint deltas).
//!
//! [`AdaptiveQuant`] wraps the uniform quantizer and retunes its bit width
//! each interval from cheap streaming statistics — the *emitted* gradient's
//! quantization step (`scale`), which is exactly what the decoder will see.
//! Driving the state machine from emitted values (rather than from raw
//! inputs) is what makes crash-resume deterministic: every stored
//! [`QuantGrad`](crate::grad::QuantGrad) carries the `(scale, bits)` pair
//! that produced a transition, so replaying the chain through
//! [`AdaptiveQuant::observe`] reproduces the policy state bit-exactly.
//!
//! State machine (widths ladder 4 ↔ 8 ↔ 16):
//!
//! ```text
//!            err > max_err (bound violated)
//!   bits ──────────────────────────────────▶ promote one step, streak := 0
//!
//!            err′(narrower) ≤ max_err for DEMOTE_STREAK intervals
//!   bits ──────────────────────────────────▶ demote one step (≥ floor),
//!                                            streak := 0
//! ```
//!
//! where `err = scale/2` is the worst-case per-element reconstruction
//! error of the emitted gradient and `err′` rescales it to the next
//! narrower width. `max_err ≤ 0` disables adaptation (fixed width).

use crate::grad::CompressedGrad;
use crate::quant::UniformQuant;
use crate::Compressor;

/// Calm intervals required before a demotion — the hysteresis that stops
/// the policy from oscillating on a noisy boundary.
pub const DEMOTE_STREAK: u8 = 3;

/// The resume-critical state of the adaptive precision policy. Rides in
/// the full-checkpoint aux trailer (flag bit 3) so a resumed run continues
/// the state machine exactly where the crashed run left it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct QuantPolicyState {
    /// Bit width currently in effect (4, 8 or 16).
    pub bits: u8,
    /// Consecutive calm intervals observed toward a demotion.
    pub streak: u8,
    /// Whether the policy adapts at all; `false` pins `bits` for the run.
    pub adaptive: bool,
    /// Hard per-element reconstruction bound; `<= 0` disables adaptation.
    pub max_err: f32,
    /// Narrowest width a demotion may reach.
    pub floor_bits: u8,
}

fn levels(bits: u8) -> f32 {
    ((1u32 << bits) - 1) as f32
}

fn promote(bits: u8) -> Option<u8> {
    match bits {
        4 => Some(8),
        8 => Some(16),
        _ => None,
    }
}

fn demote(bits: u8) -> Option<u8> {
    match bits {
        16 => Some(8),
        8 => Some(4),
        _ => None,
    }
}

/// A uniform quantizer whose bit width is retuned each interval by the
/// promote/demote state machine above. Implements [`Compressor`], so it
/// plugs into error feedback and the trainer like any other compressor.
pub struct AdaptiveQuant {
    state: QuantPolicyState,
}

impl AdaptiveQuant {
    /// `bits` is the starting (and, when `!adaptive`, permanent) width.
    pub fn new(bits: u8, adaptive: bool, max_err: f32, floor_bits: u8) -> Self {
        assert!(matches!(bits, 4 | 8 | 16), "supported widths: 4, 8, 16");
        assert!(
            matches!(floor_bits, 4 | 8 | 16) && floor_bits <= bits,
            "floor must be a supported width <= bits"
        );
        Self {
            state: QuantPolicyState {
                bits,
                streak: 0,
                adaptive,
                max_err,
                floor_bits,
            },
        }
    }

    /// Width the next `compress` call will use.
    pub fn current_bits(&self) -> u8 {
        self.state.bits
    }

    /// Snapshot the policy state for the checkpoint aux trailer.
    pub fn policy_state(&self) -> QuantPolicyState {
        self.state
    }

    /// Restore the policy state from a checkpoint — the exact-resume path.
    /// Without this, a restarted run re-enters the state machine at its
    /// configured width and silently diverges from the uninterrupted run.
    pub fn restore_state(&mut self, state: QuantPolicyState) {
        assert!(matches!(state.bits, 4 | 8 | 16), "corrupt policy width");
        self.state = state;
    }

    /// Advance the state machine with an *emitted* gradient's `(scale,
    /// bits)` pair. Called internally after every `compress`; resume calls
    /// it directly for each replayed chain entry, which fast-forwards the
    /// policy through exactly the transitions the crashed run took.
    pub fn observe(&mut self, scale: f32, bits: u8) {
        if !self.state.adaptive || self.state.max_err <= 0.0 {
            return;
        }
        debug_assert_eq!(bits, self.state.bits, "observed width out of step");
        let err = scale * 0.5;
        if err > self.state.max_err {
            // Bound violated: widen immediately (no hysteresis on the way
            // up — the bound is hard).
            if let Some(up) = promote(bits) {
                self.state.bits = up;
            }
            self.state.streak = 0;
            return;
        }
        // Calm interval. Would one step narrower still meet the bound?
        let fits_narrower = demote(bits)
            .filter(|&down| down >= self.state.floor_bits)
            .is_some_and(|down| err * (levels(bits) / levels(down)) <= self.state.max_err);
        if fits_narrower {
            self.state.streak += 1;
            if self.state.streak >= DEMOTE_STREAK {
                self.state.bits = demote(bits).unwrap();
                self.state.streak = 0;
            }
        } else {
            self.state.streak = 0;
        }
    }
}

impl Compressor for AdaptiveQuant {
    fn compress(&mut self, grad: &[f32]) -> CompressedGrad {
        let out = UniformQuant::new(self.state.bits).compress(grad);
        if let CompressedGrad::Quant(q) = &out {
            self.observe(q.scale, q.bits);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A gradient whose full range is `width`, so the emitted 8-bit scale
    /// is `width/255`.
    fn grad_with_range(width: f32) -> Vec<f32> {
        vec![0.0, width * 0.25, width * 0.5, width]
    }

    #[test]
    fn fixed_width_never_moves() {
        let mut q = AdaptiveQuant::new(8, false, 1e-6, 4);
        for _ in 0..10 {
            q.compress(&grad_with_range(1000.0));
        }
        assert_eq!(q.current_bits(), 8, "non-adaptive policy must pin width");
        let mut q = AdaptiveQuant::new(8, true, 0.0, 4);
        q.compress(&grad_with_range(1000.0));
        assert_eq!(q.current_bits(), 8, "max_err <= 0 disables adaptation");
    }

    #[test]
    fn bound_violation_promotes_immediately() {
        // range 255 at 8 bits → scale 1.0 → err 0.5 > 0.01.
        let mut q = AdaptiveQuant::new(8, true, 0.01, 4);
        q.compress(&grad_with_range(255.0));
        assert_eq!(q.current_bits(), 16);
    }

    #[test]
    fn promotion_saturates_at_16() {
        let mut q = AdaptiveQuant::new(16, true, 1e-9, 4);
        for _ in 0..5 {
            q.compress(&grad_with_range(1e6));
        }
        assert_eq!(q.current_bits(), 16);
    }

    #[test]
    fn demotion_requires_hysteresis_and_respects_floor() {
        // Tiny range: even 4-bit meets the bound, so each interval is calm.
        let mut q = AdaptiveQuant::new(16, true, 1.0, 8);
        for i in 0..(DEMOTE_STREAK - 1) {
            q.compress(&grad_with_range(0.001));
            assert_eq!(q.current_bits(), 16, "demoted after only {} calm", i + 1);
        }
        q.compress(&grad_with_range(0.001));
        assert_eq!(q.current_bits(), 8, "third calm interval must demote");
        // Floor is 8: further calm intervals must not reach 4.
        for _ in 0..10 {
            q.compress(&grad_with_range(0.001));
        }
        assert_eq!(q.current_bits(), 8, "demotion must stop at the floor");
    }

    #[test]
    fn violation_resets_demote_streak() {
        let mut q = AdaptiveQuant::new(16, true, 0.01, 4);
        q.compress(&grad_with_range(0.001)); // calm: streak 1
        q.compress(&grad_with_range(0.001)); // calm: streak 2
        q.compress(&grad_with_range(1e6)); // violation at 16: streak 0
        assert_eq!(q.policy_state().streak, 0);
        assert_eq!(q.current_bits(), 16);
        q.compress(&grad_with_range(0.001));
        assert_eq!(q.current_bits(), 16, "streak must restart after a reset");
    }

    #[test]
    fn replay_from_emitted_pairs_reproduces_state() {
        // The determinism contract: feeding the emitted (scale, bits)
        // sequence into a fresh policy via `observe` lands on the same
        // state as the run that produced it.
        let mut live = AdaptiveQuant::new(8, true, 0.05, 4);
        let mut emitted = Vec::new();
        let mut rng = lowdiff_util::DetRng::new(42);
        for i in 0..40 {
            let width = if i % 7 == 0 { 50.0 } else { 0.1 } * (1.0 + rng.uniform() as f32);
            let g = grad_with_range(width);
            if let CompressedGrad::Quant(q) = live.compress(&g) {
                emitted.push((q.scale, q.bits));
            }
        }
        let mut replay = AdaptiveQuant::new(8, true, 0.05, 4);
        for (scale, bits) in emitted {
            assert_eq!(replay.current_bits(), bits, "widths diverged mid-replay");
            replay.observe(scale, bits);
        }
        assert_eq!(replay.policy_state(), live.policy_state());
    }

    #[test]
    fn state_roundtrips_through_restore() {
        let mut q = AdaptiveQuant::new(8, true, 0.05, 4);
        q.compress(&grad_with_range(1e5));
        let snap = q.policy_state();
        let mut fresh = AdaptiveQuant::new(8, true, 0.05, 4);
        fresh.restore_state(snap);
        assert_eq!(fresh.policy_state(), snap);
        assert_eq!(fresh.current_bits(), q.current_bits());
    }
}
