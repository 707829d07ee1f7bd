//! # lowdiff-optim
//!
//! Optimizers and the [`ModelState`] they maintain.
//!
//! The paper's arithmetic (Findings 1–2, §3.2) hinges on two facts about
//! Adam that this crate makes explicit:
//!
//! 1. **The update is a pure function of `(state, gradient)`** —
//!    `M_{t+1} = M_t + Adam(G_t)` — so replaying the same gradients through
//!    the same optimizer reproduces the same model state bit-for-bit. That is
//!    what makes a compressed gradient usable as a differential checkpoint.
//! 2. **Adam is elementwise**: `m_i, v_i, x_i` depend only on the history of
//!    `g_i`. This is what allows LowDiff's *sharded parallel recovery*
//!    (replay disjoint parameter ranges on different threads) to be exact.
//!
//! Adam keeps first/second moments of the same size as the parameters, so a
//! full model state is `3Ψ` (Finding 2) — `ModelState::payload_bytes`
//! reports exactly that, and the storage experiments rely on it.

pub mod adam;
pub mod state;

pub use adam::{Adam, AdamState};
pub use state::ModelState;
