//! The eager shard projection: a rank's shard of a model state and of its
//! auxiliary resume state, gathered into fresh vectors. Production never
//! builds one — a shard full gathers the spec's ranges straight into its
//! frame (`lowdiff_storage::codec::encode_full_frame_into`) — so this is
//! the oracle that gathered capture, the stitch functions and the
//! cluster's epoch seals are checked against.

use lowdiff_compress::{AuxState, AuxView};
use lowdiff_optim::{AdamState, ModelState};
use lowdiff_storage::ShardSpec;

/// [`ShardSpec`]'s eager projections of whole-state values.
pub trait ShardProjection {
    /// Project a full model state onto this shard: params and both Adam
    /// moments gathered, iteration and step counter preserved. Adam is
    /// elementwise, so evolving the projection tracks the projection of
    /// the evolution bit-for-bit.
    fn project_state(&self, state: &ModelState) -> ModelState;

    /// Project the auxiliary resume state: the EF residual is per-element
    /// (sharded like params); compressor identity, RNG cursor and quant
    /// policy are scalars every rank shares.
    fn project_aux(&self, aux: &AuxView<'_>) -> AuxState;
}

impl ShardProjection for ShardSpec {
    fn project_state(&self, state: &ModelState) -> ModelState {
        ModelState {
            iteration: state.iteration,
            params: self.project_slice(&state.params),
            opt: AdamState {
                m: self.project_slice(&state.opt.m),
                v: self.project_slice(&state.opt.v),
                t: state.opt.t,
            },
        }
    }

    fn project_aux(&self, aux: &AuxView<'_>) -> AuxState {
        AuxState {
            residual: aux.residual.map(|r| self.project_slice(r)),
            compressor: aux.compressor,
            rng: aux.rng,
            quant: aux.quant,
        }
    }
}
