//! # lowdiff-model
//!
//! The DNN substrate: real, trainable neural networks with hand-written
//! forward/backward passes, plus the *model zoo* metadata describing the
//! paper's eight evaluation models.
//!
//! Two tiers, per DESIGN.md:
//!
//! * **Real networks** ([`builders`]) — MLPs, a small CNN and a tiny
//!   GPT-style transformer that actually train on synthetic data. These
//!   exercise the true layer-by-layer backward ordering that LowDiff+
//!   exploits (gradients become available in *reverse layer order*), and
//!   give the integration tests real gradients, real convergence and real
//!   bit-exact recovery to check.
//! * **Zoo descriptors** ([`zoo`]) — parameter-count-faithful metadata for
//!   ResNet-50/101, VGG-16/19, BERT-B/L and GPT2-S/L (25.6 M – 762 M
//!   params), consumed by the cluster cost model. We do not run a 762 M
//!   model on CPU; we preserve exactly the quantities the paper's results
//!   depend on (Ψ, layer counts/sizes, iteration time).
//!
//! Every layer's backward pass is validated against centered finite
//! differences in its unit tests.

pub mod builders;
pub mod conv;
pub mod data;
pub mod layer;
pub mod loss;
pub mod mha;
pub mod net;
pub mod zoo;

pub use layer::Layer;
pub use net::Network;
pub use zoo::ModelSpec;
