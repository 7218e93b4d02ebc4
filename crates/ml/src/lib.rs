//! # fusedml-ml
//!
//! The ML algorithms the paper's Table 1 surveys — linear regression
//! conjugate gradient (Listing 1), trust-region logistic regression,
//! primal L2-SVM, GLM via IRLS, and HITS — written once against a
//! [`Backend`] trait and runnable on the CPU reference or on one
//! [`DeviceBackend`] per matrix engine (fused kernels, operator baseline,
//! device shards, streamed chunks) with identical numerics and full
//! time/launch/pattern instrumentation.

// Production solver code must surface faults as typed errors, never
// panic; tests may unwrap freely.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic))]

pub mod checkpoint;
pub mod error;
pub mod glm;
pub mod hits;
pub mod logreg;
pub mod lr_cg;
pub mod ops;
pub mod pagerank;
pub mod sharded_backend;
pub mod svm;

pub use checkpoint::{CheckpointHandle, SolverCheckpoint};
pub use error::SolverError;
pub use glm::{try_glm, try_glm_ckpt, Family, GlmOptions, GlmResult};
pub use hits::{try_hits, try_hits_ckpt, HitsOptions, HitsResult};
pub use logreg::{
    try_logreg, try_logreg_ckpt, try_logreg_tron, try_logreg_tron_ckpt, LogRegOptions,
    LogRegResult, TronOptions, TronResult,
};
pub use lr_cg::{try_lr_cg, try_lr_cg_ckpt, LrCgOptions, LrCgResult};
pub use ops::{
    Backend, BackendStats, BaselineBackend, CpuBackend, DagBackend, DeviceBackend, DeviceMatrix,
    FusedBackend, MatrixEngine,
};
pub use pagerank::{
    inv_out_degrees, try_pagerank, try_pagerank_backend, try_pagerank_backend_ckpt,
    PagerankOptions, PagerankPlan, PagerankPowerResult, PagerankResult,
};
pub use sharded_backend::ShardedBackend;
pub use svm::{try_svm, try_svm_ckpt, SvmOptions, SvmResult};
