//! # fusedml-core
//!
//! The paper's primary contribution: **fused kernels** for the generic ML
//! computation pattern
//!
//! ```text
//! w = alpha * X^T x (v ⊙ (X x y)) + beta * z        (Equation 1)
//! ```
//!
//! with
//! * [`sparse_fused`] — Algorithms 1 & 2 (CSR input, hierarchical
//!   register → shared-memory → global-memory aggregation),
//! * [`sparse_large`] — the large-`n` variant aggregating directly in
//!   global memory (the KDD-2010 regime),
//! * [`dense_fused`] + [`codegen`] — Algorithm 3 with const-generic thread
//!   load, the Rust analog of the paper's unrolling code generator,
//! * [`tuner`] — the §3.3 analytical launch-parameter model (Equations 4-6
//!   plus the occupancy calculator),
//! * [`executor`] — a one-call API that plans, dispatches and accounts, and
//! * [`rowranges`] + [`sharded`] — the row-range core that sharded and
//!   streamed execution share, and its multi-device placement.

// Lane-indexed loops over parallel arrays are the natural idiom for
// warp-level kernel code; iterator zips would obscure the SIMT shape.
#![allow(clippy::needless_range_loop)]
// Hot-path code must report faults through typed errors, never through a
// panic or a bare unwrap/expect; a documented misuse or invariant check
// is allowed where it stands. Tests and benches are exempt.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic))]

pub mod codegen;
pub mod cpu_exec;
pub mod dag;
pub mod dense_fused;
pub mod ell_fused;
pub mod executor;
pub mod fusion;
pub mod pattern;
pub mod plancache;
pub mod rowranges;
pub mod sharded;
pub mod sparse_fused;
pub mod sparse_large;
pub mod tuner;

pub use codegen::generate_cuda_source;
pub use cpu_exec::CpuFusedPattern;
pub use dag::{Dag, DagBuilder, Dim, NodeId, Op, ScalarRef};
pub use ell_fused::{plan_ell, EllPlan};
pub use executor::FusedExecutor;
pub use fusion::{
    select_plan, unfused_plan, DagExecutor, DagInputs, DagMatrix, DagRun, FusionPlan, GroupKind,
    KernelGroup, MatrixShape, RejectedCandidate,
};
pub use pattern::{PatternInstance, PatternSpec};
pub use plancache::{
    plan_cache_enabled, set_plan_cache_enabled, Invalidation, PlanCache, PlanCacheStats,
};
pub use rowranges::{RowRange, RowRangeExecutor, RowRanges};
pub use sharded::{shard_rows, try_fused_pattern_shard, ShardedExecutor};
pub use tuner::{
    try_plan_dense, try_plan_sparse, try_plan_sparse_with_vs, DensePlan, PlanError, SparsePlan,
};
