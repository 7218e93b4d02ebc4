//! # fusedml-bench
//!
//! The experiment harness: one module per table/figure of the paper's
//! evaluation, each regenerating the artifact on the simulated device at a
//! configurable workload scale, plus the `repro` CLI, the `fusedml-bench`
//! continuous-benchmarking CLI (see [`regress`]), and Criterion benches.

// The harness feeds CI gates: failures are typed errors, never a panic or
// a bare unwrap/expect (allowed invariant checks aside). Tests are exempt.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic))]

pub mod experiments;
pub mod regress;
pub mod table;

pub use experiments::Ctx;
pub use table::Table;
