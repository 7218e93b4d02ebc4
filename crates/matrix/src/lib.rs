//! # fusedml-matrix
//!
//! Matrix substrate for the kernel-fusion reproduction: dense row-major and
//! sparse (CSR/CSC/COO) formats, synthetic workload generators shaped like
//! the paper's data sets, summary statistics for the launch-parameter
//! tuner, and single-threaded CPU reference implementations of every
//! operation (the ground truth all simulated kernels are checked against).

// Malformed input from files or foreign formats is a typed error, never a
// panic or a bare unwrap/expect; tests are exempt.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic))]

pub mod coo;
pub mod csc;
pub mod csr;
pub mod dense;
pub mod ell;
pub mod error;
pub mod gen;
pub mod hyb;
pub mod io;
pub mod reference;
pub mod stats;

pub use coo::Coo;
pub use csc::CscMatrix;
pub use csr::CsrMatrix;
pub use dense::DenseMatrix;
pub use ell::EllMatrix;
pub use error::FormatError;
pub use hyb::HybMatrix;
pub use stats::SparseStats;
