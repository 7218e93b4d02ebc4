//! # fusedml-script
//!
//! A mini-DML (SystemML's scripting language) frontend: lexer, parser and
//! interpreter. In [`EngineMode::FusedGpu`] the interpreter lowers each
//! expression's matrix-vector work to an operator DAG over one matrix and
//! runs it through the DAG fusion compiler of [`fusedml_core::fusion`],
//! which finds the instances of the paper's generic pattern
//!
//! ```text
//! w = alpha * t(X) %*% (v * (X %*% y)) + beta * z
//! ```
//!
//! and selects the fused kernel for them — the compiler half of §4.4's
//! claim that the integrated system "transparently selects our fused GPU
//! kernel". The interpreter executes scripts (the paper's Listing 1 runs
//! verbatim) on three engines: fused GPU, operator-level baseline GPU, and
//! host-only reference.
//!
//! ```
//! use fusedml_script::{EngineMode, Interpreter};
//! use fusedml_matrix::gen::uniform_sparse;
//!
//! let mut host = Interpreter::host_only();
//! host.bind_sparse("X", uniform_sparse(20, 10, 0.3, 1));
//! host.bind_vector("y", vec![1.0; 10]);
//! host.run(r#"
//!     X = read("X"); y = read("y");
//!     w = t(X) %*% (X %*% y);
//!     write(sum(w * w), "norm");
//! "#).unwrap();
//! assert!(host.outputs()["norm"].as_scalar().unwrap() > 0.0);
//! ```

// A bad script, or a device fault while running one, is a typed error,
// never a panic or a bare unwrap/expect; tests are exempt.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic))]

pub mod ast;
pub mod interp;
pub mod lexer;
pub mod parser;
pub mod value;

pub use ast::{Expr, Program, Stmt};
pub use interp::{EngineMode, Interpreter, RunStats, ScriptError};
pub use parser::{parse, ParseError};
pub use value::Value;

/// The paper's Listing 1 (linear regression conjugate gradient), shipped
/// with the crate so examples and tests can run it verbatim.
pub const LISTING_1: &str = include_str!("listing1.dml");
