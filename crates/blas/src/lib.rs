//! # fusedml-blas
//!
//! Baseline operator-level kernels on the simulated GPU — the stand-ins for
//! NVIDIA cuBLAS / cuSPARSE and BIDMat that the paper's fused kernels are
//! measured against, plus the analytical CPU engine standing in for
//! BIDMat-CPU (Intel MKL).
//!
//! Everything here follows the *un-fused* discipline the paper criticizes:
//! one kernel launch per primitive operator, intermediates materialized in
//! global memory, and the transposed products either scattering through
//! global atomics or paying for an explicit `csr2csc`.
//!
//! The exception is [`exec`]: real host-CPU kernels (scalar, AVX2, and a
//! multithreaded fused pattern kernel) behind the runtime-dispatched
//! [`KernelExecutor`] trait, which the `fusedml-bench cpu` subcommand
//! measures in wall-clock to validate the analytical [`CpuEngine`].

// Lane-indexed loops over parallel arrays are the natural idiom for
// warp-level kernel code; iterator zips would obscure the SIMT shape.
#![allow(clippy::needless_range_loop)]
// Simulator/kernels code surfaces failures as typed errors; each panic left
// is an allowed misuse or invariant check. Bare ones are for tests only.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic))]

pub mod cpu;
pub mod csrmv;
pub mod csrmv_t;
pub mod dev;
pub mod ellmv;
pub mod engine;
pub mod exec;
pub mod gemv;
pub mod level1;
pub mod strips;
pub mod transpose;

pub use cpu::{
    measure_lrcg_iteration_dense, measure_lrcg_iteration_sparse, CpuEngine, MeasureError,
};
pub use csrmv::{try_csrmv, vector_size_for_mean_nnz, SpmvStyle};
pub use csrmv_t::{try_csrmv_t_atomic, try_csrmv_t_pretransposed, try_csrmv_t_scatter};
pub use dev::{GpuCsr, GpuDense};
pub use ellmv::{try_ellmv, try_hybmv, GpuEll, GpuHyb};
pub use engine::{BaselineEngine, Flavor};
#[cfg(target_arch = "x86_64")]
pub use exec::Avx2Executor;
pub use exec::{
    active_executor, available_executors, avx2_executor, executor_named, fused_pattern_csr,
    fused_pattern_dense, fused_xtxp_csr, scalar_executor, scalar_forced, KernelExecutor, MtFused,
    MtWorkspace, ScalarExecutor, CANONICAL_BLOCKS,
};
pub use gemv::{try_gemv, try_gemv_t, try_gemv_t_direct};
pub use strips::{Strip, StripTable, Strips};
pub use transpose::{total_sim_ms, try_csr2csc_device};
