//! Linear regression via conjugate gradient — Listing 1 of the paper,
//! line for line.
//!
//! Per iteration the dominant work is `q = X^T (X p) + eps * p`, the
//! `X^T(Xy) + beta*z` instantiation of the generic pattern; the remainder
//! is BLAS-1 (`axpy`, `dot`, `nrm2`), matching the Table 2 breakdown.

use crate::checkpoint::{CheckpointHandle, SolverCheckpoint};
use crate::error::SolverError;
use crate::ops::Backend;
use fusedml_core::PatternSpec;

/// Convergence/iteration report of one LR-CG run.
#[derive(Debug, Clone, PartialEq)]
pub struct LrCgResult {
    /// Learned weight vector (length n).
    pub weights: Vec<f64>,
    /// Iterations executed.
    pub iterations: usize,
    /// Final squared residual norm.
    pub final_nr2: f64,
    /// Initial squared residual norm.
    pub initial_nr2: f64,
    /// CG restarts taken after a non-finite residual or curvature was
    /// detected (0 on clean runs).
    pub restarts: usize,
}

/// Options mirroring Listing 1's constants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LrCgOptions {
    /// Ridge term `eps` (Listing 1 line 2: 0.001).
    pub eps: f64,
    /// Relative tolerance (line 2: 1e-6; target is `nr2 * tol^2`).
    pub tolerance: f64,
    /// Iteration cap (line 8: 100).
    pub max_iterations: usize,
}

impl Default for LrCgOptions {
    fn default() -> Self {
        LrCgOptions {
            eps: 0.001,
            tolerance: 1e-6,
            max_iterations: 100,
        }
    }
}

/// Solve `argmin_w ||X w - y||^2 + eps ||w||^2` by conjugate gradient on
/// the normal equations, exactly as Listing 1 stitches it from kernels.
/// `labels` is the target vector of length m. Device faults propagate as
/// [`SolverError::Device`]; non-finite residuals or curvature trigger a
/// bounded CG restart (recompute `r` from `w`) before giving up with
/// [`SolverError::NumericalBreakdown`].
///
/// ```
/// use fusedml_ml::{try_lr_cg, CpuBackend, LrCgOptions};
/// use fusedml_matrix::gen::{random_vector, uniform_sparse};
/// use fusedml_matrix::reference;
///
/// let x = uniform_sparse(200, 30, 0.2, 1);
/// let w_true = random_vector(30, 2);
/// let labels = reference::csr_mv(&x, &w_true);
/// let mut backend = CpuBackend::new_sparse(x);
/// let result = try_lr_cg(&mut backend, &labels, LrCgOptions { eps: 0.0, ..Default::default() })?;
/// assert!(reference::rel_l2_error(&result.weights, &w_true) < 1e-4);
/// # Ok::<(), fusedml_ml::SolverError>(())
/// ```
pub fn try_lr_cg<B: Backend>(
    backend: &mut B,
    labels: &[f64],
    opts: LrCgOptions,
) -> Result<LrCgResult, SolverError> {
    try_lr_cg_ckpt(backend, labels, opts, None)
}

/// [`try_lr_cg`] with checkpoint/resume: a snapshot of the full CG state
/// (iterate, residual, direction, norms, restart count) is saved to
/// `ckpt` every `ckpt.every()` iterations, and a valid existing snapshot
/// is restored instead of starting from iteration 0 — including onto a
/// different backend tier than the one that saved it, since snapshots
/// live on the host. With `ckpt` `None` the device work is identical to
/// [`try_lr_cg`].
pub fn try_lr_cg_ckpt<B: Backend>(
    backend: &mut B,
    labels: &[f64],
    opts: LrCgOptions,
    ckpt: Option<&CheckpointHandle>,
) -> Result<LrCgResult, SolverError> {
    const SOLVER: &str = "lr_cg";
    const MAX_RESTARTS: usize = 2;

    let m = backend.rows();
    let n = backend.cols();
    assert_eq!(labels.len(), m, "label vector must have row dimension");

    let y = backend.try_from_host("labels", labels)?;

    let resume = ckpt.and_then(|h| h.latest()).and_then(|c| match c {
        SolverCheckpoint::LrCg {
            iteration,
            restarts,
            nr2,
            initial_nr2,
            weights,
            residual,
            direction,
        } if weights.len() == n
            && residual.len() == n
            && direction.len() == n
            && nr2.is_finite()
            && initial_nr2.is_finite() =>
        {
            Some((
                iteration,
                restarts,
                nr2,
                initial_nr2,
                weights,
                residual,
                direction,
            ))
        }
        _ => None,
    });

    let (mut w, mut r, mut p, mut nr2, initial_nr2, mut i, mut restarts) = match resume {
        Some((iteration, restarts, nr2, initial_nr2, weights, residual, direction)) => {
            let w = backend.try_from_host("w", &weights)?;
            let r = backend.try_from_host("r", &residual)?;
            let p = backend.try_from_host("p", &direction)?;
            if let Some(h) = ckpt {
                h.note_resume(iteration);
            }
            (w, r, p, nr2, initial_nr2, iteration, restarts)
        }
        None => {
            // r = -(t(V) %*% y)
            let mut r = backend.try_zeros("r", n)?;
            backend.try_tmv(-1.0, &y, &mut r)?;

            // p = -r
            let mut p = backend.try_zeros("p", n)?;
            backend.try_copy(&r, &mut p)?;
            backend.try_scal(-1.0, &mut p)?;

            // nr2 = sum(r * r)
            let nr2 = backend.try_nrm2_sq(&r)?;
            if !nr2.is_finite() {
                return Err(SolverError::breakdown(
                    SOLVER,
                    0,
                    format!("initial residual norm^2 is {nr2}"),
                ));
            }
            let w = backend.try_zeros("w", n)?;
            (w, r, p, nr2, nr2, 0, 0)
        }
    };
    let nr2_target = initial_nr2 * opts.tolerance * opts.tolerance;
    let mut q = backend.try_zeros("q", n)?;

    // Rebuild the CG state from the current iterate: r = X^T(Xw) + eps w
    // - X^T y, p = -r. Used after a non-finite value is detected; bails
    // out when the iterate itself is already contaminated.
    macro_rules! restart_or_bail {
        ($detail:expr) => {{
            restarts += 1;
            if restarts > MAX_RESTARTS {
                return Err(SolverError::breakdown(SOLVER, i, $detail));
            }
            backend.try_pattern(
                PatternSpec::xtxy_plus_bz(opts.eps),
                None,
                &w,
                Some(&w),
                &mut q,
            )?;
            backend.try_tmv(-1.0, &y, &mut r)?;
            backend.try_axpy(1.0, &q, &mut r)?;
            backend.try_copy(&r, &mut p)?;
            backend.try_scal(-1.0, &mut p)?;
            nr2 = backend.try_nrm2_sq(&r)?;
            if !nr2.is_finite() {
                // The iterate is contaminated; a restart cannot recover.
                return Err(SolverError::breakdown(
                    SOLVER,
                    i,
                    format!("residual norm^2 is {nr2} after restart"),
                ));
            }
            continue;
        }};
    }

    while i < opts.max_iterations && nr2 > nr2_target {
        let mut span = fusedml_trace::wall_span("solver", "lr_cg.iter", "host");
        span.arg("iter", i);
        span.arg("nr2", nr2);

        // q = (t(V) %*% (V %*% p)) + eps * p  -- THE pattern.
        backend.try_pattern(
            PatternSpec::xtxy_plus_bz(opts.eps),
            None,
            &p,
            Some(&p),
            &mut q,
        )?;

        // alpha = nr2 / (t(p) %*% q)
        let pq = backend.try_dot(&p, &q)?;
        if !pq.is_finite() {
            restart_or_bail!(format!("curvature p.q is {pq}"));
        }
        if pq <= 0.0 {
            break; // numerically exhausted search direction
        }
        let alpha = nr2 / pq;

        // w = w + alpha * p
        backend.try_axpy(alpha, &p, &mut w)?;
        // r = r + alpha * q
        backend.try_axpy(alpha, &q, &mut r)?;
        let old_nr2 = nr2;
        nr2 = backend.try_nrm2_sq(&r)?;
        if !nr2.is_finite() {
            restart_or_bail!(format!("residual norm^2 is {nr2}"));
        }
        let beta = nr2 / old_nr2;
        // p = -r + beta * p
        backend.try_scal(beta, &mut p)?;
        backend.try_axpy(-1.0, &r, &mut p)?;
        i += 1;

        if let Some(h) = ckpt {
            if h.due(i) {
                h.save(SolverCheckpoint::LrCg {
                    iteration: i,
                    restarts,
                    nr2,
                    initial_nr2,
                    weights: backend.to_host(&w),
                    residual: backend.to_host(&r),
                    direction: backend.to_host(&p),
                });
            }
        }
    }

    Ok(LrCgResult {
        weights: backend.to_host(&w),
        iterations: i,
        final_nr2: nr2,
        initial_nr2,
        restarts,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{BaselineBackend, CpuBackend, FusedBackend};
    use fusedml_gpu_sim::{DeviceSpec, Gpu};
    use fusedml_matrix::gen::{random_vector, uniform_sparse};
    use fusedml_matrix::reference;

    fn gpu() -> Gpu {
        Gpu::with_host_threads(DeviceSpec::gtx_titan(), 1)
    }

    /// Labels generated from known weights: CG must recover them.
    fn synthetic_problem(
        m: usize,
        n: usize,
        seed: u64,
    ) -> (fusedml_matrix::CsrMatrix, Vec<f64>, Vec<f64>) {
        let x = uniform_sparse(m, n, 0.2, seed);
        let w_true = random_vector(n, seed + 1);
        let labels = reference::csr_mv(&x, &w_true);
        (x, w_true, labels)
    }

    #[test]
    fn recovers_true_weights_on_cpu() {
        let (x, w_true, labels) = synthetic_problem(300, 40, 101);
        let mut cpu = CpuBackend::new_sparse(x);
        let res = try_lr_cg(
            &mut cpu,
            &labels,
            LrCgOptions {
                eps: 0.0,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(res.iterations > 0);
        assert!(
            reference::rel_l2_error(&res.weights, &w_true) < 1e-4,
            "iter {} err {}",
            res.iterations,
            reference::rel_l2_error(&res.weights, &w_true)
        );
    }

    #[test]
    fn fused_and_baseline_agree_with_cpu() {
        let g = gpu();
        let (x, _, labels) = synthetic_problem(200, 30, 102);
        let opts = LrCgOptions {
            max_iterations: 20,
            ..Default::default()
        };

        let mut cpu = CpuBackend::new_sparse(x.clone());
        let r_cpu = try_lr_cg(&mut cpu, &labels, opts).unwrap();

        let mut fused = FusedBackend::try_new_sparse(&g, &x).unwrap();
        let r_fused = try_lr_cg(&mut fused, &labels, opts).unwrap();

        let mut base = BaselineBackend::try_new_sparse(&g, &x).unwrap();
        let r_base = try_lr_cg(&mut base, &labels, opts).unwrap();

        assert_eq!(r_cpu.iterations, r_fused.iterations);
        assert_eq!(r_cpu.iterations, r_base.iterations);
        assert!(reference::rel_l2_error(&r_fused.weights, &r_cpu.weights) < 1e-8);
        assert!(reference::rel_l2_error(&r_base.weights, &r_cpu.weights) < 1e-8);
    }

    #[test]
    fn residual_decreases() {
        let (x, _, labels) = synthetic_problem(250, 50, 103);
        let mut cpu = CpuBackend::new_sparse(x);
        let res = try_lr_cg(&mut cpu, &labels, LrCgOptions::default()).unwrap();
        assert!(res.final_nr2 < res.initial_nr2 * 1e-6);
    }

    #[test]
    fn pattern_instrumentation_matches_iterations() {
        let g = gpu();
        let (x, _, labels) = synthetic_problem(120, 25, 104);
        let mut fused = FusedBackend::try_new_sparse(&g, &x).unwrap();
        let opts = LrCgOptions {
            max_iterations: 7,
            tolerance: 0.0,
            ..Default::default()
        };
        let res = try_lr_cg(&mut fused, &labels, opts).unwrap();
        assert_eq!(res.iterations, 7);
        let stats = fused.stats();
        // One X^T y at init, one XtXy+bz per iteration.
        assert_eq!(stats.pattern_counts["a * X^T x y"], 1);
        assert_eq!(stats.pattern_counts["X^T x (X x y) + b * z"], 7);
    }

    #[test]
    fn checkpoint_resume_is_bit_identical_to_uninterrupted_run() {
        use crate::checkpoint::CheckpointHandle;
        let (x, _, labels) = synthetic_problem(220, 35, 107);
        let opts = LrCgOptions {
            max_iterations: 10,
            tolerance: 0.0,
            ..Default::default()
        };

        let mut cpu = CpuBackend::new_sparse(x.clone());
        let full = try_lr_cg(&mut cpu, &labels, opts).unwrap();

        // Run 4 iterations with snapshots every 2, as if a fault killed
        // the run, then resume on a *fresh* backend for the remainder.
        let h = CheckpointHandle::new(2);
        let mut first = CpuBackend::new_sparse(x.clone());
        let partial = try_lr_cg_ckpt(
            &mut first,
            &labels,
            LrCgOptions {
                max_iterations: 4,
                ..opts
            },
            Some(&h),
        )
        .expect("partial run");
        assert_eq!(partial.iterations, 4);
        assert_eq!(h.saves(), 2);
        assert_eq!(h.latest().map(|c| c.iteration()), Some(4));

        let mut second = CpuBackend::new_sparse(x);
        let resumed = try_lr_cg_ckpt(&mut second, &labels, opts, Some(&h)).expect("resumed run");
        assert_eq!(h.last_resume(), Some(4));
        assert_eq!(resumed.iterations, full.iterations);
        assert_eq!(
            resumed.weights, full.weights,
            "resume must not perturb numerics"
        );
        assert_eq!(resumed.final_nr2, full.final_nr2);
        assert_eq!(resumed.initial_nr2, full.initial_nr2);
    }

    #[test]
    fn checkpoint_handle_none_matches_plain_try_run() {
        let g = gpu();
        let (x, _, labels) = synthetic_problem(150, 20, 108);
        let opts = LrCgOptions {
            max_iterations: 8,
            ..Default::default()
        };
        let mut a = FusedBackend::try_new_sparse(&g, &x).unwrap();
        let plain = try_lr_cg(&mut a, &labels, opts).expect("plain");
        let stats_a = a.stats();
        let mut b = FusedBackend::try_new_sparse(&g, &x).unwrap();
        let with_none = try_lr_cg_ckpt(&mut b, &labels, opts, None).expect("ckpt none");
        assert_eq!(plain, with_none);
        assert_eq!(stats_a.launches, b.stats().launches, "no extra device work");
    }

    #[test]
    fn dense_backend_works_too() {
        let g = gpu();
        let x = fusedml_matrix::gen::dense_random(150, 28, 105);
        let w_true = random_vector(28, 106);
        let labels = reference::dense_mv(&x, &w_true);
        let mut fused = FusedBackend::try_new_dense(&g, &x).unwrap();
        let res = try_lr_cg(
            &mut fused,
            &labels,
            LrCgOptions {
                eps: 0.0,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(reference::rel_l2_error(&res.weights, &w_true) < 1e-4);
    }
}
