//! L2-SVM trained in the primal by Newton's method (Chapelle \[9\], the
//! paper's SVM reference).
//!
//! The squared hinge loss `max(0, 1 - y_i x_i.w)^2` has a piecewise
//! Hessian `H = lambda I + 2 X^T diag(I_sv) X` where `I_sv` marks the
//! violating ("support") rows. The Hessian-vector product inside CG is
//! `X^T (I_sv ⊙ (X s)) + beta s` — again the generic pattern with `v` an
//! indicator vector (Table 1's SVM row).

use crate::checkpoint::{CheckpointHandle, SolverCheckpoint};
use crate::error::SolverError;
use crate::ops::Backend;
use fusedml_core::PatternSpec;

#[derive(Debug, Clone, PartialEq)]
pub struct SvmResult {
    pub weights: Vec<f64>,
    pub iterations: usize,
    pub cg_iterations: usize,
    pub objective: f64,
    /// Number of margin-violating rows at the solution.
    pub support_vectors: usize,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SvmOptions {
    pub lambda: f64,
    pub max_outer: usize,
    pub max_inner_cg: usize,
    pub grad_tol: f64,
}

impl Default for SvmOptions {
    fn default() -> Self {
        SvmOptions {
            lambda: 1e-2,
            max_outer: 25,
            max_inner_cg: 25,
            grad_tol: 1e-10,
        }
    }
}

/// Train a binary L2-SVM with labels in `{-1, +1}`. Device faults
/// propagate as [`SolverError::Device`]; a non-finite objective, gradient norm, or CG
/// curvature (e.g. after silent corruption of the iterate) aborts with
/// [`SolverError::NumericalBreakdown`].
pub fn try_svm<B: Backend>(
    backend: &mut B,
    labels: &[f64],
    opts: SvmOptions,
) -> Result<SvmResult, SolverError> {
    try_svm_ckpt(backend, labels, opts, None)
}

/// [`try_svm`] with checkpoint/resume: each outer Newton pass recomputes
/// margins, violators and the objective from the iterate, so the snapshot
/// is the weights plus outer-loop counters. With `ckpt` `None` the device
/// work is identical to [`try_svm`].
pub fn try_svm_ckpt<B: Backend>(
    backend: &mut B,
    labels: &[f64],
    opts: SvmOptions,
    ckpt: Option<&CheckpointHandle>,
) -> Result<SvmResult, SolverError> {
    const SOLVER: &str = "svm";

    let m = backend.rows();
    let n = backend.cols();
    assert_eq!(labels.len(), m);

    let resume = ckpt.and_then(|h| h.latest()).and_then(|c| match c {
        SolverCheckpoint::Svm {
            outer,
            cg_iterations,
            weights,
        } if weights.len() == n => Some((outer, cg_iterations, weights)),
        _ => None,
    });

    let y = backend.try_from_host("labels", labels)?;
    let (mut w, mut outer, mut cg_total) = match resume {
        Some((outer, cg_iterations, weights)) => {
            let w = backend.try_from_host("w", &weights)?;
            if let Some(h) = ckpt {
                h.note_resume(outer);
            }
            (w, outer, cg_iterations)
        }
        None => (backend.try_zeros("w", n)?, 0, 0),
    };
    let mut margins = backend.try_zeros("margins", m)?;
    let mut viol = backend.try_zeros("viol", m)?; // y_i margin_i - 1 clipped
    let mut ind = backend.try_zeros("ind", m)?; // support indicator
    let mut grad = backend.try_zeros("grad", n)?;
    let mut objective = f64::INFINITY;
    let mut support = 0usize;

    while outer < opts.max_outer {
        let mut span = fusedml_trace::wall_span("solver", "svm.outer", "host");
        span.arg("outer", outer);
        backend.try_mv(&w, &mut margins)?;
        // viol_i = y_i * margin_i - 1 where negative (violators), else 0.
        backend.try_map2(&margins, &y, &mut viol, &|t, yi| (yi * t - 1.0).min(0.0))?;
        // ind_i = 1 when violating.
        backend.try_map2(&viol, &viol, &mut ind, &|v, _| {
            if v < 0.0 {
                1.0
            } else {
                0.0
            }
        })?;

        let viol_host = backend.to_host(&viol);
        support = viol_host.iter().filter(|&&v| v < 0.0).count();
        let loss: f64 = viol_host.iter().map(|v| v * v).sum();
        let wn2 = backend.try_nrm2_sq(&w)?;
        objective = 0.5 * opts.lambda * wn2 + loss;
        if !objective.is_finite() {
            return Err(SolverError::breakdown(
                SOLVER,
                outer,
                format!("objective is {objective}"),
            ));
        }
        span.arg("objective", objective);
        span.arg("support", support);

        // grad = lambda w + 2 X^T (ind ⊙ viol ⊙ y)
        // d_i = 2 * viol_i * y_i (viol already zero on non-violators)
        let mut dvec = backend.try_zeros("d", m)?;
        backend.try_map2(&viol, &y, &mut dvec, &|v, yi| 2.0 * v * yi)?;
        backend.try_tmv(1.0, &dvec, &mut grad)?;
        backend.try_axpy(opts.lambda, &w, &mut grad)?;
        let gn2 = backend.try_nrm2_sq(&grad)?;
        if !gn2.is_finite() {
            return Err(SolverError::breakdown(
                SOLVER,
                outer,
                format!("gradient norm^2 is {gn2}"),
            ));
        }
        if gn2 <= opts.grad_tol {
            break;
        }

        // CG on (lambda I + 2 X^T diag(ind) X) s = -grad.
        let mut s = backend.try_zeros("cg.s", n)?;
        let mut r = backend.try_zeros("cg.r", n)?;
        backend.try_copy(&grad, &mut r)?;
        backend.try_scal(-1.0, &mut r)?;
        let mut p = backend.try_zeros("cg.p", n)?;
        backend.try_copy(&r, &mut p)?;
        let mut rs = backend.try_nrm2_sq(&r)?;
        let rs0 = rs;
        let mut hp = backend.try_zeros("cg.hp", n)?;
        let mut two_ind = backend.try_zeros("2ind", m)?;
        backend.try_map2(&ind, &ind, &mut two_ind, &|i, _| 2.0 * i)?;
        for _ in 0..opts.max_inner_cg {
            if rs <= 1e-6 * rs0 {
                break;
            }
            // hp = X^T ((2 ind) ⊙ (X p)) + lambda p — the generic pattern.
            backend.try_pattern(
                PatternSpec::full(1.0, opts.lambda),
                Some(&two_ind),
                &p,
                Some(&p),
                &mut hp,
            )?;
            let php = backend.try_dot(&p, &hp)?;
            if !php.is_finite() {
                return Err(SolverError::breakdown(
                    SOLVER,
                    outer,
                    format!("CG curvature p.Hp is {php}"),
                ));
            }
            if php <= 0.0 {
                break;
            }
            let alpha = rs / php;
            backend.try_axpy(alpha, &p, &mut s)?;
            backend.try_axpy(-alpha, &hp, &mut r)?;
            let rs_new = backend.try_nrm2_sq(&r)?;
            let beta = rs_new / rs;
            rs = rs_new;
            backend.try_scal(beta, &mut p)?;
            backend.try_axpy(1.0, &r, &mut p)?;
            cg_total += 1;
        }

        // Backtracking line search on the primal objective.
        let mut step = 1.0;
        let mut accepted = false;
        for _ in 0..10 {
            let mut w_try = backend.try_zeros("w.try", n)?;
            backend.try_copy(&w, &mut w_try)?;
            backend.try_axpy(step, &s, &mut w_try)?;
            backend.try_mv(&w_try, &mut margins)?;
            backend.try_map2(&margins, &y, &mut viol, &|t, yi| (yi * t - 1.0).min(0.0))?;
            let loss: f64 = backend.to_host(&viol).iter().map(|v| v * v).sum();
            let wn2 = backend.try_nrm2_sq(&w_try)?;
            let obj_try = 0.5 * opts.lambda * wn2 + loss;
            if obj_try < objective - 1e-12 {
                backend.try_copy(&w_try, &mut w)?;
                objective = obj_try;
                accepted = true;
                break;
            }
            step *= 0.5;
        }
        outer += 1;
        if let Some(h) = ckpt {
            if h.due(outer) {
                h.save(SolverCheckpoint::Svm {
                    outer,
                    cg_iterations: cg_total,
                    weights: backend.to_host(&w),
                });
            }
        }
        if !accepted {
            break;
        }
    }

    Ok(SvmResult {
        weights: backend.to_host(&w),
        iterations: outer,
        cg_iterations: cg_total,
        objective,
        support_vectors: support,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{CpuBackend, FusedBackend};
    use fusedml_gpu_sim::{DeviceSpec, Gpu};
    use fusedml_matrix::gen::{random_vector, uniform_sparse};
    use fusedml_matrix::reference;

    fn problem(m: usize, n: usize, seed: u64) -> (fusedml_matrix::CsrMatrix, Vec<f64>) {
        let x = uniform_sparse(m, n, 0.3, seed);
        let w_true = random_vector(n, seed + 5);
        let labels: Vec<f64> = reference::csr_mv(&x, &w_true)
            .iter()
            .map(|&s| if s >= 0.0 { 1.0 } else { -1.0 })
            .collect();
        (x, labels)
    }

    #[test]
    fn separates_separable_data() {
        let (x, labels) = problem(300, 25, 121);
        let mut cpu = CpuBackend::new_sparse(x.clone());
        let res = try_svm(&mut cpu, &labels, SvmOptions::default()).unwrap();
        let scores = reference::csr_mv(&x, &res.weights);
        let acc = scores
            .iter()
            .zip(&labels)
            .filter(|(s, l)| (s.signum() - **l).abs() < 0.5)
            .count() as f64
            / labels.len() as f64;
        assert!(acc > 0.95, "accuracy {acc}");
        assert!(res.support_vectors < labels.len());
        assert!(res.objective.is_finite());
    }

    #[test]
    fn fused_matches_cpu() {
        let g = Gpu::with_host_threads(DeviceSpec::gtx_titan(), 1);
        let (x, labels) = problem(150, 15, 122);
        let opts = SvmOptions {
            max_outer: 4,
            ..Default::default()
        };
        let mut cpu = CpuBackend::new_sparse(x.clone());
        let r_cpu = try_svm(&mut cpu, &labels, opts).unwrap();
        let mut fused = FusedBackend::try_new_sparse(&g, &x).unwrap();
        let r_fused = try_svm(&mut fused, &labels, opts).unwrap();
        assert!(reference::rel_l2_error(&r_fused.weights, &r_cpu.weights) < 1e-6);
    }

    #[test]
    fn nan_labels_are_a_typed_breakdown_not_a_nan_result() {
        let (x, mut labels) = problem(120, 10, 124);
        for i in [3, 7, 11, 42] {
            labels[i] = f64::NAN;
        }
        let mut cpu = CpuBackend::new_sparse(x);
        let err = try_svm(&mut cpu, &labels, SvmOptions::default())
            .expect_err("NaN label must not converge silently");
        assert_eq!(err.kind(), "numerical-breakdown");
        assert!(!err.is_transient());
    }

    #[test]
    fn checkpoint_resume_matches_uninterrupted_run() {
        use crate::checkpoint::CheckpointHandle;
        let (x, labels) = problem(200, 18, 125);
        let opts = SvmOptions {
            max_outer: 6,
            ..Default::default()
        };
        let mut cpu = CpuBackend::new_sparse(x.clone());
        let full = try_svm(&mut cpu, &labels, opts).unwrap();

        let h = CheckpointHandle::new(2);
        let mut first = CpuBackend::new_sparse(x.clone());
        let partial = try_svm_ckpt(
            &mut first,
            &labels,
            SvmOptions {
                max_outer: 2,
                ..opts
            },
            Some(&h),
        )
        .expect("partial");
        assert!(partial.iterations >= 1);
        let mut second = CpuBackend::new_sparse(x);
        let resumed = try_svm_ckpt(&mut second, &labels, opts, Some(&h)).expect("resumed");
        assert!(h.last_resume().is_some());
        assert_eq!(resumed.iterations, full.iterations);
        assert_eq!(resumed.weights, full.weights);
        assert_eq!(resumed.objective, full.objective);
    }

    #[test]
    fn objective_improves_with_more_iterations() {
        let (x, labels) = problem(200, 20, 123);
        let mut a = CpuBackend::new_sparse(x.clone());
        let short = try_svm(
            &mut a,
            &labels,
            SvmOptions {
                max_outer: 1,
                ..Default::default()
            },
        )
        .unwrap();
        let mut b = CpuBackend::new_sparse(x);
        let long = try_svm(
            &mut b,
            &labels,
            SvmOptions {
                max_outer: 8,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(long.objective <= short.objective + 1e-9);
    }
}
