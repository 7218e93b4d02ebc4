//! Binomial logistic regression via a trust-region Newton method
//! (Lin, Weng & Keerthi \[24\] — the algorithm the paper cites for LogReg).
//!
//! The Hessian-vector product at the heart of the inner CG solve is
//! `H s = X^T (D ⊙ (X s)) + lambda s` with `D[i] = sigma_i (1 - sigma_i)`
//! — exactly the *full* instantiation of the generic pattern,
//! `X^T (v ⊙ (X y)) + beta z`, which is why Table 1 marks LogReg in the
//! `v`-carrying rows.

use crate::checkpoint::{CheckpointHandle, SolverCheckpoint};
use crate::error::SolverError;
use crate::ops::Backend;
use fusedml_core::PatternSpec;

#[derive(Debug, Clone, PartialEq)]
pub struct LogRegResult {
    pub weights: Vec<f64>,
    /// Outer Newton iterations.
    pub iterations: usize,
    /// Total inner CG iterations.
    pub cg_iterations: usize,
    /// Final objective value.
    pub objective: f64,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogRegOptions {
    /// L2 regularization strength.
    pub lambda: f64,
    pub max_outer: usize,
    pub max_inner_cg: usize,
    /// Gradient-norm stopping threshold.
    pub grad_tol: f64,
}

impl Default for LogRegOptions {
    fn default() -> Self {
        LogRegOptions {
            lambda: 1e-3,
            max_outer: 30,
            max_inner_cg: 25,
            grad_tol: 1e-8,
        }
    }
}

fn sigmoid(t: f64) -> f64 {
    if t >= 0.0 {
        1.0 / (1.0 + (-t).exp())
    } else {
        let e = t.exp();
        e / (1.0 + e)
    }
}

/// Train binomial logistic regression with labels in `{-1, +1}`. Device
/// faults propagate as [`SolverError::Device`]; a non-finite objective, gradient norm, or CG
/// curvature aborts with [`SolverError::NumericalBreakdown`]. The
/// `max_outer`/`max_inner_cg` caps bound the work done before either
/// outcome.
pub fn try_logreg<B: Backend>(
    backend: &mut B,
    labels: &[f64],
    opts: LogRegOptions,
) -> Result<LogRegResult, SolverError> {
    try_logreg_ckpt(backend, labels, opts, None)
}

/// [`try_logreg`] with checkpoint/resume: each outer Newton pass
/// recomputes margins, sigmoids and objective from the iterate, so the
/// snapshot is the weights plus outer-loop counters. With `ckpt` `None`
/// the device work is identical to [`try_logreg`].
pub fn try_logreg_ckpt<B: Backend>(
    backend: &mut B,
    labels: &[f64],
    opts: LogRegOptions,
    ckpt: Option<&CheckpointHandle>,
) -> Result<LogRegResult, SolverError> {
    const SOLVER: &str = "logreg";

    let m = backend.rows();
    let n = backend.cols();
    assert_eq!(labels.len(), m);
    assert!(labels.iter().all(|&l| l == 1.0 || l == -1.0));

    let resume = ckpt.and_then(|h| h.latest()).and_then(|c| match c {
        SolverCheckpoint::LogReg {
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
        None => (backend.try_zeros("w", n)?, 0usize, 0usize),
    };
    let mut margins = backend.try_zeros("margins", m)?;
    let mut sig = backend.try_zeros("sig", m)?;
    let mut d = backend.try_zeros("d", m)?;
    let mut grad = backend.try_zeros("grad", n)?;
    let mut objective = f64::INFINITY;

    while outer < opts.max_outer {
        let mut span = fusedml_trace::wall_span("solver", "logreg.outer", "host");
        span.arg("outer", outer);
        // margins = X w ; sig_i = sigma(y_i * margin_i)
        backend.try_mv(&w, &mut margins)?;
        backend.try_map2(&margins, &y, &mut sig, &|t, yi| sigmoid(yi * t))?;

        // objective = sum log(1 + exp(-y t)) + lambda/2 ||w||^2
        // (downloaded once per outer iteration for the stopping report;
        // a real system would reduce on device — cost equivalent to a dot.)
        let sig_host = backend.to_host(&sig);
        let obj_loss: f64 = sig_host.iter().map(|&s| -(s.max(1e-300)).ln()).sum();
        let wn2 = backend.try_nrm2_sq(&w)?;
        objective = obj_loss + 0.5 * opts.lambda * wn2;
        if !objective.is_finite() {
            return Err(SolverError::breakdown(
                SOLVER,
                outer,
                format!("objective is {objective}"),
            ));
        }

        span.arg("objective", objective);

        // grad = X^T ((sig - 1) .* y) + lambda w
        backend.try_map2(&sig, &y, &mut d, &|s, yi| (s - 1.0) * yi)?;
        backend.try_tmv(1.0, &d, &mut grad)?;
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

        // D = sig (1 - sig): the CG weight vector v.
        backend.try_map2(&sig, &sig, &mut d, &|s, _| s * (1.0 - s))?;

        // Inner CG on  H s = -grad,  H s = X^T (D ⊙ (X s)) + lambda s.
        let mut s = backend.try_zeros("cg.s", n)?;
        let mut r = backend.try_zeros("cg.r", n)?;
        backend.try_copy(&grad, &mut r)?;
        backend.try_scal(-1.0, &mut r)?; // r = -grad (residual of s = 0)
        let mut p = backend.try_zeros("cg.p", n)?;
        backend.try_copy(&r, &mut p)?;
        let mut rs = backend.try_nrm2_sq(&r)?;
        let rs0 = rs;
        let mut hp = backend.try_zeros("cg.hp", n)?;
        for _ in 0..opts.max_inner_cg {
            if rs <= 1e-4 * rs0 {
                break;
            }
            // hp = X^T (D ⊙ (X p)) + lambda p -- the FULL pattern.
            backend.try_pattern(
                PatternSpec::full(1.0, opts.lambda),
                Some(&d),
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

        // Damped Newton step with simple backtracking on the objective.
        let mut step = 1.0;
        let mut accepted = false;
        for _ in 0..8 {
            let mut w_try = backend.try_zeros("w.try", n)?;
            backend.try_copy(&w, &mut w_try)?;
            backend.try_axpy(step, &s, &mut w_try)?;
            backend.try_mv(&w_try, &mut margins)?;
            backend.try_map2(&margins, &y, &mut sig, &|t, yi| sigmoid(yi * t))?;
            let loss: f64 = backend
                .to_host(&sig)
                .iter()
                .map(|&s| -(s.max(1e-300)).ln())
                .sum();
            let wn2 = backend.try_nrm2_sq(&w_try)?;
            let obj_try = loss + 0.5 * opts.lambda * wn2;
            if obj_try < objective {
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
                h.save(SolverCheckpoint::LogReg {
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

    Ok(LogRegResult {
        weights: backend.to_host(&w),
        iterations: outer,
        cg_iterations: cg_total,
        objective,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{CpuBackend, FusedBackend};
    use fusedml_gpu_sim::{DeviceSpec, Gpu};
    use fusedml_matrix::gen::{random_vector, uniform_sparse};
    use fusedml_matrix::reference;

    /// Separable-ish data: labels from the sign of a noiseless linear score.
    fn problem(m: usize, n: usize, seed: u64) -> (fusedml_matrix::CsrMatrix, Vec<f64>) {
        let x = uniform_sparse(m, n, 0.25, seed);
        let w_true = random_vector(n, seed + 9);
        let labels: Vec<f64> = reference::csr_mv(&x, &w_true)
            .iter()
            .map(|&s| if s >= 0.0 { 1.0 } else { -1.0 })
            .collect();
        (x, labels)
    }

    fn accuracy(x: &fusedml_matrix::CsrMatrix, w: &[f64], labels: &[f64]) -> f64 {
        let scores = reference::csr_mv(x, w);
        let correct = scores
            .iter()
            .zip(labels)
            .filter(|(s, l)| (s.signum() - **l).abs() < 0.5)
            .count();
        correct as f64 / labels.len() as f64
    }

    #[test]
    fn learns_separable_data() {
        let (x, labels) = problem(400, 30, 111);
        let mut cpu = CpuBackend::new_sparse(x.clone());
        let res = try_logreg(&mut cpu, &labels, LogRegOptions::default()).unwrap();
        assert!(res.iterations > 0);
        let acc = accuracy(&x, &res.weights, &labels);
        assert!(acc > 0.95, "accuracy {acc}");
        assert!(res.objective.is_finite());
    }

    #[test]
    fn fused_backend_matches_cpu() {
        let g = Gpu::with_host_threads(DeviceSpec::gtx_titan(), 1);
        let (x, labels) = problem(200, 20, 112);
        let opts = LogRegOptions {
            max_outer: 5,
            ..Default::default()
        };
        let mut cpu = CpuBackend::new_sparse(x.clone());
        let r_cpu = try_logreg(&mut cpu, &labels, opts).unwrap();
        let mut fused = FusedBackend::try_new_sparse(&g, &x).unwrap();
        let r_fused = try_logreg(&mut fused, &labels, opts).unwrap();
        assert!(
            reference::rel_l2_error(&r_fused.weights, &r_cpu.weights) < 1e-6,
            "err {}",
            reference::rel_l2_error(&r_fused.weights, &r_cpu.weights)
        );
        // LogReg exercises the v-carrying full pattern (Table 1).
        let counts = fused.stats().pattern_counts;
        assert!(counts["X^T x (v . (X x y)) + b * z"] >= 1);
    }

    #[test]
    fn objective_decreases_monotonically_enough() {
        let (x, labels) = problem(300, 25, 113);
        let mut cpu = CpuBackend::new_sparse(x);
        let short = try_logreg(
            &mut cpu,
            &labels,
            LogRegOptions {
                max_outer: 2,
                ..Default::default()
            },
        )
        .unwrap();
        let mut cpu2 = CpuBackend::new_sparse(
            // rebuild: backend consumed the matrix
            problem(300, 25, 113).0,
        );
        let long = try_logreg(
            &mut cpu2,
            &labels,
            LogRegOptions {
                max_outer: 10,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(long.objective <= short.objective + 1e-9);
    }
}

// ---------------------------------------------------------------------
// TRON: the trust-region Newton method of Lin, Weng & Keerthi [24] — the
// paper's citation for LogReg. Unlike the damped-Newton `logreg` above,
// the inner CG is Steihaug-truncated at the trust-region boundary and the
// radius adapts from the actual-vs-predicted reduction ratio.
// ---------------------------------------------------------------------

/// Result of a TRON run.
#[derive(Debug, Clone, PartialEq)]
pub struct TronResult {
    pub weights: Vec<f64>,
    pub iterations: usize,
    pub cg_iterations: usize,
    pub objective: f64,
    /// Final trust-region radius.
    pub radius: f64,
    /// Steps rejected by the ratio test.
    pub rejected_steps: usize,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TronOptions {
    pub lambda: f64,
    pub max_outer: usize,
    pub max_inner_cg: usize,
    pub grad_tol: f64,
    /// Initial trust-region radius (TRON uses ||g||).
    pub initial_radius: Option<f64>,
}

impl Default for TronOptions {
    fn default() -> Self {
        TronOptions {
            lambda: 1e-3,
            max_outer: 50,
            max_inner_cg: 30,
            grad_tol: 1e-8,
            initial_radius: None,
        }
    }
}

// TRON's published constants (Lin-Weng-Keerthi, Alg. 1).
const ETA0: f64 = 1e-4;
const ETA1: f64 = 0.25;
const ETA2: f64 = 0.75;
const SIGMA1: f64 = 0.25;
const SIGMA2: f64 = 0.5;
const SIGMA3: f64 = 4.0;

/// Train binomial logistic regression with TRON. Labels in `{-1, +1}`.
/// Device faults propagate as [`SolverError::Device`]; a non-finite objective or gradient norm
/// aborts with [`SolverError::NumericalBreakdown`].
pub fn try_logreg_tron<B: Backend>(
    backend: &mut B,
    labels: &[f64],
    opts: TronOptions,
) -> Result<TronResult, SolverError> {
    try_logreg_tron_ckpt(backend, labels, opts, None)
}

/// [`try_logreg_tron`] with checkpoint/resume. The snapshot carries the
/// adaptive trust-region radius alongside the iterate and counters so a
/// resumed run does not restart region adaptation from `||g||`. With
/// `ckpt` `None` the device work is identical to [`try_logreg_tron`].
pub fn try_logreg_tron_ckpt<B: Backend>(
    backend: &mut B,
    labels: &[f64],
    opts: TronOptions,
    ckpt: Option<&CheckpointHandle>,
) -> Result<TronResult, SolverError> {
    const SOLVER: &str = "logreg_tron";

    let m = backend.rows();
    let n = backend.cols();
    assert_eq!(labels.len(), m);

    let resume = ckpt.and_then(|h| h.latest()).and_then(|c| match c {
        SolverCheckpoint::Tron {
            outer,
            cg_iterations,
            rejected,
            radius,
            weights,
        } if weights.len() == n && radius.is_finite() && radius > 0.0 => {
            Some((outer, cg_iterations, rejected, radius, weights))
        }
        _ => None,
    });

    let y = backend.try_from_host("labels", labels)?;
    let (mut w, mut outer, mut cg_total, mut rejected, mut radius, resumed) = match resume {
        Some((outer, cg_iterations, rejected, radius, weights)) => {
            let w = backend.try_from_host("w", &weights)?;
            if let Some(h) = ckpt {
                h.note_resume(outer);
            }
            (w, outer, cg_iterations, rejected, radius, true)
        }
        None => (
            backend.try_zeros("w", n)?,
            0usize,
            0usize,
            0usize,
            0.0f64,
            false,
        ),
    };
    let mut margins = backend.try_zeros("margins", m)?;
    let mut sig = backend.try_zeros("sig", m)?;
    let mut d = backend.try_zeros("d", m)?;
    let mut grad = backend.try_zeros("grad", n)?;

    // f(w), sigma(y * Xw) and the objective at the current iterate.
    macro_rules! objective_at {
        ($wv:expr) => {{
            backend.try_mv($wv, &mut margins)?;
            backend.try_map2(&margins, &y, &mut sig, &|t, yi| sigmoid(yi * t))?;
            let loss: f64 = backend
                .to_host(&sig)
                .iter()
                .map(|&s| -(s.max(1e-300)).ln())
                .sum();
            let wn2 = backend.try_nrm2_sq($wv)?;
            loss + 0.5 * opts.lambda * wn2
        }};
    }

    let mut objective = objective_at!(&w);
    if !objective.is_finite() {
        return Err(SolverError::breakdown(
            SOLVER,
            outer,
            format!("objective is {objective}"),
        ));
    }

    while outer < opts.max_outer {
        let mut span = fusedml_trace::wall_span("solver", "logreg_tron.outer", "host");
        span.arg("outer", outer);
        span.arg("objective", objective);
        // Gradient at w (sig is current from the last objective eval).
        backend.try_map2(&sig, &y, &mut d, &|s, yi| (s - 1.0) * yi)?;
        backend.try_tmv(1.0, &d, &mut grad)?;
        backend.try_axpy(opts.lambda, &w, &mut grad)?;
        let gn = backend.try_nrm2_sq(&grad)?.sqrt();
        if !gn.is_finite() {
            return Err(SolverError::breakdown(
                SOLVER,
                outer,
                format!("gradient norm is {gn}"),
            ));
        }
        if gn * gn <= opts.grad_tol {
            break;
        }
        if outer == 0 && !resumed {
            radius = opts.initial_radius.unwrap_or(gn);
        }

        // Hessian weights D = sig (1 - sig).
        backend.try_map2(&sig, &sig, &mut d, &|s, _| s * (1.0 - s))?;

        // --- CG-Steihaug: minimize q(s) within ||s|| <= radius ---
        let mut s = backend.try_zeros("tron.s", n)?;
        let mut r = backend.try_zeros("tron.r", n)?;
        backend.try_copy(&grad, &mut r)?;
        backend.try_scal(-1.0, &mut r)?;
        let mut p = backend.try_zeros("tron.p", n)?;
        backend.try_copy(&r, &mut p)?;
        let mut rs = backend.try_nrm2_sq(&r)?;
        let rs0 = rs;
        let mut hp = backend.try_zeros("tron.hp", n)?;
        let mut hit_boundary = false;
        for _ in 0..opts.max_inner_cg {
            if rs <= 1e-6 * rs0 {
                break;
            }
            backend.try_pattern(
                PatternSpec::full(1.0, opts.lambda),
                Some(&d),
                &p,
                Some(&p),
                &mut hp,
            )?;
            cg_total += 1;
            let php = backend.try_dot(&p, &hp)?;
            if php <= 0.0 {
                // Negative curvature: step to the boundary along p.
                let tau = try_boundary_tau(backend, &s, &p, radius)?;
                backend.try_axpy(tau, &p, &mut s)?;
                hit_boundary = true;
                break;
            }
            let alpha = rs / php;
            // Would s + alpha p leave the region?
            let sn2 = backend.try_nrm2_sq(&s)?;
            let sp = backend.try_dot(&s, &p)?;
            let pn2 = backend.try_nrm2_sq(&p)?;
            let step_norm2 = sn2 + 2.0 * alpha * sp + alpha * alpha * pn2;
            if step_norm2 > radius * radius {
                let tau = try_boundary_tau(backend, &s, &p, radius)?;
                backend.try_axpy(tau, &p, &mut s)?;
                hit_boundary = true;
                break;
            }
            backend.try_axpy(alpha, &p, &mut s)?;
            backend.try_axpy(-alpha, &hp, &mut r)?;
            let rs_new = backend.try_nrm2_sq(&r)?;
            let beta = rs_new / rs;
            rs = rs_new;
            backend.try_scal(beta, &mut p)?;
            backend.try_axpy(1.0, &r, &mut p)?;
        }

        // Predicted reduction: -q(s) = -(g.s + 0.5 s.Hs).
        backend.try_pattern(
            PatternSpec::full(1.0, opts.lambda),
            Some(&d),
            &s,
            Some(&s),
            &mut hp,
        )?;
        let gs = backend.try_dot(&grad, &s)?;
        let shs = backend.try_dot(&s, &hp)?;
        let predicted = -(gs + 0.5 * shs);
        let s_norm = backend.try_nrm2_sq(&s)?.sqrt();
        if predicted <= 0.0 || s_norm == 0.0 {
            break; // no useful model direction left
        }

        // Actual reduction and the ratio test.
        let mut w_try = backend.try_zeros("tron.wtry", n)?;
        backend.try_copy(&w, &mut w_try)?;
        backend.try_axpy(1.0, &s, &mut w_try)?;
        let obj_try = objective_at!(&w_try);
        if !obj_try.is_finite() {
            return Err(SolverError::breakdown(
                SOLVER,
                outer,
                format!("trial objective is {obj_try}"),
            ));
        }
        let actual = objective - obj_try;
        let rho = actual / predicted;

        // Radius update (TRON's schedule).
        if rho < ETA1 {
            radius = (SIGMA1 * s_norm).min(SIGMA2 * radius).max(1e-12);
        } else if rho > ETA2 && hit_boundary {
            radius = (SIGMA3 * radius).max(radius);
        }

        if rho > ETA0 {
            backend.try_copy(&w_try, &mut w)?;
            objective = obj_try;
        } else {
            rejected += 1;
            // Re-evaluate sig at the (unchanged) iterate for the next
            // gradient; objective_at! mutated `sig` for w_try.
            objective = objective_at!(&w);
        }
        outer += 1;
        if let Some(h) = ckpt {
            if h.due(outer) {
                h.save(SolverCheckpoint::Tron {
                    outer,
                    cg_iterations: cg_total,
                    rejected,
                    radius,
                    weights: backend.to_host(&w),
                });
            }
        }
    }

    Ok(TronResult {
        weights: backend.to_host(&w),
        iterations: outer,
        cg_iterations: cg_total,
        objective,
        radius,
        rejected_steps: rejected,
    })
}

/// Positive root `tau` of `||s + tau p|| = radius`.
fn try_boundary_tau<B: Backend>(
    backend: &mut B,
    s: &B::Vector,
    p: &B::Vector,
    radius: f64,
) -> Result<f64, SolverError> {
    let sn2 = backend.try_nrm2_sq(s)?;
    let sp = backend.try_dot(s, p)?;
    let pn2 = backend.try_nrm2_sq(p)?;
    if pn2 == 0.0 {
        return Ok(0.0);
    }
    let disc = (sp * sp + pn2 * (radius * radius - sn2)).max(0.0);
    Ok((-sp + disc.sqrt()) / pn2)
}

#[cfg(test)]
mod tron_tests {
    use super::*;
    use crate::ops::{CpuBackend, FusedBackend};
    use fusedml_gpu_sim::{DeviceSpec, Gpu};
    use fusedml_matrix::gen::{random_vector, uniform_sparse};
    use fusedml_matrix::reference;

    fn problem(m: usize, n: usize, seed: u64) -> (fusedml_matrix::CsrMatrix, Vec<f64>) {
        let x = uniform_sparse(m, n, 0.25, seed);
        let w_true = random_vector(n, seed + 9);
        let labels: Vec<f64> = reference::csr_mv(&x, &w_true)
            .iter()
            .map(|&s| if s >= 0.0 { 1.0 } else { -1.0 })
            .collect();
        (x, labels)
    }

    #[test]
    fn tron_separates_data() {
        let (x, labels) = problem(400, 30, 201);
        let mut cpu = CpuBackend::new_sparse(x.clone());
        let res = try_logreg_tron(&mut cpu, &labels, TronOptions::default()).unwrap();
        let scores = reference::csr_mv(&x, &res.weights);
        let acc = scores
            .iter()
            .zip(&labels)
            .filter(|(s, l)| (s.signum() - **l).abs() < 0.5)
            .count() as f64
            / labels.len() as f64;
        assert!(acc > 0.95, "accuracy {acc}");
        assert!(res.radius > 0.0);
    }

    #[test]
    fn tron_matches_damped_newton_solution() {
        let (x, labels) = problem(300, 25, 202);
        let mut a = CpuBackend::new_sparse(x.clone());
        let tron = try_logreg_tron(&mut a, &labels, TronOptions::default()).unwrap();
        let mut b = CpuBackend::new_sparse(x);
        let newton = try_logreg(&mut b, &labels, LogRegOptions::default()).unwrap();
        // Same strictly convex objective => same optimum.
        assert!(
            (tron.objective - newton.objective).abs() < 1e-3 * (1.0 + newton.objective.abs()),
            "tron {} vs newton {}",
            tron.objective,
            newton.objective
        );
    }

    #[test]
    fn tron_fused_matches_cpu() {
        let g = Gpu::with_host_threads(DeviceSpec::gtx_titan(), 1);
        let (x, labels) = problem(200, 20, 203);
        let opts = TronOptions {
            max_outer: 6,
            ..Default::default()
        };
        let mut cpu = CpuBackend::new_sparse(x.clone());
        let r_cpu = try_logreg_tron(&mut cpu, &labels, opts).unwrap();
        let mut fused = FusedBackend::try_new_sparse(&g, &x).unwrap();
        let r_fused = try_logreg_tron(&mut fused, &labels, opts).unwrap();
        assert!(
            reference::rel_l2_error(&r_fused.weights, &r_cpu.weights) < 1e-6,
            "err {}",
            reference::rel_l2_error(&r_fused.weights, &r_cpu.weights)
        );
        // TRON's Hessian-vector products go through the full pattern.
        assert!(fused.stats().pattern_counts["X^T x (v . (X x y)) + b * z"] >= 2);
    }

    #[test]
    fn tiny_initial_radius_forces_boundary_steps_then_grows() {
        let (x, labels) = problem(250, 20, 204);
        let mut cpu = CpuBackend::new_sparse(x);
        let res = try_logreg_tron(
            &mut cpu,
            &labels,
            TronOptions {
                initial_radius: Some(1e-3),
                max_outer: 40,
                ..Default::default()
            },
        )
        .unwrap();
        // The region must have expanded well beyond the crippled start.
        assert!(res.radius > 1e-2, "radius stayed at {}", res.radius);
        assert!(res.objective.is_finite());
    }
}
