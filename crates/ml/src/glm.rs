//! Generalized linear models (McCullagh \[28\]) fit by iteratively
//! reweighted least squares (IRLS), with Poisson (log link) and binomial
//! (logit link) families.
//!
//! Each IRLS step solves the weighted normal equations
//! `(X^T W X + lambda I) d = X^T r` by CG; the Hessian-vector product is
//! `X^T (W ⊙ (X s)) + lambda s` — the `X^T (v ⊙ (X y))` instantiation the
//! paper's Table 1 attributes to GLM.

use crate::checkpoint::{CheckpointHandle, SolverCheckpoint};
use crate::error::SolverError;
use crate::ops::Backend;
use fusedml_core::PatternSpec;

/// Exponential-family link for the GLM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Poisson regression with log link: `mu = exp(eta)`.
    Poisson,
    /// Binomial regression with logit link: `mu = sigma(eta)`.
    Binomial,
    /// Gamma regression with log link (positive continuous targets; the
    /// log link keeps the mean positive and gives `W = mu' ^2 / V(mu) = 1`
    /// up to dispersion — we use the Fisher weight `1`).
    Gamma,
}

impl Family {
    /// `(mean, weight)` at linear predictor `eta`: the IRLS working
    /// response uses `W = (d mu / d eta)^2 / Var(mu)`.
    fn mean_and_weight(self, eta: f64) -> (f64, f64) {
        match self {
            Family::Poisson => {
                let mu = eta.clamp(-30.0, 30.0).exp();
                (mu, mu)
            }
            Family::Binomial => {
                let mu = 1.0 / (1.0 + (-eta).exp());
                (mu, (mu * (1.0 - mu)).max(1e-12))
            }
            Family::Gamma => {
                // log link: mu = exp(eta); Var = mu^2 => W = 1.
                let mu = eta.clamp(-30.0, 30.0).exp();
                (mu, 1.0)
            }
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct GlmResult {
    pub weights: Vec<f64>,
    pub iterations: usize,
    pub cg_iterations: usize,
    /// Final squared gradient norm.
    pub grad_norm_sq: f64,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GlmOptions {
    pub family: Family,
    pub lambda: f64,
    pub max_outer: usize,
    pub max_inner_cg: usize,
    pub grad_tol: f64,
}

impl Default for GlmOptions {
    fn default() -> Self {
        GlmOptions {
            family: Family::Poisson,
            lambda: 1e-3,
            max_outer: 25,
            max_inner_cg: 30,
            grad_tol: 1e-10,
        }
    }
}

/// Fit a GLM: `targets` are counts (Poisson) or probabilities/labels in
/// `[0, 1]` (Binomial). Device faults propagate as [`SolverError::Device`];
/// a non-finite gradient norm or CG curvature aborts with
/// [`SolverError::NumericalBreakdown`]. The `max_outer`/`max_inner_cg`
/// caps bound the work done before either outcome.
pub fn try_glm<B: Backend>(
    backend: &mut B,
    targets: &[f64],
    opts: GlmOptions,
) -> Result<GlmResult, SolverError> {
    try_glm_ckpt(backend, targets, opts, None)
}

/// [`try_glm`] with checkpoint/resume: the IRLS outer loop recomputes
/// mean/weight/residual vectors from the iterate each pass, so a snapshot
/// of the weights plus outer-loop counters is all the state a resume
/// needs. With `ckpt` `None` the device work is identical to
/// [`try_glm`].
pub fn try_glm_ckpt<B: Backend>(
    backend: &mut B,
    targets: &[f64],
    opts: GlmOptions,
    ckpt: Option<&CheckpointHandle>,
) -> Result<GlmResult, SolverError> {
    const SOLVER: &str = "glm";

    let m = backend.rows();
    let n = backend.cols();
    assert_eq!(targets.len(), m);

    let resume = ckpt.and_then(|h| h.latest()).and_then(|c| match c {
        SolverCheckpoint::Glm {
            outer,
            cg_iterations,
            weights,
        } if weights.len() == n => Some((outer, cg_iterations, weights)),
        _ => None,
    });

    let t = backend.try_from_host("targets", targets)?;
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
    let mut eta = backend.try_zeros("eta", m)?;
    let mut mu = backend.try_zeros("mu", m)?;
    let mut wgt = backend.try_zeros("wgt", m)?;
    let mut resid = backend.try_zeros("resid", m)?;
    let mut grad = backend.try_zeros("grad", n)?;
    let mut gn2 = f64::INFINITY;
    let family = opts.family;

    while outer < opts.max_outer {
        let mut span = fusedml_trace::wall_span("solver", "glm.outer", "host");
        span.arg("outer", outer);
        backend.try_mv(&w, &mut eta)?;
        backend.try_map2(&eta, &t, &mut mu, &|e, _| family.mean_and_weight(e).0)?;
        backend.try_map2(&eta, &t, &mut wgt, &|e, _| family.mean_and_weight(e).1)?;
        // Score residual: (t - mu) for canonical links; (t - mu)/mu for
        // Gamma with the log link.
        match family {
            Family::Gamma => {
                backend.try_map2(&t, &mu, &mut resid, &|ti, mi| (ti - mi) / mi.max(1e-12))?
            }
            _ => backend.try_map2(&t, &mu, &mut resid, &|ti, mi| ti - mi)?,
        }

        // grad = X^T resid - lambda w (ascent direction of log-likelihood).
        backend.try_tmv(1.0, &resid, &mut grad)?;
        backend.try_axpy(-opts.lambda, &w, &mut grad)?;
        gn2 = backend.try_nrm2_sq(&grad)?;
        if !gn2.is_finite() {
            return Err(SolverError::breakdown(
                SOLVER,
                outer,
                format!("gradient norm^2 is {gn2}"),
            ));
        }
        span.arg("gn2", gn2);
        if gn2 <= opts.grad_tol {
            break;
        }

        // CG solve (X^T W X + lambda I) d = grad.
        let mut d = backend.try_zeros("cg.d", n)?;
        let mut r = backend.try_zeros("cg.r", n)?;
        backend.try_copy(&grad, &mut r)?;
        let mut p = backend.try_zeros("cg.p", n)?;
        backend.try_copy(&r, &mut p)?;
        let mut rs = backend.try_nrm2_sq(&r)?;
        let rs0 = rs;
        let mut hp = backend.try_zeros("cg.hp", n)?;
        for _ in 0..opts.max_inner_cg {
            if rs <= 1e-8 * rs0 {
                break;
            }
            // hp = X^T (W ⊙ (X p)) + lambda p — Table 1's GLM pattern.
            backend.try_pattern(
                PatternSpec::full(1.0, opts.lambda),
                Some(&wgt),
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
            backend.try_axpy(alpha, &p, &mut d)?;
            backend.try_axpy(-alpha, &hp, &mut r)?;
            let rs_new = backend.try_nrm2_sq(&r)?;
            let beta = rs_new / rs;
            rs = rs_new;
            backend.try_scal(beta, &mut p)?;
            backend.try_axpy(1.0, &r, &mut p)?;
            cg_total += 1;
        }

        // Damped update: eta changes can explode for Poisson, halve until
        // the gradient norm improves.
        let mut step = 1.0;
        let mut accepted = false;
        for _ in 0..8 {
            let mut w_try = backend.try_zeros("w.try", n)?;
            backend.try_copy(&w, &mut w_try)?;
            backend.try_axpy(step, &d, &mut w_try)?;
            backend.try_mv(&w_try, &mut eta)?;
            backend.try_map2(&eta, &t, &mut mu, &|e, _| family.mean_and_weight(e).0)?;
            match family {
                Family::Gamma => {
                    backend.try_map2(&t, &mu, &mut resid, &|ti, mi| (ti - mi) / mi.max(1e-12))?
                }
                _ => backend.try_map2(&t, &mu, &mut resid, &|ti, mi| ti - mi)?,
            }
            let mut g_try = backend.try_zeros("g.try", n)?;
            backend.try_tmv(1.0, &resid, &mut g_try)?;
            backend.try_axpy(-opts.lambda, &w_try, &mut g_try)?;
            let gn2_try = backend.try_nrm2_sq(&g_try)?;
            if gn2_try < gn2 {
                backend.try_copy(&w_try, &mut w)?;
                accepted = true;
                break;
            }
            step *= 0.5;
        }
        outer += 1;
        if let Some(h) = ckpt {
            if h.due(outer) {
                h.save(SolverCheckpoint::Glm {
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

    Ok(GlmResult {
        weights: backend.to_host(&w),
        iterations: outer,
        cg_iterations: cg_total,
        grad_norm_sq: gn2,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{CpuBackend, FusedBackend};
    use fusedml_gpu_sim::{DeviceSpec, Gpu};
    use fusedml_matrix::gen::{random_vector, uniform_sparse};
    use fusedml_matrix::reference;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn poisson_problem(
        m: usize,
        n: usize,
        seed: u64,
    ) -> (fusedml_matrix::CsrMatrix, Vec<f64>, Vec<f64>) {
        let x = uniform_sparse(m, n, 0.25, seed);
        let mut w_true = random_vector(n, seed + 3);
        reference::scal(0.3, &mut w_true); // keep rates moderate
        let mut rng = StdRng::seed_from_u64(seed + 7);
        let targets: Vec<f64> = reference::csr_mv(&x, &w_true)
            .iter()
            .map(|&eta| {
                // Deterministic pseudo-Poisson around exp(eta).
                let lam = eta.clamp(-4.0, 4.0).exp();
                (lam + 0.3 * (rng.gen::<f64>() - 0.5) * lam.sqrt()).max(0.0)
            })
            .collect();
        (x, w_true, targets)
    }

    #[test]
    fn poisson_recovers_rates() {
        let (x, w_true, targets) = poisson_problem(500, 20, 131);
        let mut cpu = CpuBackend::new_sparse(x);
        let res = try_glm(&mut cpu, &targets, GlmOptions::default()).unwrap();
        assert!(res.iterations > 0);
        let err = reference::rel_l2_error(&res.weights, &w_true);
        assert!(err < 0.2, "relative error {err}");
        assert!(res.grad_norm_sq < 1.0);
    }

    #[test]
    fn binomial_family_runs() {
        let x = uniform_sparse(300, 15, 0.3, 132);
        let w_true = random_vector(15, 133);
        let targets: Vec<f64> = reference::csr_mv(&x, &w_true)
            .iter()
            .map(|&e| if e > 0.0 { 1.0 } else { 0.0 })
            .collect();
        let mut cpu = CpuBackend::new_sparse(x.clone());
        let res = try_glm(
            &mut cpu,
            &targets,
            GlmOptions {
                family: Family::Binomial,
                ..Default::default()
            },
        )
        .unwrap();
        // Predicted direction should correlate with targets.
        let preds = reference::csr_mv(&x, &res.weights);
        let acc = preds
            .iter()
            .zip(&targets)
            .filter(|(p, t)| (p.signum().max(0.0) - **t).abs() < 0.5)
            .count() as f64
            / targets.len() as f64;
        assert!(acc > 0.85, "accuracy {acc}");
    }

    #[test]
    fn gamma_family_recovers_log_linear_rates() {
        let x = uniform_sparse(600, 15, 0.3, 141);
        let mut w_true = random_vector(15, 142);
        reference::scal(0.25, &mut w_true);
        // Noiseless Gamma means: t = exp(eta).
        let targets: Vec<f64> = reference::csr_mv(&x, &w_true)
            .iter()
            .map(|&e| e.clamp(-3.0, 3.0).exp())
            .collect();
        let mut cpu = CpuBackend::new_sparse(x);
        let res = try_glm(
            &mut cpu,
            &targets,
            GlmOptions {
                family: Family::Gamma,
                lambda: 1e-6,
                ..Default::default()
            },
        )
        .unwrap();
        let err = reference::rel_l2_error(&res.weights, &w_true);
        assert!(err < 0.05, "gamma relative error {err}");
    }

    #[test]
    fn fused_matches_cpu() {
        let g = Gpu::with_host_threads(DeviceSpec::gtx_titan(), 1);
        let (x, _, targets) = poisson_problem(200, 12, 134);
        let opts = GlmOptions {
            max_outer: 3,
            ..Default::default()
        };
        let mut cpu = CpuBackend::new_sparse(x.clone());
        let r_cpu = try_glm(&mut cpu, &targets, opts).unwrap();
        let mut fused = FusedBackend::try_new_sparse(&g, &x).unwrap();
        let r_fused = try_glm(&mut fused, &targets, opts).unwrap();
        assert!(reference::rel_l2_error(&r_fused.weights, &r_cpu.weights) < 1e-6);
        // GLM exercises the v-carrying pattern (Table 1).
        assert!(fused.stats().pattern_counts["X^T x (v . (X x y)) + b * z"] >= 1);
    }
}
