//! Kleinberg's HITS (Hubs and Authorities \[23\]).
//!
//! The authority update is `a <- A^T (A a)` followed by normalization —
//! precisely Table 1's `X^T (X y)` instantiation, evaluated once per power
//! iteration; hub scores follow as `h = A a`.

use crate::checkpoint::{CheckpointHandle, SolverCheckpoint};
use crate::error::SolverError;
use crate::ops::Backend;
use fusedml_core::PatternSpec;

#[derive(Debug, Clone, PartialEq)]
pub struct HitsResult {
    /// Authority scores (length n, unit 2-norm).
    pub authorities: Vec<f64>,
    /// Hub scores (length m, unit 2-norm).
    pub hubs: Vec<f64>,
    pub iterations: usize,
    /// Final change in authority vector between iterations (L2).
    pub delta: f64,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HitsOptions {
    pub max_iterations: usize,
    pub tolerance: f64,
}

impl Default for HitsOptions {
    fn default() -> Self {
        HitsOptions {
            max_iterations: 50,
            tolerance: 1e-9,
        }
    }
}

/// Run HITS on the adjacency matrix held by the backend (`A[i, j] = 1`
/// when page `i` links to page `j`). Device faults propagate as
/// [`SolverError::Device`];
/// a non-finite authority norm or delta (e.g. after silent corruption of
/// the iterate) aborts with [`SolverError::NumericalBreakdown`] instead of
/// normalizing NaNs into the scores.
pub fn try_hits<B: Backend>(backend: &mut B, opts: HitsOptions) -> Result<HitsResult, SolverError> {
    try_hits_ckpt(backend, opts, None)
}

/// [`try_hits`] with checkpoint/resume: snapshots the normalized
/// authority vector, iteration count and last delta; a resumed run
/// continues the power iteration from that vector. With `ckpt` `None`
/// the device work is identical to [`try_hits`].
pub fn try_hits_ckpt<B: Backend>(
    backend: &mut B,
    opts: HitsOptions,
    ckpt: Option<&CheckpointHandle>,
) -> Result<HitsResult, SolverError> {
    const SOLVER: &str = "hits";

    let m = backend.rows();
    let n = backend.cols();

    let resume = ckpt.and_then(|h| h.latest()).and_then(|c| match c {
        SolverCheckpoint::Hits {
            iteration,
            delta,
            authorities,
        } if authorities.len() == n && delta.is_finite() => Some((iteration, delta, authorities)),
        _ => None,
    });

    let (mut a, mut iters, mut delta) = match resume {
        Some((iteration, delta, authorities)) => {
            let a = backend.try_from_host("authority", &authorities)?;
            if let Some(h) = ckpt {
                h.note_resume(iteration);
            }
            (a, iteration, delta)
        }
        None => {
            // a_0 = uniform unit vector.
            let init = vec![1.0 / (n as f64).sqrt(); n];
            (backend.try_from_host("authority", &init)?, 0, f64::INFINITY)
        }
    };
    let mut a_next = backend.try_zeros("authority.next", n)?;
    let mut delta_buf = backend.try_zeros("delta", n)?;

    while iters < opts.max_iterations && delta > opts.tolerance {
        let mut span = fusedml_trace::wall_span("solver", "hits.iter", "host");
        span.arg("iter", iters);
        // a' = A^T (A a) — the X^T(Xy) pattern.
        backend.try_pattern(PatternSpec::xtxy(), None, &a, None, &mut a_next)?;
        let norm2 = backend.try_nrm2_sq(&a_next)?;
        if !norm2.is_finite() {
            return Err(SolverError::breakdown(
                SOLVER,
                iters,
                format!("authority norm^2 is {norm2}"),
            ));
        }
        if norm2 <= 0.0 {
            break; // graph has no edges
        }
        backend.try_scal(1.0 / norm2.sqrt(), &mut a_next)?;

        // delta = ||a' - a||
        backend.try_copy(&a_next, &mut delta_buf)?;
        backend.try_axpy(-1.0, &a, &mut delta_buf)?;
        delta = backend.try_nrm2_sq(&delta_buf)?.sqrt();
        if !delta.is_finite() {
            return Err(SolverError::breakdown(
                SOLVER,
                iters,
                format!("iterate delta is {delta}"),
            ));
        }
        span.arg("delta", delta);

        backend.try_copy(&a_next, &mut a)?;
        iters += 1;

        if let Some(h) = ckpt {
            if h.due(iters) {
                h.save(SolverCheckpoint::Hits {
                    iteration: iters,
                    delta,
                    authorities: backend.to_host(&a),
                });
            }
        }
    }

    // Hubs: h = A a, normalized.
    let mut h = backend.try_zeros("hubs", m)?;
    backend.try_mv(&a, &mut h)?;
    let hn2 = backend.try_nrm2_sq(&h)?;
    if !hn2.is_finite() {
        return Err(SolverError::breakdown(
            SOLVER,
            iters,
            format!("hub norm^2 is {hn2}"),
        ));
    }
    if hn2 > 0.0 {
        backend.try_scal(1.0 / hn2.sqrt(), &mut h)?;
    }

    Ok(HitsResult {
        authorities: backend.to_host(&a),
        hubs: backend.to_host(&h),
        iterations: iters,
        delta,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{CpuBackend, FusedBackend};
    use fusedml_gpu_sim::{DeviceSpec, Gpu};
    use fusedml_matrix::gen::powerlaw_sparse;
    use fusedml_matrix::reference;
    use fusedml_matrix::{Coo, CsrMatrix};

    /// Star graph: every page links to page 0 — page 0 must dominate
    /// authority, and the pointing pages share hub mass.
    fn star_graph(pages: usize) -> CsrMatrix {
        let mut coo = Coo::new(pages, pages);
        for i in 1..pages {
            coo.push(i, 0, 1.0);
        }
        CsrMatrix::from_coo(&coo)
    }

    #[test]
    fn star_graph_authority_concentrates() {
        let a = star_graph(20);
        let mut cpu = CpuBackend::new_sparse(a);
        let res = try_hits(&mut cpu, HitsOptions::default()).unwrap();
        assert!(
            res.authorities[0] > 0.99,
            "hub page score {}",
            res.authorities[0]
        );
        // Converged quickly.
        assert!(res.delta < 1e-9);
        // All 19 pointing pages are equal hubs.
        let h = &res.hubs;
        for i in 2..20 {
            assert!((h[i] - h[1]).abs() < 1e-9);
        }
        assert!(h[0].abs() < 1e-12);
    }

    #[test]
    fn scores_are_normalized_and_nonnegative() {
        let a = powerlaw_sparse(200, 200, 5.0, 0.8, 141)
            .to_dense() // binarize links
            .clone();
        let mut bin = fusedml_matrix::DenseMatrix::zeros(200, 200);
        for r in 0..200 {
            for c in 0..200 {
                if a.get(r, c) != 0.0 {
                    bin.set(r, c, 1.0);
                }
            }
        }
        let x = CsrMatrix::from_dense(&bin);
        let mut cpu = CpuBackend::new_sparse(x);
        let res = try_hits(&mut cpu, HitsOptions::default()).unwrap();
        let an: f64 = res.authorities.iter().map(|v| v * v).sum();
        assert!((an - 1.0).abs() < 1e-9);
        assert!(res.authorities.iter().all(|&v| v >= -1e-12));
    }

    #[test]
    fn nan_adjacency_is_a_typed_breakdown_not_a_nan_result() {
        let mut coo = Coo::new(6, 6);
        coo.push(1, 0, 1.0);
        coo.push(2, 0, f64::NAN);
        let x = CsrMatrix::from_coo(&coo);
        let mut cpu = CpuBackend::new_sparse(x);
        let err = crate::hits::try_hits(&mut cpu, HitsOptions::default())
            .expect_err("NaN edge weight must not converge silently");
        assert_eq!(err.kind(), "numerical-breakdown");
        assert!(!err.is_transient());
    }

    #[test]
    fn checkpoint_resume_matches_uninterrupted_run() {
        use crate::checkpoint::CheckpointHandle;
        // A dense-ish random graph: the power iteration converges slowly
        // enough that the run is still live at the snapshot boundary.
        let x = fusedml_matrix::gen::uniform_sparse(40, 40, 0.15, 145);
        let opts = HitsOptions {
            max_iterations: 6,
            tolerance: 0.0,
        };
        let mut cpu = CpuBackend::new_sparse(x.clone());
        let full = try_hits(&mut cpu, opts).unwrap();

        let h = CheckpointHandle::new(3);
        let mut first = CpuBackend::new_sparse(x.clone());
        let partial = crate::hits::try_hits_ckpt(
            &mut first,
            HitsOptions {
                max_iterations: 3,
                ..opts
            },
            Some(&h),
        )
        .expect("partial");
        assert_eq!(partial.iterations, 3);
        let mut second = CpuBackend::new_sparse(x);
        let resumed = crate::hits::try_hits_ckpt(&mut second, opts, Some(&h)).expect("resumed");
        assert_eq!(h.last_resume(), Some(3));
        assert_eq!(resumed.iterations, full.iterations);
        assert_eq!(resumed.authorities, full.authorities);
        assert_eq!(resumed.hubs, full.hubs);
    }

    #[test]
    fn fused_matches_cpu_and_uses_xtxy() {
        let g = Gpu::with_host_threads(DeviceSpec::gtx_titan(), 1);
        let x = star_graph(50);
        let opts = HitsOptions {
            max_iterations: 10,
            ..Default::default()
        };
        let mut cpu = CpuBackend::new_sparse(x.clone());
        let r_cpu = try_hits(&mut cpu, opts).unwrap();
        let mut fused = FusedBackend::try_new_sparse(&g, &x).unwrap();
        let r_fused = try_hits(&mut fused, opts).unwrap();
        assert!(reference::rel_l2_error(&r_fused.authorities, &r_cpu.authorities) < 1e-9);
        assert!(fused.stats().pattern_counts["X^T x (X x y)"] >= 1);
    }
}
