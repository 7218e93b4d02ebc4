//! [`TimedBackend`]: a pass-through [`Backend`] that opens one span per
//! backend call, named by the call's class, so a traced solve splits into
//! solver host math (the `ml` span's self time) and the backend's work by
//! class: `pattern`, `mv`, `level1` and `transfer` (`ml.backend` spans).

use crate::span::span;
use fusedml_core::PatternSpec;
use fusedml_gpu_sim::DeviceError;
use fusedml_ml::{Backend, BackendStats};

/// Span layer of every backend call.
pub const LAYER: &str = "ml.backend";

/// Wraps a borrowed backend for the traced ops of a run; untraced ops call
/// the backend directly, so the wrapper never runs inside a measured
/// end-to-end window.
pub struct TimedBackend<'a, B: Backend> {
    inner: &'a mut B,
}

impl<'a, B: Backend> TimedBackend<'a, B> {
    pub fn new(inner: &'a mut B) -> Self {
        TimedBackend { inner }
    }
}

impl<B: Backend> Backend for TimedBackend<'_, B> {
    type Vector = B::Vector;

    fn rows(&self) -> usize {
        self.inner.rows()
    }

    fn cols(&self) -> usize {
        self.inner.cols()
    }

    fn try_from_host(&mut self, name: &str, data: &[f64]) -> Result<Self::Vector, DeviceError> {
        let _s = span(LAYER, "transfer");
        self.inner.try_from_host(name, data)
    }

    fn try_zeros(&mut self, name: &str, len: usize) -> Result<Self::Vector, DeviceError> {
        let _s = span(LAYER, "transfer");
        self.inner.try_zeros(name, len)
    }

    fn to_host(&self, v: &Self::Vector) -> Vec<f64> {
        let _s = span(LAYER, "transfer");
        self.inner.to_host(v)
    }

    fn try_pattern(
        &mut self,
        spec: PatternSpec,
        v: Option<&Self::Vector>,
        y: &Self::Vector,
        z: Option<&Self::Vector>,
        w: &mut Self::Vector,
    ) -> Result<(), DeviceError> {
        let _s = span(LAYER, "pattern");
        self.inner.try_pattern(spec, v, y, z, w)
    }

    fn try_mv(&mut self, y: &Self::Vector, out: &mut Self::Vector) -> Result<(), DeviceError> {
        let _s = span(LAYER, "mv");
        self.inner.try_mv(y, out)
    }

    fn try_tmv(
        &mut self,
        alpha: f64,
        u: &Self::Vector,
        out: &mut Self::Vector,
    ) -> Result<(), DeviceError> {
        let _s = span(LAYER, "mv");
        self.inner.try_tmv(alpha, u, out)
    }

    fn try_axpy(
        &mut self,
        a: f64,
        x: &Self::Vector,
        y: &mut Self::Vector,
    ) -> Result<(), DeviceError> {
        let _s = span(LAYER, "level1");
        self.inner.try_axpy(a, x, y)
    }

    fn try_scal(&mut self, a: f64, x: &mut Self::Vector) -> Result<(), DeviceError> {
        let _s = span(LAYER, "level1");
        self.inner.try_scal(a, x)
    }

    fn try_copy(&mut self, src: &Self::Vector, dst: &mut Self::Vector) -> Result<(), DeviceError> {
        let _s = span(LAYER, "level1");
        self.inner.try_copy(src, dst)
    }

    fn try_ewmul(
        &mut self,
        x: &Self::Vector,
        y: &Self::Vector,
        out: &mut Self::Vector,
    ) -> Result<(), DeviceError> {
        let _s = span(LAYER, "level1");
        self.inner.try_ewmul(x, y, out)
    }

    fn try_dot(&mut self, x: &Self::Vector, y: &Self::Vector) -> Result<f64, DeviceError> {
        let _s = span(LAYER, "level1");
        self.inner.try_dot(x, y)
    }

    fn try_nrm2_sq(&mut self, x: &Self::Vector) -> Result<f64, DeviceError> {
        let _s = span(LAYER, "level1");
        self.inner.try_nrm2_sq(x)
    }

    fn try_map2(
        &mut self,
        x: &Self::Vector,
        y: &Self::Vector,
        out: &mut Self::Vector,
        f: &(dyn Fn(f64, f64) -> f64 + Sync),
    ) -> Result<(), DeviceError> {
        let _s = span(LAYER, "level1");
        self.inner.try_map2(x, y, out, f)
    }

    fn stats(&self) -> BackendStats {
        self.inner.stats()
    }

    fn reset_stats(&mut self) {
        self.inner.reset_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span;
    use fusedml_gpu_sim::{DeviceSpec, Gpu};
    use fusedml_matrix::gen::{random_vector, uniform_sparse};
    use fusedml_matrix::reference;
    use fusedml_ml::{try_glm, try_lr_cg, DagBackend, FusedBackend, GlmOptions, LrCgOptions};

    #[test]
    fn wrapped_solves_are_bit_identical_to_unwrapped_ones() {
        let x = uniform_sparse(400, 48, 0.05, 3);
        let targets = reference::csr_mv(&x, &random_vector(48, 4));
        let counts: Vec<f64> = targets.iter().map(|t| t.clamp(-3.0, 3.0).exp()).collect();
        let lr = LrCgOptions {
            max_iterations: 5,
            tolerance: 0.0,
            ..Default::default()
        };
        let glm = GlmOptions {
            max_outer: 1,
            grad_tol: 0.0,
            ..Default::default()
        };

        let solve = |traced: bool| {
            span::take();
            span::set_enabled(traced);
            let gpu = Gpu::with_host_threads(DeviceSpec::gtx_titan(), 1);
            let mut dag = DagBackend::new_sparse(&gpu, &x);
            let mut fused = FusedBackend::new_sparse(&gpu, &x);
            let (w_lr, w_glm) = if traced {
                (
                    try_lr_cg(&mut TimedBackend::new(&mut dag), &targets, lr),
                    try_glm(&mut TimedBackend::new(&mut fused), &counts, glm),
                )
            } else {
                (
                    try_lr_cg(&mut dag, &targets, lr),
                    try_glm(&mut fused, &counts, glm),
                )
            };
            let spans = span::take();
            let bits = |w: &[f64]| w.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            (
                bits(&w_lr.unwrap().weights),
                bits(&w_glm.unwrap().weights),
                dag.stats(),
                fused.stats(),
                spans,
            )
        };
        let plain = solve(false);
        let timed = solve(true);
        assert_eq!(plain.0, timed.0, "LR-CG weights");
        assert_eq!(plain.1, timed.1, "GLM weights");
        assert_eq!(plain.2, timed.2, "LR-CG backend stats");
        assert_eq!(plain.3, timed.3, "GLM backend stats");
        assert!(plain.4.is_empty());
        for class in ["pattern", "mv", "level1", "transfer"] {
            assert!(
                timed.4.iter().any(|s| s.layer == LAYER && s.name == class),
                "no {class} span"
            );
        }
    }
}
