//! `kernel-large`: one op is a round of four fused Equation-1 evaluations
//! on the kernel-level inputs of the `fusedml-bench run` suite — CSR
//! uniform and power-law 20000×1024, ELL 10000×512 and dense 5000×256 —
//! with the suite's specs, vectors and upload order, so the modeled
//! numbers line up with the committed `BENCH_fusion.json` rows.
//!
//! Every matrix is larger than the modeled 1.5 MB L2 and caches are
//! flushed (untimed) before each evaluation, so simulated warp execution
//! and the coalescing and L2-miss models do nearly all the work. Plans are
//! made once per input in set-up and every op hits the cache; with ~2
//! launches per evaluation, per-launch and solver-side costs barely show.

use super::dev_err;
use crate::harness::{check, check_rel_l2, timed, Count, Harness, OpRecord, Params, Phase, SETUPS};
use crate::span::span;
use fusedml_blas::ellmv::GpuEll;
use fusedml_blas::{level1, BaselineEngine, Flavor, GpuCsr, GpuDense};
use fusedml_core::ell_fused::{plan_ell, try_fused_pattern_ell, EllPlan};
use fusedml_core::{FusedExecutor, PatternSpec};
use fusedml_gpu_sim::{DeviceSpec, Gpu, GpuBuffer, LaunchStats};
use fusedml_matrix::gen::{dense_random, powerlaw_sparse, random_vector, uniform_sparse};
use fusedml_matrix::{reference, CsrMatrix, DenseMatrix, EllMatrix};
use std::sync::Arc;

/// Fused output vs. `matrix::reference`.
const REL_L2_TOL: f64 = 1e-9;

enum HostMatrix {
    Csr(CsrMatrix),
    /// ELL storage of a CSR matrix; the comparator runs on the CSR form.
    Ell(CsrMatrix, EllMatrix),
    Dense(DenseMatrix),
}

/// One input as generated on the host.
struct HostInput {
    spec: PatternSpec,
    x: HostMatrix,
    y: Vec<f64>,
    v: Option<Vec<f64>>,
    z: Option<Vec<f64>>,
}

impl HostInput {
    /// Input `kind` of a round: 0 CSR uniform, 1 CSR power-law, 2 ELL,
    /// 3 dense.
    fn generate(p: Params, kind: usize) -> HostInput {
        let (seed, s) = (p.seed, |k| p.seed_plus(k));
        // Equation 1 with every term: v-scaling and the z-axpy tail.
        let full = PatternSpec::full(1.5, -0.5);
        match kind {
            0 | 1 => {
                let (m, n) = (p.rows(20_000), 1024);
                let x = if kind == 0 {
                    let _s = span("matrix", "gen::uniform_sparse");
                    uniform_sparse(m, n, 0.01, seed)
                } else {
                    let _s = span("matrix", "gen::powerlaw_sparse");
                    powerlaw_sparse(m, n, 10.0, 0.8, seed)
                };
                let _s = span("matrix", "gen::random_vector");
                HostInput {
                    spec: full,
                    x: HostMatrix::Csr(x),
                    y: random_vector(n, s(1)),
                    v: Some(random_vector(m, s(2))),
                    z: Some(random_vector(n, s(3))),
                }
            }
            2 => {
                let (m, n) = (p.rows(10_000), 512);
                let x = {
                    let _s = span("matrix", "gen::uniform_sparse");
                    uniform_sparse(m, n, 0.02, seed)
                };
                let ell = {
                    let _s = span("matrix", "EllMatrix::from_csr");
                    EllMatrix::from_csr(&x)
                };
                let _s = span("matrix", "gen::random_vector");
                HostInput {
                    spec: PatternSpec::xtxy(),
                    x: HostMatrix::Ell(x, ell),
                    y: random_vector(n, s(5)),
                    v: None,
                    z: None,
                }
            }
            _ => {
                let (m, n) = (p.rows(5_000), 256);
                let x = {
                    let _s = span("matrix", "gen::dense_random");
                    dense_random(m, n, seed)
                };
                let _s = span("matrix", "gen::random_vector");
                HostInput {
                    spec: full,
                    x: HostMatrix::Dense(x),
                    y: random_vector(n, s(6)),
                    v: Some(random_vector(m, s(7))),
                    z: Some(random_vector(n, s(8))),
                }
            }
        }
    }

    fn dims(&self) -> (usize, usize) {
        match &self.x {
            HostMatrix::Csr(x) | HostMatrix::Ell(x, _) => (x.rows(), x.cols()),
            HostMatrix::Dense(x) => (x.rows(), x.cols()),
        }
    }

    fn reference(&self) -> Vec<f64> {
        let _s = span("matrix", "reference::pattern");
        let (a, b) = (self.spec.alpha, self.spec.beta);
        let (v, z) = (self.v.as_deref(), self.z.as_deref());
        match &self.x {
            HostMatrix::Csr(x) | HostMatrix::Ell(x, _) => {
                reference::pattern_csr(a, x, v, &self.y, b, z)
            }
            HostMatrix::Dense(x) => reference::pattern_dense(a, x, v, &self.y, b, z),
        }
    }

    /// Modeled ms of the cuBLAS/cuSPARSE-style operator composition on a
    /// fresh device, uploads in the suite's order.
    fn baseline_ms(&self, device: &Arc<DeviceSpec>) -> Result<f64, String> {
        let gpu = Gpu::new(device.clone());
        let (m, n) = self.dims();
        let (a, b) = (self.spec.alpha, self.spec.beta);
        let upload = |name, data: &[f64]| gpu.try_upload_f64(name, data).map_err(dev_err);
        let x = match &self.x {
            HostMatrix::Csr(x) | HostMatrix::Ell(x, _) => {
                let _s = span("blas", "GpuCsr::try_upload");
                Ok(GpuCsr::try_upload(&gpu, "X", x).map_err(dev_err)?)
            }
            HostMatrix::Dense(x) => {
                let _s = span("blas", "GpuDense::try_upload");
                Err(GpuDense::try_upload(&gpu, "X", x).map_err(dev_err)?)
            }
        };
        let y = upload("y", &self.y)?;
        let v = self.v.as_ref().map(|v| upload("v", v)).transpose()?;
        let z = self.z.as_ref().map(|z| upload("z", z)).transpose()?;
        let w = gpu.try_alloc_f64("w", n).map_err(dev_err)?;
        let p = gpu.try_alloc_f64("p", m).map_err(dev_err)?;
        gpu.flush_caches();
        let _s = span("blas", "BaselineEngine::try_pattern");
        let mut cu = BaselineEngine::try_new(&gpu, Flavor::CuLibs).map_err(dev_err)?;
        match &x {
            Ok(x) => cu.try_pattern_sparse(a, x, v.as_ref(), &y, b, z.as_ref(), &w, &p),
            Err(x) => cu.try_pattern_dense(a, x, v.as_ref(), &y, b, z.as_ref(), &w, &p),
        }
        .map_err(dev_err)?;
        Ok(cu.total_sim_ms())
    }
}

enum DeviceMatrix {
    Csr(GpuCsr),
    Ell(GpuEll, EllPlan),
    Dense(GpuDense),
}

/// One input resident on its own device, with a warm executor.
struct Resident<'g> {
    gpu: &'g Gpu,
    ex: FusedExecutor<'g>,
    spec: PatternSpec,
    x: DeviceMatrix,
    y: GpuBuffer,
    v: Option<GpuBuffer>,
    z: Option<GpuBuffer>,
    w: GpuBuffer,
}

impl<'g> Resident<'g> {
    /// Upload in the suite's order (matrix, y, v, z, w) so simulated
    /// addresses, and with them the modeled numbers, match it; then make
    /// the input's cold plan.
    fn upload(gpu: &'g Gpu, input: &HostInput) -> Result<Self, String> {
        let upload = |name, data: &[f64]| gpu.try_upload_f64(name, data).map_err(dev_err);
        let ex = FusedExecutor::new(gpu);
        let x = match &input.x {
            HostMatrix::Csr(x) => {
                let _s = span("blas", "GpuCsr::try_upload");
                DeviceMatrix::Csr(GpuCsr::try_upload(gpu, "X", x).map_err(dev_err)?)
            }
            HostMatrix::Ell(x, ell) => {
                let d = {
                    let _s = span("blas", "GpuEll::try_upload");
                    GpuEll::try_upload(gpu, "ell", ell).map_err(dev_err)?
                };
                let _s = span("core", "plan_ell");
                DeviceMatrix::Ell(d, plan_ell(gpu, x.rows(), x.cols()))
            }
            HostMatrix::Dense(x) => {
                let _s = span("blas", "GpuDense::try_upload");
                DeviceMatrix::Dense(GpuDense::try_upload(gpu, "X", x).map_err(dev_err)?)
            }
        };
        let y = upload("y", &input.y)?;
        let v = input.v.as_ref().map(|v| upload("v", v)).transpose()?;
        let z = input.z.as_ref().map(|z| upload("z", z)).transpose()?;
        let w = gpu.try_alloc_f64("w", input.dims().1).map_err(dev_err)?;
        {
            let _s = span("core", "FusedExecutor::try_plan");
            match &x {
                DeviceMatrix::Csr(x) => ex.try_sparse_plan(x).map(|_| ()),
                DeviceMatrix::Dense(x) => ex.try_dense_plan(x).map(|_| ()),
                DeviceMatrix::Ell(..) => Ok(()),
            }
            .map_err(dev_err)?;
        }
        Ok(Resident {
            gpu,
            ex,
            spec: input.spec,
            x,
            y,
            v,
            z,
            w,
        })
    }

    /// One fused evaluation; returns its launches.
    fn evaluate(&mut self) -> Result<Vec<LaunchStats>, String> {
        let (v, z) = (self.v.as_ref(), self.z.as_ref());
        self.ex.reset();
        match &self.x {
            DeviceMatrix::Csr(x) => {
                let _s = span("core", "FusedExecutor::try_pattern_sparse");
                self.ex
                    .try_pattern_sparse(self.spec, x, v, &self.y, z, &self.w)
                    .map_err(dev_err)?;
            }
            DeviceMatrix::Dense(x) => {
                let _s = span("core", "FusedExecutor::try_pattern_dense");
                self.ex
                    .try_pattern_dense(self.spec, x, v, &self.y, z, &self.w)
                    .map_err(dev_err)?;
            }
            DeviceMatrix::Ell(x, plan) => {
                let fill = {
                    let _s = span("blas", "level1::try_fill");
                    level1::try_fill(self.gpu, &self.w, 0.0).map_err(dev_err)?
                };
                let _s = span("core", "try_fused_pattern_ell");
                let fused =
                    try_fused_pattern_ell(self.gpu, plan, self.spec, x, v, &self.y, z, &self.w)
                        .map_err(dev_err)?;
                return Ok(vec![fill, fused]);
            }
        }
        Ok(std::mem::take(&mut self.ex.launches))
    }
}

/// Inputs per round.
const INPUTS: usize = 4;

pub fn run(h: &mut Harness) -> Result<(), String> {
    let device = Arc::new(DeviceSpec::gtx_titan());
    let p = h.params();
    for _ in 0..SETUPS {
        h.begin_setup();
        let inputs: Vec<HostInput> = h.phase(Phase::Inputs, || {
            (0..INPUTS).map(|k| HostInput::generate(p, k)).collect()
        });
        // One device per input, as the suite gives every variant its own.
        let gpus: Vec<Gpu> = h.phase(Phase::State, || {
            let _s = span("gpu_sim", "Gpu::new");
            (0..INPUTS).map(|_| Gpu::new(device.clone())).collect()
        });
        let mut resident = h.phase(Phase::State, || {
            gpus.iter()
                .zip(&inputs)
                .map(|(g, i)| Resident::upload(g, i))
                .collect::<Result<Vec<_>, _>>()
        })?;
        let (expected, baseline_ms) = h.phase(Phase::Reference, || -> Result<_, String> {
            let expected: Vec<Vec<f64>> = inputs.iter().map(HostInput::reference).collect();
            let baseline_ms = inputs
                .iter()
                .map(|i| i.baseline_ms(&device))
                .sum::<Result<f64, String>>()?;
            Ok((expected, baseline_ms))
        })?;

        let mut op = |_: usize| -> Result<OpRecord, String> {
            let mut rec = OpRecord::default();
            let mut modeled = 0.0;
            for r in resident.iter_mut() {
                let plans_before = r.ex.plan_stats();
                {
                    let _s = span("gpu_sim", "flush_caches");
                    r.gpu.flush_caches();
                }
                let launches = timed(&mut rec, || r.evaluate())?;
                for l in &launches {
                    rec.add_launch(l);
                    modeled += l.sim_ms();
                }
                let plans = r.ex.plan_stats();
                rec.add(Count::PlanHits, (plans.hits - plans_before.hits) as f64);
                rec.add(
                    Count::PlansComputed,
                    (plans.plans_computed() - plans_before.plans_computed()) as f64,
                );
            }
            rec.add(Count::ModeledMs, modeled);
            rec.add(Count::ComparedMs, modeled);
            rec.add(Count::ComparatorMs, baseline_ms);
            rec.add(Count::GoodUnits, INPUTS as f64);
            rec.modeled_samples.push(modeled);
            check(&mut rec, || {
                resident.iter().zip(&expected).try_for_each(|(r, want)| {
                    let got = {
                        let _s = span("gpu_sim", "GpuBuffer::to_vec_f64");
                        r.w.to_vec_f64()
                    };
                    check_rel_l2("fused Equation 1", &got, want, REL_L2_TOL)
                })
            })?;
            Ok(rec)
        };
        // Every op is the same round.
        h.finish_setup(1, &mut op);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{RunOptions, WARMUP_OPS};
    use fusedml_bench::regress::json::Json;

    #[test]
    fn another_seed_generates_other_inputs() {
        let at = |seed| HostInput::generate(Params { seed, scale: 0.02 }, 0);
        let (a, b) = (at(1), at(2));
        assert_eq!(a.dims(), b.dims());
        assert_ne!(a.y, b.y);
        assert_ne!(a.reference(), b.reference());
    }

    #[test]
    fn a_corrupted_output_fails_its_op() {
        let p = Params {
            seed: 3,
            scale: 0.02,
        };
        let input = HostInput::generate(p, 0);
        let want = input.reference();
        let gpu = Gpu::new(DeviceSpec::gtx_titan());
        let mut r = Resident::upload(&gpu, &input).unwrap();
        let mut h = Harness::new(RunOptions {
            seed: p.seed,
            seconds: 0.0,
            trace: false,
            scale: p.scale,
        });
        let mut calls = 0;
        let mut op = |_: usize| -> Result<OpRecord, String> {
            calls += 1;
            let mut rec = OpRecord::default();
            timed(&mut rec, || r.evaluate())?;
            let mut got = r.w.to_vec_f64();
            if calls % 2 == 0 {
                got[0] += 1.0;
            }
            check_rel_l2("fused Equation 1", &got, &want, REL_L2_TOL)?;
            Ok(rec)
        };
        for _ in 0..SETUPS {
            h.begin_setup();
            h.finish_setup(1, &mut op);
        }
        let out = h.finish();
        let warmups = SETUPS * WARMUP_OPS;
        let timed_ops = crate::harness::MIN_OPS;
        let failed = (warmups + timed_ops) / 2;
        let failed_warmups = warmups / 2;
        assert_eq!(out.failed as usize, failed);
        assert_eq!(out.attempted as usize, timed_ops + failed_warmups);
        assert!(
            out.failures[0].contains("relative L2 error"),
            "{:?}",
            out.failures
        );
    }

    /// At the default seed the first evaluation of every input models the
    /// same fused and baseline milliseconds as the committed suite golden.
    #[test]
    fn default_seed_matches_the_committed_suite_rows() {
        crate::host::pin_to_one_cpu();
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../results/baselines/BENCH_fusion.json"
        );
        let golden = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let row = |id: &str| {
            golden
                .get("workloads")
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .find(|w| w.field_str("id") == Ok(id))
                .map(|w| {
                    let ms = |v: &str| w.field(v).unwrap().field_f64("modeled_ms").unwrap();
                    (ms("fused"), ms("baseline"))
                })
                .unwrap()
        };
        let ids = [
            "pattern/csr/uniform/20000x1024",
            "pattern/csr/powerlaw/20000x1024",
            "pattern/ell/10000x512",
            "pattern/dense/5000x256",
        ];
        let device = Arc::new(DeviceSpec::gtx_titan());
        let p = Params {
            seed: 0x5EED,
            scale: 1.0,
        };
        for (k, id) in ids.iter().enumerate() {
            let input = HostInput::generate(p, k);
            let gpu = Gpu::new(device.clone());
            let mut r = Resident::upload(&gpu, &input).unwrap();
            gpu.flush_caches();
            let fused: f64 = r.evaluate().unwrap().iter().map(LaunchStats::sim_ms).sum();
            let baseline = input.baseline_ms(&device).unwrap();
            let (want_fused, want_baseline) = row(id);
            for (what, got, want) in [
                ("fused", fused, want_fused),
                ("baseline", baseline, want_baseline),
            ] {
                assert!(
                    (got - want).abs() <= 0.005 * want,
                    "{id} {what}: {got} ms, golden {want} ms"
                );
            }
        }
    }
}
