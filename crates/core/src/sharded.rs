//! Row-sharded multi-device execution of the fused pattern.
//!
//! The matrix is partitioned row-wise into contiguous shards, one per
//! alive device of a [`DeviceGroup`]; each device runs a variant of the
//! fused kernel over its shard and the partial `w` results are reduced in
//! the kernel *epilogue* (modelled as one interconnect transfer per
//! non-root device — no separate allreduce launch).
//!
//! ## Reproducible reduction (bit-identity across shard counts)
//!
//! The shards are the ranges of a [`RowRanges`] core, which pins `VS` from
//! the *full* matrix and applies the epilogue in ascending global row
//! order (see [`crate::rowranges`]). Each shard kernel stores
//! `p_r = v_r * (X[r,:] . y)` to a per-shard `u` buffer, and the host folds
//! `w[c] (+)= alpha * u[r] * X[r,c]` from those. The result of a 1-device
//! sharded run, an N-device run, and an N-device run that lost a device
//! mid-solve and resharded is therefore **bit-identical**. (The per-shard
//! scatter into a partial `w` still happens on-device so the simulated
//! cost of the epilogue aggregation is charged faithfully; its numeric
//! value is only used by the performance model, never by the solver.)
//!
//! ## Stragglers
//!
//! Each multi-shard operation races its shards against a modelled-time
//! deadline (`straggler_factor` x the median shard time). A shard that
//! misses the deadline is speculatively re-executed — a fresh launch with
//! fresh fault draws — and the faster of the two attempts defines the
//! step's critical path. Numerics are unaffected: the simulator's
//! straggler fault class scales time only.

use crate::pattern::PatternSpec;
use crate::rowranges::{RowRangeExecutor, RowRanges};
use crate::sparse_fused::{
    each_row_warp, flush_shared, fused_row_step, lane_rows, strip_table, try_fused_xt_p_shared,
    zero_shared,
};
use crate::sparse_large::try_fused_xt_p_global;
use crate::tuner::SparsePlan;
use fusedml_blas::{level1, try_csrmv, GpuCsr, SpmvStyle};
use fusedml_gpu_sim::{DeviceError, DeviceGroup, Gpu, GpuBuffer, LaunchConfig, LaunchStats};
use fusedml_matrix::CsrMatrix;

/// Contiguous, balanced row ranges for `n` shards: the first `rows % n`
/// shards get one extra row. Ranges may be empty when `rows < n` (the
/// corresponding device simply idles).
pub fn shard_rows(rows: usize, n: usize) -> Vec<(usize, usize)> {
    assert!(n > 0, "cannot shard across zero devices");
    let base = rows / n;
    let extra = rows % n;
    let mut ranges = Vec::with_capacity(n);
    let mut start = 0;
    for i in 0..n {
        let len = base + usize::from(i < extra);
        ranges.push((start, start + len));
        start += len;
    }
    ranges
}

/// The per-shard fused pattern kernel (`fused_sparse_shard`): evaluates
/// `p = v (.) (X y)` for the shard's rows, stores `p` to `u` (the value
/// the fused epilogue reduction consumes), and scatters
/// `alpha * X^T p` into the shard's partial `w` so the epilogue
/// aggregation cost is modelled. `beta * z` is folded in at the
/// (host-canonical) combine, never here. `w_partial` must be zeroed by
/// the caller.
#[allow(clippy::too_many_arguments)]
pub fn try_fused_pattern_shard(
    gpu: &Gpu,
    plan: &SparsePlan,
    x: &GpuCsr,
    v: Option<&GpuBuffer>,
    y: &GpuBuffer,
    u: &GpuBuffer,
    w_partial: &GpuBuffer,
    alpha: f64,
) -> Result<LaunchStats, DeviceError> {
    assert_eq!(y.len(), x.cols, "y length mismatch");
    assert_eq!(u.len(), x.rows, "u length mismatch");
    assert_eq!(w_partial.len(), x.cols, "w length mismatch");
    let (m, n) = (x.rows, x.cols);
    let (vs, c) = (plan.vs, plan.c);
    let nv = plan.vectors_per_block();
    let total_vectors = plan.total_vectors();
    let cfg = LaunchConfig::new(plan.grid, plan.bs)
        .with_regs(plan.regs)
        .with_shared_bytes(plan.shared_bytes);
    // The matrix's strip table, which both variants replay.
    let t = strip_table(gpu, x, plan);

    if plan.use_shared_w {
        gpu.try_launch("fused_sparse_shard", cfg, |blk| {
            let sd = blk.shared_f64(n);
            zero_shared(blk, sd, n);
            blk.sync();

            let block_id = blk.block_id();
            each_row_warp(blk, nv, vs, m, |wc| {
                let tid0 = wc.tid(0);
                for ci in 0..c {
                    let Some(rows) = lane_rows(block_id, nv, total_vectors, vs, tid0, ci, m) else {
                        break;
                    };
                    // The shard twist: the row step also persists p_r to u
                    // (one store per row), the epilogue's input.
                    fused_row_step(wc, x, &t, y, v, Some(u), rows, |wc, s, cols, contrib| {
                        wc.shared_atomic_add_replay(sd, s.conflicts, s.mask, |lane| {
                            (cols[lane] as usize, contrib[lane])
                        });
                    });
                }
            });

            blk.sync();
            flush_shared(blk, sd, w_partial, alpha, n);
        })
    } else {
        gpu.try_launch("fused_sparse_shard", cfg, |blk| {
            let block_id = blk.block_id();
            each_row_warp(blk, nv, vs, m, |wc| {
                let tid0 = wc.tid(0);
                for ci in 0..c {
                    let Some(rows) = lane_rows(block_id, nv, total_vectors, vs, tid0, ci, m) else {
                        break;
                    };
                    // The shard twist: the row step also persists p_r to u
                    // (one store per row), the epilogue's input.
                    fused_row_step(wc, x, &t, y, v, Some(u), rows, |wc, s, cols, contrib| {
                        wc.atomic_add_f64(w_partial, |lane| {
                            s.has(lane)
                                .then(|| (cols[lane] as usize, alpha * contrib[lane]))
                        });
                    });
                }
            });
        })
    }
}

/// One shard's device: the device copy of its range plus working buffers.
struct Shard {
    /// Device index within the group.
    ordinal: usize,
    /// Device copy the shard kernels run over.
    dev: GpuCsr,
    /// Per-row `p_r` values written by the shard kernel (length `rows`).
    u: GpuBuffer,
    /// Device replica of the column-dimension input vector (length n).
    y_rep: GpuBuffer,
    /// Device replica of the shard's slice of `v` / `u` inputs (length
    /// `rows`).
    v_rep: GpuBuffer,
    /// Row-dimension output / input scratch (length `rows`).
    p: GpuBuffer,
    /// Shard-local partial `w` the epilogue scatter targets (length n).
    w_partial: GpuBuffer,
}

/// Row-sharded fused-pattern engine over the alive devices of a
/// [`DeviceGroup`]. Operations take host slices and produce host results;
/// the canonical epilogue reduction makes them bit-identical for any
/// shard count (see the module docs).
pub struct ShardedExecutor<'g> {
    group: &'g DeviceGroup,
    /// The first device alive at construction.
    root: &'g Gpu,
    /// One range per shard, in shard order. Its wall clock runs, per step,
    /// the *maximum* across shards (they run concurrently) plus
    /// interconnect time — not the sum of launches.
    ranges: RowRanges,
    shards: Vec<Shard>,
    straggler_factor: f64,
    speculation: bool,
    stragglers_detected: usize,
    speculative_reexecs: usize,
}

impl<'g> ShardedExecutor<'g> {
    /// Shard `x` row-wise across the group's alive devices and upload each
    /// slice. Fails with a typed error when no device is alive or the
    /// matrix is empty (the runtime ladder degrades instead of aborting).
    pub fn try_new(group: &'g DeviceGroup, x: &CsrMatrix) -> Result<Self, DeviceError> {
        let alive = group.alive_ordinals();
        Self::try_new_on(group, x, &alive)
    }

    /// Like [`Self::try_new`] but sharding only across the given device
    /// ordinals (already-lost ordinals are skipped) — the runtime's
    /// single-device fallback tier pins the job to one survivor this way
    /// while keeping the canonical sharded numerics.
    pub fn try_new_on(
        group: &'g DeviceGroup,
        x: &CsrMatrix,
        ordinals: &[usize],
    ) -> Result<Self, DeviceError> {
        let alive: Vec<usize> = ordinals
            .iter()
            .copied()
            .filter(|&o| group.alive(o))
            .collect();
        if alive.is_empty() {
            // Constructing on a fully-dead group: surface the loss of the
            // last device so the ladder sees a device-loss, not a crash.
            return Err(DeviceError::DeviceLost {
                device: group.len().saturating_sub(1),
                fault_index: 0,
            });
        }
        let mut ranges = RowRanges::new(x);
        let mut shards = Vec::new();
        for (i, (start, end)) in shard_rows(x.rows(), alive.len()).into_iter().enumerate() {
            if start == end {
                continue; // fewer rows than devices: this device idles
            }
            let ordinal = alive[i];
            let gpu = group.device(ordinal);
            let host = &ranges.push(x, start, end).host;
            let rows = end - start;
            let n = x.cols();
            let dev = GpuCsr::try_upload(gpu, &format!("shard{ordinal}.X"), host)?;
            shards.push(Shard {
                ordinal,
                dev,
                u: gpu.try_alloc_f64(&format!("shard{ordinal}.u"), rows)?,
                y_rep: gpu.try_alloc_f64(&format!("shard{ordinal}.y"), n)?,
                v_rep: gpu.try_alloc_f64(&format!("shard{ordinal}.v"), rows)?,
                p: gpu.try_alloc_f64(&format!("shard{ordinal}.p"), rows)?,
                w_partial: gpu.try_alloc_f64(&format!("shard{ordinal}.w"), n)?,
            });
        }
        Ok(ShardedExecutor {
            group,
            root: group.device(alive[0]),
            ranges,
            shards,
            straggler_factor: 3.0,
            speculation: true,
            stragglers_detected: 0,
            speculative_reexecs: 0,
        })
    }

    /// The first device alive at construction: where a solver keeps its
    /// vectors and runs BLAS-1.
    pub fn root(&self) -> &'g Gpu {
        self.root
    }

    /// Number of non-empty shards (devices doing work).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Global row range of each non-empty shard, ascending.
    pub fn shard_ranges(&self) -> Vec<(usize, usize)> {
        self.ranges
            .iter()
            .map(|r| (r.start, r.rows().end))
            .collect()
    }

    /// Override the straggler deadline (multiple of the median shard time;
    /// must be > 1). `speculation: false` disables re-execution, keeping
    /// detection counters only.
    pub fn with_straggler_policy(mut self, factor: f64, speculation: bool) -> Self {
        assert!(factor > 1.0, "straggler deadline factor must exceed 1");
        self.straggler_factor = factor;
        self.speculation = speculation;
        self
    }

    /// Shards whose first attempt missed the modelled-time deadline.
    pub fn stragglers_detected(&self) -> usize {
        self.stragglers_detected
    }

    /// Speculative re-executions launched for straggling shards.
    pub fn speculative_reexecs(&self) -> usize {
        self.speculative_reexecs
    }

    /// Shard `i` and its device.
    fn shard(&self, i: usize) -> (&Shard, &'g Gpu) {
        let shard = &self.shards[i];
        (shard, self.group.device(shard.ordinal))
    }

    /// Shard `i`'s launch plan for the fused kernels: tuned for its row
    /// count with the group-wide `VS`.
    fn shard_plan(&mut self, i: usize) -> Result<SparsePlan, DeviceError> {
        let spec = self.group.device(self.shards[i].ordinal).spec();
        self.ranges.plan(spec, self.ranges[i].host.rows())
    }

    /// Run `f(self, i)` once per shard `i` (it plans only if its launches
    /// take a plan), apply the straggler policy, and account the step:
    /// wall time is the max effective shard time, every launch's stats
    /// (including failed-speculation survivors) are kept for the counters.
    /// The first error aborts the step — launches performed before the
    /// fault still cost simulated time.
    fn run_shards(
        &mut self,
        f: impl Fn(&mut Self, usize) -> Result<Vec<LaunchStats>, DeviceError>,
    ) -> Result<(), DeviceError> {
        let mut times = Vec::with_capacity(self.shards.len());
        let mut step_launches: Vec<LaunchStats> = Vec::new();
        for i in 0..self.shards.len() {
            match f(self, i) {
                Ok(stats) => {
                    times.push(stats.iter().map(|s| s.sim_ms()).sum::<f64>());
                    step_launches.extend(stats);
                }
                Err(e) => {
                    self.ranges.launches.extend(step_launches);
                    return Err(e);
                }
            }
        }

        // Straggler detection against the modelled-time deadline: median
        // of the (deterministic) shard times, scaled by the policy factor.
        if times.len() >= 2 {
            let mut sorted = times.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
            let median = sorted[sorted.len() / 2];
            let deadline = self.straggler_factor * median;
            for i in 0..self.shards.len() {
                if times[i] <= deadline {
                    continue;
                }
                self.stragglers_detected += 1;
                if fusedml_trace::is_enabled() {
                    fusedml_trace::instant(
                        "shard",
                        "shard.straggler",
                        "host",
                        &[
                            ("device", self.shards[i].ordinal.into()),
                            ("shard_ms", times[i].into()),
                            ("deadline_ms", deadline.into()),
                            ("speculate", self.speculation.into()),
                        ],
                    );
                }
                if !self.speculation {
                    continue;
                }
                // Speculative re-execution: fresh launch, fresh fault
                // draws; numerics are deterministic so the faster attempt
                // is interchangeable with the slow one.
                match f(self, i) {
                    Ok(stats) => {
                        self.speculative_reexecs += 1;
                        let retry_ms = stats.iter().map(|s| s.sim_ms()).sum::<f64>();
                        times[i] = times[i].min(retry_ms);
                        step_launches.extend(stats);
                    }
                    Err(e) => {
                        self.ranges.launches.extend(step_launches);
                        return Err(e);
                    }
                }
            }
        }

        self.ranges
            .add_wall_ms(times.iter().fold(0.0f64, |a, &b| a.max(b)));
        self.ranges.launches.extend(step_launches);
        Ok(())
    }

    /// Charge moving one column-dimension vector (n doubles) between the
    /// root and every non-root shard device: the broadcast of an input
    /// before a step, or the fused-epilogue reduction of each partial `w`
    /// after it (no separate kernel launch).
    fn charge_cols(&mut self) {
        for _ in 1..self.shards.len() {
            let ms = self.group.charge_transfer((self.ranges.cols() * 8) as u64);
            self.ranges.add_wall_ms(ms);
        }
    }

    /// Charge moving each non-root shard's row-dimension slice.
    fn charge_row_slices(&mut self) {
        for i in 1..self.shards.len() {
            let ms = self
                .group
                .charge_transfer((self.ranges[i].host.rows() * 8) as u64);
            self.ranges.add_wall_ms(ms);
        }
    }
}

/// Host-slice API; see the module docs for the bit-identity contract.
impl RowRangeExecutor for ShardedExecutor<'_> {
    fn ranges(&self) -> &RowRanges {
        &self.ranges
    }

    fn ranges_mut(&mut self) -> &mut RowRanges {
        &mut self.ranges
    }

    fn try_pattern_host(
        &mut self,
        spec: PatternSpec,
        v: Option<&[f64]>,
        y: &[f64],
        z: Option<&[f64]>,
        w: &mut [f64],
    ) -> Result<(), DeviceError> {
        let (rows, cols) = (self.ranges.rows(), self.ranges.cols());
        assert_eq!(spec.with_v, v.is_some(), "v presence mismatch");
        assert_eq!(spec.with_z, z.is_some(), "z presence mismatch");
        assert_eq!(y.len(), cols, "y length mismatch");
        assert_eq!(w.len(), cols, "w length mismatch");
        if let Some(v) = v {
            assert_eq!(v.len(), rows, "v length mismatch");
        }
        if let Some(z) = z {
            assert_eq!(z.len(), cols, "z length mismatch");
        }

        // Broadcast the inputs to every shard device.
        for (range, shard) in self.ranges.iter().zip(&self.shards) {
            shard.y_rep.copy_from_f64(y);
            if let Some(v) = v {
                shard.v_rep.copy_from_f64(&v[range.rows()]);
            }
        }
        self.charge_cols();
        if v.is_some() {
            self.charge_row_slices();
        }

        let with_v = v.is_some();
        let alpha = spec.alpha;
        self.run_shards(|ex, i| {
            let plan = &ex.shard_plan(i)?;
            let (shard, gpu) = ex.shard(i);
            let fill = level1::try_fill(gpu, &shard.w_partial, 0.0)?;
            let stats = try_fused_pattern_shard(
                gpu,
                plan,
                &shard.dev,
                with_v.then_some(&shard.v_rep),
                &shard.y_rep,
                &shard.u,
                &shard.w_partial,
                alpha,
            )?;
            Ok(vec![fill, stats])
        })?;
        self.charge_cols();

        self.ranges.epilogue_init(w, spec.beta, z);
        for (range, shard) in self.ranges.iter().zip(&self.shards) {
            range.epilogue_rows(w, spec.alpha, &shard.u.to_vec_f64());
        }
        Ok(())
    }

    fn try_mv_host(&mut self, y: &[f64], out: &mut [f64]) -> Result<(), DeviceError> {
        assert_eq!(y.len(), self.ranges.cols(), "y length mismatch");
        assert_eq!(out.len(), self.ranges.rows(), "out length mismatch");
        for shard in &self.shards {
            shard.y_rep.copy_from_f64(y);
        }
        self.charge_cols();

        let vs = self.ranges.base_vs();
        self.run_shards(|ex, i| {
            let (shard, gpu) = ex.shard(i);
            Ok(vec![try_csrmv(
                gpu,
                &shard.dev,
                &shard.y_rep,
                &shard.p,
                // VS fixed from the full matrix: a shard's own mean
                // nnz/row may differ, and letting it drift would change
                // the reduction order across shard counts.
                SpmvStyle::Vector { vs },
            )?])
        })?;
        self.charge_row_slices();

        for (range, shard) in self.ranges.iter().zip(&self.shards) {
            out[range.rows()].copy_from_slice(&shard.p.to_vec_f64());
        }
        Ok(())
    }

    fn try_tmv_host(&mut self, alpha: f64, u: &[f64], out: &mut [f64]) -> Result<(), DeviceError> {
        assert_eq!(u.len(), self.ranges.rows(), "u length mismatch");
        assert_eq!(out.len(), self.ranges.cols(), "out length mismatch");
        for (range, shard) in self.ranges.iter().zip(&self.shards) {
            shard.v_rep.copy_from_f64(&u[range.rows()]);
        }
        self.charge_row_slices();

        self.run_shards(|ex, i| {
            let plan = &ex.shard_plan(i)?;
            let (shard, gpu) = ex.shard(i);
            let fill = level1::try_fill(gpu, &shard.w_partial, 0.0)?;
            let stats = if plan.use_shared_w {
                try_fused_xt_p_shared(gpu, plan, alpha, &shard.dev, &shard.v_rep, &shard.w_partial)?
            } else {
                try_fused_xt_p_global(gpu, plan, alpha, &shard.dev, &shard.v_rep, &shard.w_partial)?
            };
            Ok(vec![fill, stats])
        })?;
        self.charge_cols();

        self.ranges.epilogue_tmv(out, alpha, u);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusedml_gpu_sim::{DeviceSpec, FaultProfile, InterconnectSpec};
    use fusedml_matrix::gen::{random_vector, uniform_sparse};
    use fusedml_matrix::reference;

    fn group(n: usize, profile: FaultProfile) -> DeviceGroup {
        DeviceGroup::new(
            DeviceSpec::gtx_titan(),
            n,
            InterconnectSpec::pcie_gen3_x16(),
            &profile,
        )
    }

    #[test]
    fn shard_rows_balances_and_handles_edges() {
        assert_eq!(shard_rows(10, 2), vec![(0, 5), (5, 10)]);
        // Non-dividing: first shards get the extra rows.
        assert_eq!(shard_rows(7, 3), vec![(0, 3), (3, 5), (5, 7)]);
        // Fewer rows than shards: trailing shards are empty.
        assert_eq!(shard_rows(2, 4), vec![(0, 1), (1, 2), (2, 2), (2, 2)]);
        assert_eq!(shard_rows(0, 3), vec![(0, 0), (0, 0), (0, 0)]);
        // Every partition is contiguous and covers all rows.
        for (rows, n) in [(1, 1), (1, 5), (97, 4), (160, 3)] {
            let r = shard_rows(rows, n);
            assert_eq!(r.len(), n);
            assert_eq!(r[0].0, 0);
            assert_eq!(r[n - 1].1, rows);
            for pair in r.windows(2) {
                assert_eq!(pair[0].1, pair[1].0);
            }
        }
    }

    #[test]
    fn pattern_is_bit_identical_across_shard_counts() {
        let x = uniform_sparse(160, 24, 0.15, 401);
        let y = random_vector(24, 402);
        let v = random_vector(160, 403);
        let z = random_vector(24, 404);
        let spec = PatternSpec::full(1.25, -0.5);
        let run = |n: usize| {
            let g = group(n, FaultProfile::disabled());
            let mut ex = ShardedExecutor::try_new(&g, &x).unwrap();
            let mut w = vec![0.0; 24];
            ex.try_pattern_host(spec, Some(&v), &y, Some(&z), &mut w)
                .unwrap();
            assert!(ex.ranges().wall_ms() > 0.0);
            w
        };
        let w1 = run(1);
        let w2 = run(2);
        let w3 = run(3);
        let bits = |w: &[f64]| w.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&w1), bits(&w2), "1 vs 2 devices");
        assert_eq!(bits(&w1), bits(&w3), "1 vs 3 devices");
        let expect = reference::pattern_csr(1.25, &x, Some(&v), &y, -0.5, Some(&z));
        assert!(reference::rel_l2_error(&w1, &expect) < 1e-12);
    }

    #[test]
    fn mv_and_tmv_are_bit_identical_across_shard_counts() {
        let x = uniform_sparse(90, 40, 0.12, 411);
        let y = random_vector(40, 412);
        let u = random_vector(90, 413);
        let run = |n: usize| {
            let g = group(n, FaultProfile::disabled());
            let mut ex = ShardedExecutor::try_new(&g, &x).unwrap();
            let mut p = vec![0.0; 90];
            let mut w = vec![0.0; 40];
            ex.try_mv_host(&y, &mut p).unwrap();
            ex.try_tmv_host(2.0, &u, &mut w).unwrap();
            (p, w)
        };
        let (p1, w1) = run(1);
        let (p3, w3) = run(3);
        assert_eq!(
            p1.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            p3.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
        assert_eq!(
            w1.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            w3.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
        assert!(reference::rel_l2_error(&p1, &reference::csr_mv(&x, &y)) < 1e-12);
        let mut expect = reference::csr_tmv(&x, &u);
        reference::scal(2.0, &mut expect);
        assert!(reference::rel_l2_error(&w1, &expect) < 1e-12);
    }

    #[test]
    fn shard_boundary_edge_cases() {
        // Satellite coverage: rows < devices (empty shards skipped),
        // single-row matrices, and non-dividing row counts all flow
        // through the sharded pattern kernel bit-identically.
        for (rows, devices) in [(3usize, 4usize), (1, 3), (7, 3), (5, 5)] {
            let x = uniform_sparse(rows, 12, 0.5, 420 + rows as u64);
            let y = random_vector(12, 421);
            let g = group(devices, FaultProfile::disabled());
            let mut ex = ShardedExecutor::try_new(&g, &x).unwrap();
            assert_eq!(ex.shard_count(), rows.min(devices));
            let mut w = vec![0.0; 12];
            ex.try_pattern_host(PatternSpec::xtxy(), None, &y, None, &mut w)
                .unwrap();

            let g1 = group(1, FaultProfile::disabled());
            let mut ex1 = ShardedExecutor::try_new(&g1, &x).unwrap();
            let mut w1 = vec![0.0; 12];
            ex1.try_pattern_host(PatternSpec::xtxy(), None, &y, None, &mut w1)
                .unwrap();
            assert_eq!(
                w.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                w1.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                "{rows} rows on {devices} devices"
            );
            let expect = reference::pattern_csr(1.0, &x, None, &y, 0.0, None);
            assert!(reference::rel_l2_error(&w, &expect) < 1e-12);
        }
    }

    #[test]
    fn empty_matrix_is_a_typed_error() {
        let x = CsrMatrix::empty(0, 8);
        let g = group(2, FaultProfile::disabled());
        let mut ex = ShardedExecutor::try_new(&g, &x).unwrap();
        assert_eq!(ex.shard_count(), 0);
        // No shards: the pattern is a pure beta*z epilogue.
        let z = vec![3.0; 8];
        let mut w = vec![0.0; 8];
        ex.try_pattern_host(
            PatternSpec::xtxy_plus_bz(0.5),
            None,
            &[1.0; 8],
            Some(&z),
            &mut w,
        )
        .unwrap();
        assert_eq!(w, vec![1.5; 8]);
    }

    #[test]
    fn device_loss_surfaces_as_device_lost() {
        let x = uniform_sparse(64, 16, 0.2, 431);
        let y = random_vector(16, 432);
        let g = group(2, FaultProfile::seeded(0xDEAD).with_device_loss_rate(1.0));
        let mut ex = ShardedExecutor::try_new(&g, &x).unwrap();
        let mut w = vec![0.0; 16];
        let err = ex
            .try_pattern_host(PatternSpec::xtxy(), None, &y, None, &mut w)
            .unwrap_err();
        assert_eq!(err.kind(), "device-lost");
        assert!(g.alive_count() < 2);
    }

    #[test]
    fn constructing_on_a_dead_group_fails_typed() {
        let g = group(2, FaultProfile::disabled());
        g.mark_lost(0);
        g.mark_lost(1);
        let x = uniform_sparse(10, 8, 0.4, 441);
        let err = match ShardedExecutor::try_new(&g, &x) {
            Err(e) => e,
            Ok(_) => panic!("construction on a dead group must fail"),
        };
        assert_eq!(err.kind(), "device-lost");
    }

    #[test]
    fn resharding_after_loss_is_bit_identical() {
        let x = uniform_sparse(120, 20, 0.15, 451);
        let y = random_vector(20, 452);
        let g = group(3, FaultProfile::disabled());

        let mut ex = ShardedExecutor::try_new(&g, &x).unwrap();
        assert_eq!(ex.shard_count(), 3);
        let mut w3 = vec![0.0; 20];
        ex.try_pattern_host(PatternSpec::xtxy(), None, &y, None, &mut w3)
            .unwrap();

        // Lose a device, reshard across the survivors.
        g.mark_lost(1);
        let mut ex = ShardedExecutor::try_new(&g, &x).unwrap();
        assert_eq!(ex.shard_count(), 2);
        assert_eq!(ex.shard_ranges(), vec![(0, 60), (60, 120)]);
        let mut w2 = vec![0.0; 20];
        ex.try_pattern_host(PatternSpec::xtxy(), None, &y, None, &mut w2)
            .unwrap();
        assert_eq!(
            w3.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            w2.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn stragglers_are_detected_and_speculatively_reexecuted() {
        let x = uniform_sparse(150, 24, 0.15, 461);
        let y = random_vector(24, 462);
        let clean = {
            let g = group(3, FaultProfile::disabled());
            let mut ex = ShardedExecutor::try_new(&g, &x).unwrap();
            let mut w = vec![0.0; 24];
            for _ in 0..6 {
                ex.try_pattern_host(PatternSpec::xtxy(), None, &y, None, &mut w)
                    .unwrap();
            }
            assert_eq!(ex.stragglers_detected(), 0);
            w
        };

        let g = group(3, FaultProfile::seeded(0x57A6).with_straggler(0.35, 10.0));
        let mut ex = ShardedExecutor::try_new(&g, &x).unwrap();
        let mut w = vec![0.0; 24];
        for _ in 0..6 {
            ex.try_pattern_host(PatternSpec::xtxy(), None, &y, None, &mut w)
                .unwrap();
        }
        assert!(ex.stragglers_detected() > 0, "seeded slowdown not detected");
        assert!(ex.speculative_reexecs() > 0);
        // Slow shards never change the numbers.
        assert_eq!(
            w.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            clean.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
        // Re-executions add launches beyond the clean 2-per-shard-per-step.
        assert!(ex.ranges().launch_count() > 6 * 2 * 3);
    }

    #[test]
    fn shard_plans_hold_vs_fixed() {
        let x = uniform_sparse(200, 32, 0.1, 471);
        let g = group(4, FaultProfile::disabled());
        let mut ex = ShardedExecutor::try_new(&g, &x).unwrap();
        ex.ranges_mut().set_plan_cache(true);
        let vs = ex.ranges().base_vs();
        // The second pass hits the cache.
        for _ in 0..2 {
            for i in 0..ex.shard_count() {
                let plan = ex.shard_plan(i).unwrap();
                assert_eq!(plan.vs, vs, "shard planning must not re-derive VS");
            }
        }
        let stats = ex.ranges().plan_stats();
        assert!(stats.hits >= ex.shard_count() as u64);
    }
}
