//! The analytical launch-parameter model of §3.3.
//!
//! Given matrix statistics and the device's resource limits, choose:
//! * sparse kernels — vector size `VS` (Equation 4), block size `BS`
//!   (occupancy-maximizing over `{32, 64, ..., 1024}`), and coarsening
//!   factor `C` (Equation 5, one "wave" of resident vectors covering all
//!   rows);
//! * dense kernels — thread load `TL` (register-count-aware, excluding
//!   wasted warps), block size `BS` (minimum granule, 128, to bound
//!   inter-vector synchronization) and `VS` (Equation 6), with the paper's
//!   `n <= 32` special case (`BS = 1024`, `TL = 1`).

use fusedml_blas::vector_size_for_mean_nnz;
use fusedml_gpu_sim::{
    occupancy, DeviceError, DeviceSpec, Occupancy, LATENCY_HIDING_KNEE, WARP_LANES,
};
use serde::{Deserialize, Serialize};

/// Why the launch-parameter model could not produce a plan. Planning is
/// pure arithmetic over the device limits, so these are deterministic:
/// retrying cannot help, but degrading to the baseline engine (whose
/// kernels have smaller footprints) or to the CPU can — hence the
/// conversion into [`DeviceError`] (a permanent, non-transient fault) for
/// propagation through the executor and the recovery ladder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// The matrix has a zero dimension; there is nothing to plan for.
    EmptyMatrix { m: usize, n: usize },
    /// No launch configuration satisfies the device's resource limits
    /// (registers, shared memory, block size) for this problem shape.
    NoFeasibleConfig {
        /// Which planner failed (`"sparse"` or `"dense"`).
        kernel: &'static str,
        device: String,
        m: usize,
        n: usize,
        detail: String,
    },
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::EmptyMatrix { m, n } => {
                write!(f, "cannot plan a fused kernel for an empty {m}x{n} matrix")
            }
            PlanError::NoFeasibleConfig {
                kernel,
                device,
                m,
                n,
                detail,
            } => write!(
                f,
                "no feasible {kernel} launch plan for {m}x{n} on {device}: {detail}"
            ),
        }
    }
}

impl std::error::Error for PlanError {}

impl From<PlanError> for DeviceError {
    fn from(e: PlanError) -> Self {
        let kernel = match &e {
            PlanError::EmptyMatrix { .. } => "tuner",
            PlanError::NoFeasibleConfig { kernel, .. } => kernel,
        };
        DeviceError::InvalidLaunch {
            kernel: kernel.to_string(),
            detail: e.to_string(),
        }
    }
}

/// Register footprint of the sparse fused kernel, as measured by the paper
/// with the NVIDIA Visual Profiler (§3.3: "Our kernel requires 43 registers
/// per thread").
pub const SPARSE_KERNEL_REGS: u32 = 43;

/// Register footprint of the dense fused kernel as a function of the
/// thread load: 23 registers at `TL = 1` growing to 255 at `TL = 40`
/// (§3.3); beyond 40 the kernel would spill.
pub fn dense_kernel_regs(tl: usize) -> u32 {
    assert!(
        (1..=MAX_TL).contains(&tl),
        "TL must be in [1, 40], got {tl}"
    );
    23 + ((tl as u32 - 1) * 232).div_ceil(39)
}

/// Largest thread load before register spilling (§3.3).
pub const MAX_TL: usize = 40;

/// Launch plan for the sparse fused kernels (Algorithms 1 and 2).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SparsePlan {
    /// Cooperating threads per row (Equation 4).
    pub vs: usize,
    /// Threads per block.
    pub bs: usize,
    /// Thread blocks in the grid (one resident wave).
    pub grid: usize,
    /// Rows per vector (Equation 5).
    pub c: usize,
    /// Declared register footprint.
    pub regs: u32,
    /// Declared shared memory per block: `(BS/VS + n) * 8` for the
    /// shared-memory variant, `(BS/VS) * 8` for the large-n variant.
    pub shared_bytes: usize,
    /// Whether inter-vector aggregation runs in shared memory (small `n`)
    /// or directly in global memory (large `n`, §3.1's extension).
    pub use_shared_w: bool,
    /// Occupancy achieved by this plan.
    pub occupancy: Occupancy,
}

impl SparsePlan {
    /// Vectors per block (`NV`).
    pub fn vectors_per_block(&self) -> usize {
        self.bs / self.vs
    }

    /// Total vectors resident in the grid.
    pub fn total_vectors(&self) -> usize {
        self.grid * self.bs / self.vs
    }
}

/// Can the inter-vector aggregation for `n` output columns run in shared
/// memory on this device with block size `bs` and vector size `vs`?
pub fn fits_in_shared(spec: &DeviceSpec, n: usize, bs: usize, vs: usize) -> bool {
    (bs / vs + n) * 8 <= spec.shared_mem_per_block
}

/// Build the launch plan for a sparse fused kernel over an `m x n` matrix
/// with mean row length `mu`, or report that no feasible configuration
/// exists on this device.
pub fn try_plan_sparse(
    spec: &DeviceSpec,
    m: usize,
    n: usize,
    mu: f64,
) -> Result<SparsePlan, PlanError> {
    let vs = vector_size_for_mean_nnz(mu);
    try_plan_sparse_with_vs(spec, m, n, vs)
}

/// Like [`try_plan_sparse`] but with a caller-chosen `VS` (used by the Fig. 6
/// parameter sweep to hold `VS` fixed while exploring `BS x C`). Reports an
/// empty matrix or a device whose resource limits admit no block size
/// (e.g. small non-Titan parts where even `BS = 32` with the kernel's 43
/// registers and the shared aggregation buffer is over budget).
pub fn try_plan_sparse_with_vs(
    spec: &DeviceSpec,
    m: usize,
    n: usize,
    vs: usize,
) -> Result<SparsePlan, PlanError> {
    if m == 0 || n == 0 {
        return Err(PlanError::EmptyMatrix { m, n });
    }
    // Decide the aggregation strategy at the smallest feasible block size;
    // if even BS=32 cannot host w in shared memory, fall back to global.
    let use_shared_w = fits_in_shared(spec, n, 32, vs);

    // BS sweep over {32, 64, ..., 1024}: maximize resident warps up to the
    // latency-hiding knee (beyond it extra occupancy buys nothing for a
    // memory-bound kernel), then prefer the largest block size — fewer
    // resident blocks means fewer inter-block aggregations (§3.1: "we
    // increase the degree of coarsening C and the block size to their
    // maximum possible values, while achieving the maximum possible
    // occupancy").
    let knee_warps = (spec.max_warps_per_sm() as f64 * LATENCY_HIDING_KNEE).ceil() as usize;
    let eff_warps = |o: &Occupancy| o.warps_per_sm.min(knee_warps);
    let mut best: Option<(usize, Occupancy)> = None;
    for bs_mult in 1..=32 {
        let bs = 32 * bs_mult;
        if bs > spec.max_threads_per_block || bs % vs != 0 {
            continue;
        }
        let shared = shared_bytes_for(n, bs, vs, use_shared_w);
        if let Some(occ) = occupancy(spec, bs, SPARSE_KERNEL_REGS, shared) {
            let better = match &best {
                None => true,
                Some((_, b)) => eff_warps(&occ) >= eff_warps(b),
            };
            if better {
                best = Some((bs, occ));
            }
        }
    }
    let Some((bs, occ)) = best else {
        return Err(PlanError::NoFeasibleConfig {
            kernel: "sparse",
            device: spec.name.clone(),
            m,
            n,
            detail: format!(
                "no block size in {{32..{}}} fits {SPARSE_KERNEL_REGS} regs/thread \
                 and the aggregation buffer (vs={vs}, shared limit {}B)",
                spec.max_threads_per_block, spec.shared_mem_per_block
            ),
        });
    };

    let shared_bytes = shared_bytes_for(n, bs, vs, use_shared_w);

    // One resident wave of blocks; Equation 5 sets C so that wave covers m.
    let grid = (occ.blocks_per_sm * spec.num_sms).max(1);
    let total_vectors = grid * bs / vs;
    let c = m.div_ceil(total_vectors).max(1);

    Ok(SparsePlan {
        vs,
        bs,
        grid,
        c,
        regs: SPARSE_KERNEL_REGS,
        shared_bytes,
        use_shared_w,
        occupancy: occ,
    })
}

/// Build a fully explicit sparse plan (the Fig. 6 sweep explores the
/// `BS x C` space by hand). Returns `None` when the configuration cannot
/// launch: a block that is not whole vectors, or neither one warp nor
/// whole warps; occupancy zero; or shared memory over the limit.
pub fn manual_sparse_plan(
    spec: &DeviceSpec,
    m: usize,
    n: usize,
    vs: usize,
    bs: usize,
    c: usize,
) -> Option<SparsePlan> {
    // A warp's rows are a row group of the matrix's strip table, so a block
    // is one warp or whole warps.
    let whole_warps = bs <= WARP_LANES || bs % WARP_LANES == 0;
    if bs % vs != 0 || !whole_warps || bs > spec.max_threads_per_block || c == 0 {
        return None;
    }
    let use_shared_w = fits_in_shared(spec, n, bs, vs);
    if !use_shared_w {
        return None; // the sweep targets the shared-memory kernel
    }
    let shared_bytes = shared_bytes_for(n, bs, vs, true);
    let occ = occupancy(spec, bs, SPARSE_KERNEL_REGS, shared_bytes)?;
    let nv = bs / vs;
    // Grid sized so one pass of C rows per vector covers the matrix.
    let grid = m.div_ceil(c * nv).max(1);
    Some(SparsePlan {
        vs,
        bs,
        grid,
        c,
        regs: SPARSE_KERNEL_REGS,
        shared_bytes,
        use_shared_w: true,
        occupancy: occ,
    })
}

fn shared_bytes_for(n: usize, bs: usize, vs: usize, use_shared_w: bool) -> usize {
    if use_shared_w {
        (bs / vs + n) * 8
    } else {
        (bs / vs) * 8
    }
}

/// Launch plan for the dense fused kernel (Algorithm 3).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DensePlan {
    /// Threads per vector (Equation 6); `vs == bs` for wide rows.
    pub vs: usize,
    /// Threads per block.
    pub bs: usize,
    /// Elements of a row handled by each thread (the unroll factor the
    /// code generator bakes in).
    pub tl: usize,
    /// Thread blocks in the grid.
    pub grid: usize,
    /// Rows per vector.
    pub c: usize,
    pub regs: u32,
    pub occupancy: Occupancy,
}

impl DensePlan {
    pub fn vectors_per_block(&self) -> usize {
        self.bs / self.vs
    }

    pub fn total_vectors(&self) -> usize {
        self.grid * self.bs / self.vs
    }
}

/// Build the launch plan for the dense fused kernel over an `m x n` matrix.
/// `n` must already be padded to a multiple of the eventual `VS` by the
/// caller-facing executor (§3.2's zero-padding step); the plan reports the
/// `VS` to pad to via [`DensePlan::vs`]. Reports an empty matrix, a device
/// that cannot host the `n <= 32` special case's maximum block, or a row too
/// wide for any thread load (`n > 40 * 128` exceeds the spill-free unroll
/// range).
pub fn try_plan_dense(spec: &DeviceSpec, m: usize, n: usize) -> Result<DensePlan, PlanError> {
    if m == 0 || n == 0 {
        return Err(PlanError::EmptyMatrix { m, n });
    }

    // Special case (§3.3): n <= warp size — use the largest block and one
    // element per thread; sync overhead is nil and big blocks hide latency.
    if n <= spec.warp_size {
        let bs = spec.max_threads_per_block;
        let tl = 1;
        let vs = spec.warp_size;
        let regs = dense_kernel_regs(tl);
        let occ = occupancy(spec, bs, regs, 0).ok_or_else(|| PlanError::NoFeasibleConfig {
            kernel: "dense",
            device: spec.name.clone(),
            m,
            n,
            detail: format!(
                "maximum block BS={bs} with TL=1 ({regs} regs/thread) \
                 exceeds this device's per-SM register file"
            ),
        })?;
        let grid = (occ.blocks_per_sm * spec.num_sms).max(1);
        let total_vectors = grid * bs / vs;
        return Ok(DensePlan {
            vs,
            bs,
            tl,
            grid,
            c: m.div_ceil(total_vectors).max(1),
            regs,
            occupancy: occ,
        });
    }

    // BS = 128: the minimum register-allocation-friendly size, minimizing
    // inter-vector synchronization (§3.3).
    let bs = 128;

    // TL sweep: maximize resident warps, discounting warps wasted by the
    // vector covering more element slots than n (§3.3's refinement).
    let mut best: Option<(usize, usize, f64, Occupancy)> = None; // (tl, vs, eff, occ)
    for tl in 1..=MAX_TL {
        let vs = eq6_vector_size(n, tl, bs);
        let slots = vs * tl;
        if slots < n {
            continue; // vector cannot cover a row
        }
        let regs = dense_kernel_regs(tl);
        let Some(occ) = occupancy(spec, bs, regs, 16) else {
            continue;
        };
        let wasted_warps = (slots - n) / spec.warp_size;
        let warps_per_vector = vs.div_ceil(spec.warp_size);
        let waste_frac = wasted_warps as f64 / warps_per_vector.max(1) as f64;
        // Vectors spanning multiple warps pay two intra-block barriers per
        // row (Algorithm 3 lines 19/22); §3.3 minimizes inter-vector
        // synchronization, modelled as a 2x effective-throughput penalty.
        let sync_penalty = if vs > spec.warp_size { 0.5 } else { 1.0 };
        let eff = occ.warps_per_sm as f64 * (1.0 - waste_frac.min(0.9)) * sync_penalty;
        let better = match &best {
            None => true,
            Some((btl, _, beff, _)) => eff > *beff + 1e-9 || (eff > *beff - 1e-9 && tl < *btl),
        };
        if better {
            best = Some((tl, vs, eff, occ));
        }
    }
    let Some((tl, vs, _, occ)) = best else {
        // Two distinct causes: rows wider than the largest spill-free
        // unroll can cover, or a device whose register file rejects every
        // thread load. Both are permanent for this (device, shape) pair.
        let detail = if n > MAX_TL * bs {
            format!(
                "row width n={n} exceeds the TL<=40 coverage limit of {}",
                MAX_TL * bs
            )
        } else {
            format!(
                "no TL in [1,{MAX_TL}] fits this device's register file \
                 (23..=255 regs/thread at BS={bs})"
            )
        };
        return Err(PlanError::NoFeasibleConfig {
            kernel: "dense",
            device: spec.name.clone(),
            m,
            n,
            detail,
        });
    };

    let grid = (occ.blocks_per_sm * spec.num_sms).max(1);
    let total_vectors = grid * bs / vs;
    Ok(DensePlan {
        vs,
        bs,
        tl,
        grid,
        c: m.div_ceil(total_vectors).max(1),
        regs: dense_kernel_regs(tl),
        occupancy: occ,
    })
}

/// Equation 6: the vector size for a dense kernel given `n` and `TL`.
pub fn eq6_vector_size(n: usize, tl: usize, bs: usize) -> usize {
    let per = n.div_ceil(tl);
    if per > 32 {
        bs
    } else {
        per.next_power_of_two().max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn titan() -> DeviceSpec {
        DeviceSpec::gtx_titan()
    }

    #[test]
    fn dense_regs_match_paper_endpoints() {
        assert_eq!(dense_kernel_regs(1), 23);
        assert_eq!(dense_kernel_regs(40), 255);
        assert!(dense_kernel_regs(20) > dense_kernel_regs(10));
    }

    #[test]
    #[should_panic(expected = "TL must be in")]
    fn dense_regs_reject_oversized_tl() {
        dense_kernel_regs(41);
    }

    #[test]
    fn sparse_plan_for_paper_configuration() {
        // §4.3: 500k x 1k sparse, sparsity 0.01 => mu = 10 => VS = 8;
        // the paper's model picks BS = 640 and C = 223 with 28 blocks.
        let p = try_plan_sparse(&titan(), 500_000, 1000, 10.0).unwrap();
        assert_eq!(p.vs, 8);
        assert!(p.use_shared_w);
        assert!(p.bs >= 512, "block size {} unexpectedly small", p.bs);
        assert!(
            p.occupancy.occupancy >= 0.5,
            "occupancy {}",
            p.occupancy.occupancy
        );
        // One wave covers m in C steps.
        assert!(p.total_vectors() * p.c >= 500_000);
        // C in the neighbourhood of the paper's 223.
        assert!((100..=500).contains(&p.c), "C = {}", p.c);
    }

    #[test]
    fn sparse_plan_switches_to_global_for_large_n() {
        let p = try_plan_sparse(&titan(), 100_000, 1_000_000, 30.0).unwrap();
        assert!(!p.use_shared_w);
        // Occupancy at or beyond the latency-hiding knee (the tuner stops
        // trading block size for warps past that point).
        assert!(p.occupancy.occupancy >= 0.5);
    }

    #[test]
    fn manual_sparse_plans_are_one_warp_or_whole_warps() {
        let spec = titan();
        for bs in [16, 24, 32, 64, 96, 256] {
            assert!(
                manual_sparse_plan(&spec, 1000, 100, 8, bs, 4).is_some(),
                "BS {bs}"
            );
        }
        for bs in [40, 48, 80, 1000] {
            assert!(
                manual_sparse_plan(&spec, 1000, 100, 8, bs, 4).is_none(),
                "BS {bs}"
            );
        }
        assert!(manual_sparse_plan(&spec, 1000, 100, 16, 48, 4).is_none());
    }

    #[test]
    fn sparse_shared_limit_boundary() {
        let spec = titan();
        // 48KB / 8 = 6144 doubles; minus BS/VS slots — the paper's "close
        // to 6K" limit.
        assert!(fits_in_shared(&spec, 6000, 32, 8));
        assert!(!fits_in_shared(&spec, 6200, 32, 8));
    }

    #[test]
    fn dense_plan_higgs_special_case() {
        // HIGGS has n = 28 <= 32: BS = 1024, TL = 1 (§3.3).
        let p = try_plan_dense(&titan(), 1_000_000, 28).unwrap();
        assert_eq!(p.bs, 1024);
        assert_eq!(p.tl, 1);
        assert_eq!(p.vs, 32);
    }

    #[test]
    fn dense_plan_covers_row() {
        for n in [64usize, 200, 512, 1000, 2048] {
            let p = try_plan_dense(&titan(), 10_000, n).unwrap();
            assert!(
                p.vs * p.tl >= n,
                "n={n}: vs={} tl={} does not cover the row",
                p.vs,
                p.tl
            );
            assert!(p.tl <= MAX_TL);
            assert!(p.total_vectors() * p.c >= 10_000);
        }
    }

    #[test]
    fn eq6_cases() {
        assert_eq!(eq6_vector_size(200, 7, 128), 32); // paper's example
        assert_eq!(eq6_vector_size(200, 2, 128), 128); // 100 > 32 => BS
        assert_eq!(eq6_vector_size(16, 1, 128), 16);
        assert_eq!(eq6_vector_size(1, 1, 128), 1);
    }

    /// A device whose register file cannot host even one warp of the
    /// sparse kernel (43 regs/thread * 32 threads = 1376 > 1024).
    fn register_starved() -> DeviceSpec {
        DeviceSpec {
            name: "register-starved test device".to_string(),
            registers_per_sm: 1024,
            ..DeviceSpec::gtx_titan()
        }
    }

    #[test]
    fn sparse_plan_rejects_empty_matrix_with_typed_error() {
        let e = try_plan_sparse(&titan(), 0, 100, 5.0).unwrap_err();
        assert_eq!(e, PlanError::EmptyMatrix { m: 0, n: 100 });
        let e = try_plan_sparse(&titan(), 100, 0, 5.0).unwrap_err();
        assert_eq!(e, PlanError::EmptyMatrix { m: 100, n: 0 });
    }

    #[test]
    fn sparse_plan_reports_infeasible_device_instead_of_panicking() {
        // Regression: this used to panic "no feasible block size" deep in
        // the tuner; now it is a typed, permanent error the recovery
        // ladder can degrade on.
        let e = try_plan_sparse(&register_starved(), 10_000, 500, 8.0).unwrap_err();
        match &e {
            PlanError::NoFeasibleConfig { kernel, device, .. } => {
                assert_eq!(*kernel, "sparse");
                assert!(device.contains("register-starved"));
            }
            other => panic!("expected NoFeasibleConfig, got {other:?}"),
        }
        let de = fusedml_gpu_sim::DeviceError::from(e);
        assert!(!de.is_transient(), "planning failures are permanent");
    }

    #[test]
    fn dense_plan_reports_infeasible_device_instead_of_panicking() {
        // Regression: the n <= 32 special case unwrapped occupancy() on the
        // assumption every device hosts BS=1024 at 23 regs/thread.
        let e = try_plan_dense(&register_starved(), 10_000, 28).unwrap_err();
        assert!(matches!(
            e,
            PlanError::NoFeasibleConfig {
                kernel: "dense",
                ..
            }
        ));
    }

    #[test]
    fn dense_plan_reports_uncoverable_row_width() {
        // Latent bug: even on the Titan, n > 40*128 = 5120 has no covering
        // thread load; this used to hit the "some TL always covers" panic.
        let e = try_plan_dense(&titan(), 1000, MAX_TL * 128 + 1).unwrap_err();
        match e {
            PlanError::NoFeasibleConfig { kernel, detail, .. } => {
                assert_eq!(kernel, "dense");
                assert!(detail.contains("coverage limit"), "detail: {detail}");
            }
            other => panic!("expected NoFeasibleConfig, got {other:?}"),
        }
    }

    #[test]
    fn paper_wasted_warp_example() {
        // BS=128, TL=2, n=200: vector = block, 2*128 - 200 = 56 slots -> 1
        // wasted warp. With TL=7, VS=32: 224 - 200 = 24 -> 0 wasted warps.
        let spec = titan();
        let p = try_plan_dense(&spec, 100_000, 200).unwrap();
        let wasted = (p.vs * p.tl - 200) / spec.warp_size;
        assert_eq!(wasted, 0, "plan {p:?} wastes a warp");
    }
}
