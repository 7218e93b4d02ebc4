//! Cost-based fusion-plan compiler and executor for operator DAGs.
//!
//! Given a [`Dag`] and the bound matrix's statistics, the
//! compiler enumerates candidate plans — partitions of the DAG into kernel
//! groups, where a group is one fused kernel and interior values live in
//! registers/shared memory instead of device DRAM — prices each candidate
//! with the gpu-sim chain cost model ([`fusedml_gpu_sim::cost`]), and
//! selects the cheapest. Selection is a pure function of the device spec,
//! the DAG structure and the matrix shape, so plans are memoized in the
//! PR-4 plan cache under a DAG-fingerprint key and are deterministic for a
//! fixed [`DeviceSpec`].
//!
//! ## Candidate enumeration rules
//!
//! * **pattern**: the Equation-1 chain `Mv → (EwMul v) → Tmv → (Scale) →
//!   (Axpy z)` with single-consumer interior edges collapses into the
//!   hand-fused pattern kernel (zero-fill + one fused kernel).
//! * **tmv-fold**: `Tmv → Scale` folds the scalar into the fused
//!   `alpha * X^T u` kernel.
//! * **ew**: maximal single-consumer chains of element-wise ops
//!   (`EwMul`/`Scale`/`Axpy` linked through their primary operand) fuse
//!   into one map kernel; interior values stay in registers.
//! * everything else executes one kernel per operator (`Dot` never
//!   fuses — it ends a chain by materializing its operands).
//!
//! Candidates are generated most-fused-first and ties in modeled cost
//! break toward the earlier (more fused) candidate, deterministically.

use crate::dag::{Dag, Dim, NodeId, Op, ScalarRef};
use crate::executor::FusedExecutor;
use crate::pattern::PatternSpec;
use crate::plancache::{Invalidation, PlanCacheStats};
use fusedml_blas::level1;
use fusedml_blas::{
    try_csrmv, try_gemv, try_gemv_t, vector_size_for_mean_nnz, GpuCsr, GpuDense, SpmvStyle,
};
use fusedml_gpu_sim::cost::{estimate_fused_kernel, ChainOp};
use fusedml_gpu_sim::{
    DeviceError, DeviceSpec, Gpu, GpuBuffer, LaunchConfig, LaunchStats, WARP_LANES,
};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Matrix statistics the cost model consumes; part of the plan-cache key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatrixShape {
    pub rows: usize,
    pub cols: usize,
    pub nnz: u64,
    pub dense: bool,
}

impl MatrixShape {
    pub fn of_sparse(x: &GpuCsr) -> Self {
        MatrixShape {
            rows: x.rows,
            cols: x.cols,
            nnz: x.nnz as u64,
            dense: false,
        }
    }

    pub fn of_dense(x: &GpuDense) -> Self {
        MatrixShape {
            rows: x.rows,
            cols: x.cols,
            nnz: x.rows as u64 * x.cols as u64,
            dense: true,
        }
    }

    /// Vector length along `d` for this matrix.
    pub fn dim_len(&self, d: Dim) -> usize {
        match d {
            Dim::Rows => self.rows,
            Dim::Cols => self.cols,
        }
    }
}

/// How one kernel group evaluates its nodes.
#[derive(Debug, Clone, PartialEq)]
pub enum GroupKind {
    /// The whole Equation-1 chain through the hand-fused pattern kernel.
    Pattern {
        mv: NodeId,
        ewmul: Option<NodeId>,
        tmv: NodeId,
        scale: Option<NodeId>,
        axpy: Option<NodeId>,
    },
    /// `alpha * X^T u` with the scale folded into the fused XtY kernel.
    TmvFold { tmv: NodeId, scale: NodeId },
    /// A fused chain of element-wise ops (one map kernel).
    EwChain { nodes: Vec<NodeId> },
    /// One operator, one kernel — the unfused tier.
    Single { node: NodeId },
}

impl GroupKind {
    /// Every node evaluated by this group, in chain order.
    pub fn nodes(&self) -> Vec<NodeId> {
        match self {
            GroupKind::Pattern {
                mv,
                ewmul,
                tmv,
                scale,
                axpy,
            } => {
                let mut v = vec![*mv];
                v.extend(*ewmul);
                v.push(*tmv);
                v.extend(*scale);
                v.extend(*axpy);
                v
            }
            GroupKind::TmvFold { tmv, scale } => vec![*tmv, *scale],
            GroupKind::EwChain { nodes } => nodes.clone(),
            GroupKind::Single { node } => vec![*node],
        }
    }

    /// The node whose value this group writes out.
    pub fn output(&self) -> NodeId {
        *self.nodes().last().unwrap_or(&0)
    }

    /// True when more than one operator shares the kernel.
    pub fn is_fused(&self) -> bool {
        self.nodes().len() > 1
    }

    /// Stable label for dumps and traces.
    pub fn label(&self) -> &'static str {
        match self {
            GroupKind::Pattern { .. } => "pattern",
            GroupKind::TmvFold { .. } => "tmv-fold",
            GroupKind::EwChain { .. } => "ew-chain",
            GroupKind::Single { .. } => "single",
        }
    }

    fn describe(&self, dag: &Dag) -> String {
        let ops: Vec<&str> = self
            .nodes()
            .iter()
            .map(|&n| dag.nodes()[n].label())
            .collect();
        format!("{}[{}]", self.label(), ops.join(","))
    }
}

/// One kernel group of a selected plan, with its modeled price.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelGroup {
    pub kind: GroupKind,
    /// Human/goldenfile description, e.g. `pattern[mv,ewmul,tmv,axpy]`.
    pub desc: String,
    /// Modeled milliseconds from the chain cost estimator.
    pub modeled_ms: f64,
    /// Synthetic DRAM traffic of the estimate.
    pub dram_bytes: u64,
    /// Kernel launches the estimate charges (fills included).
    pub launches: u64,
}

/// A candidate the compiler priced but did not select.
#[derive(Debug, Clone, PartialEq)]
pub struct RejectedCandidate {
    pub desc: String,
    pub modeled_ms: f64,
}

/// The selected fusion plan for one DAG on one device/matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct FusionPlan {
    /// Structural fingerprint of the DAG this plan was compiled for.
    pub dag_fingerprint: u64,
    /// Candidate label, e.g. `pattern+ew`.
    pub desc: String,
    /// Kernel groups in execution (topological) order.
    pub groups: Vec<KernelGroup>,
    /// Total modeled milliseconds (sum over groups).
    pub modeled_ms: f64,
    /// Intermediate nodes written to device DRAM (group outputs,
    /// including the DAG output).
    pub materialized: Vec<NodeId>,
    /// Intermediate nodes fusion keeps in registers/shared memory.
    pub in_registers: Vec<NodeId>,
    /// Every candidate that lost, with its modeled cost.
    pub rejected: Vec<RejectedCandidate>,
}

fn chain_op_for(dag: &Dag, shape: MatrixShape, node: NodeId) -> ChainOp {
    let len = dag
        .dim(node)
        .map(|d| shape.dim_len(d))
        .unwrap_or(shape.rows.max(shape.cols));
    match dag.nodes()[node] {
        Op::Input { .. } => unreachable!("inputs are never scheduled"),
        Op::Mv { .. } if shape.dense => ChainOp::DenseMv {
            rows: shape.rows,
            cols: shape.cols,
        },
        Op::Mv { .. } => ChainOp::SpMv {
            rows: shape.rows,
            cols: shape.cols,
            nnz: shape.nnz,
        },
        Op::Tmv { .. } if shape.dense => ChainOp::DenseTmv {
            rows: shape.rows,
            cols: shape.cols,
        },
        Op::Tmv { .. } => ChainOp::SpTmv {
            rows: shape.rows,
            cols: shape.cols,
            nnz: shape.nnz,
        },
        Op::EwMul { .. } => ChainOp::Map {
            len,
            side_inputs: 1,
            flops_per_elem: 1,
        },
        Op::Scale { .. } => ChainOp::Map {
            len,
            side_inputs: 0,
            flops_per_elem: 1,
        },
        Op::Axpy { .. } => ChainOp::Map {
            len,
            side_inputs: 1,
            flops_per_elem: 2,
        },
        Op::Dot { .. } => ChainOp::Dot { len },
    }
}

fn group_chain(dag: &Dag, shape: MatrixShape, kind: &GroupKind) -> Vec<ChainOp> {
    kind.nodes()
        .iter()
        .map(|&n| chain_op_for(dag, shape, n))
        .collect()
}

/// The Equation-1 chain match, if the DAG contains one.
fn find_pattern(dag: &Dag, consumers: &[u32]) -> Option<GroupKind> {
    let nodes = dag.nodes();
    for (m, op) in nodes.iter().enumerate() {
        if !matches!(op, Op::Mv { .. }) {
            continue;
        }
        // Optional `v ⊙ ·` stage (EwMul is commutative: accept either slot).
        let mut cur = m;
        let mut ewmul = None;
        if consumers[cur] == 1 {
            if let Some((e, side_is_external)) =
                nodes.iter().enumerate().find_map(|(i, n)| match *n {
                    Op::EwMul { a, b } if a == cur || b == cur => {
                        let side = if a == cur { b } else { a };
                        Some((i, side != cur))
                    }
                    _ => None,
                })
            {
                if side_is_external {
                    ewmul = Some(e);
                    cur = e;
                }
            }
        }
        // Mandatory transpose stage.
        if consumers[cur] != 1 {
            continue;
        }
        let Some(t) = nodes.iter().enumerate().find_map(|(i, n)| match *n {
            Op::Tmv { u } if u == cur => Some(i),
            _ => None,
        }) else {
            continue;
        };
        let mut cur = t;
        // Optional scale.
        let mut scale = None;
        if consumers[cur] == 1 {
            if let Some(s) = nodes.iter().enumerate().find_map(|(i, n)| match *n {
                Op::Scale { a, .. } if a == cur => Some(i),
                _ => None,
            }) {
                scale = Some(s);
                cur = s;
            }
        }
        // Optional `+ beta z` (chain must be the accumulated operand `a`).
        let mut axpy = None;
        if consumers[cur] == 1 {
            if let Some(ax) = nodes.iter().enumerate().find_map(|(i, n)| match *n {
                Op::Axpy { a, b, .. } if a == cur && b != cur => Some(i),
                _ => None,
            }) {
                axpy = Some(ax);
            }
        }
        return Some(GroupKind::Pattern {
            mv: m,
            ewmul,
            tmv: t,
            scale,
            axpy,
        });
    }
    None
}

/// All `Tmv → Scale` folds available outside `taken`.
fn find_tmv_folds(dag: &Dag, consumers: &[u32], taken: &[bool]) -> Vec<GroupKind> {
    let nodes = dag.nodes();
    let mut folds = Vec::new();
    for (t, op) in nodes.iter().enumerate() {
        if !matches!(op, Op::Tmv { .. }) || taken[t] || consumers[t] != 1 {
            continue;
        }
        if let Some(s) = nodes.iter().enumerate().find_map(|(i, n)| match *n {
            Op::Scale { a, .. } if a == t && !taken[i] => Some(i),
            _ => None,
        }) {
            folds.push(GroupKind::TmvFold { tmv: t, scale: s });
        }
    }
    folds
}

fn primary_operand(op: &Op) -> Option<NodeId> {
    match *op {
        Op::EwMul { a, .. } | Op::Scale { a, .. } | Op::Axpy { a, .. } => Some(a),
        _ => None,
    }
}

/// Build one candidate partition. `None` when a requested feature has no
/// match in this DAG (the candidate collapses into another).
fn build_candidate(
    dag: &Dag,
    shape: MatrixShape,
    use_pattern: bool,
    use_tmv_fold: bool,
    fuse_ew: bool,
) -> Option<Vec<GroupKind>> {
    let consumers = dag.consumer_counts();
    let mut taken = vec![false; dag.len()];
    let mut groups: Vec<GroupKind> = Vec::new();

    if use_pattern {
        // The fused XtY kernel is sparse+dense, but the full pattern match
        // needs the Mv stage present either way.
        let p = find_pattern(dag, &consumers)?;
        for n in p.nodes() {
            taken[n] = true;
        }
        groups.push(p);
    }
    if use_tmv_fold {
        if shape.dense {
            return None; // the alpha-folding XtY kernel is sparse-only
        }
        let folds = find_tmv_folds(dag, &consumers, &taken);
        if folds.is_empty() {
            return None;
        }
        for f in folds {
            for n in f.nodes() {
                taken[n] = true;
            }
            groups.push(f);
        }
    }

    // Remaining nodes: element-wise chains (when fusing) or singles.
    // `open_tail` maps a chain's current tail node to its index in
    // `chains`; a chain extends only along single-consumer primary edges.
    let mut chains: Vec<Vec<NodeId>> = Vec::new();
    let mut open_tail: BTreeMap<NodeId, usize> = BTreeMap::new();
    for (i, op) in dag.nodes().iter().enumerate() {
        if taken[i] || matches!(op, Op::Input { .. }) {
            continue;
        }
        let is_ew = matches!(op, Op::EwMul { .. } | Op::Scale { .. } | Op::Axpy { .. });
        if is_ew && fuse_ew {
            if let Some(p) = primary_operand(op) {
                if let Some(&ci) = open_tail.get(&p) {
                    if consumers[p] == 1 {
                        open_tail.remove(&p);
                        chains[ci].push(i);
                        open_tail.insert(i, ci);
                        continue;
                    }
                }
            }
            chains.push(vec![i]);
            open_tail.insert(i, chains.len() - 1);
        } else {
            groups.push(GroupKind::Single { node: i });
        }
    }
    for chain in chains {
        if chain.len() >= 2 {
            groups.push(GroupKind::EwChain { nodes: chain });
        } else {
            groups.push(GroupKind::Single { node: chain[0] });
        }
    }
    // Execution order: groups sorted by output node id is topological
    // (node ids are topological and a group's output is its last node).
    groups.sort_by_key(|g| g.output());
    Some(groups)
}

fn invalid_launch(detail: String) -> DeviceError {
    DeviceError::InvalidLaunch {
        kernel: "dag.fusion".to_string(),
        detail,
    }
}

/// Enumerate, price and select the cheapest fusion plan for `dag` on
/// `spec`/`shape`. Deterministic: candidates are generated most-fused
/// first and cost ties keep the earlier candidate.
pub fn select_plan(
    spec: &DeviceSpec,
    dag: &Dag,
    shape: MatrixShape,
) -> Result<FusionPlan, DeviceError> {
    assert!(!dag.is_empty(), "cannot plan an empty DAG");
    // Most-fused-first: ties break toward more fusion.
    let feature_cube = [
        ("pattern+tmv-fold+ew", true, true, true),
        ("pattern+tmv-fold", true, true, false),
        ("pattern+ew", true, false, true),
        ("pattern", true, false, false),
        ("tmv-fold+ew", false, true, true),
        ("tmv-fold", false, true, false),
        ("ew", false, false, true),
        ("unfused", false, false, false),
    ];
    let mut candidates: Vec<(&'static str, Vec<GroupKind>)> = Vec::new();
    for (desc, p, t, e) in feature_cube {
        if let Some(groups) = build_candidate(dag, shape, p, t, e) {
            if !candidates.iter().any(|(_, g)| *g == groups) {
                candidates.push((desc, groups));
            }
        }
    }

    let mut priced: Vec<(&'static str, Vec<KernelGroup>, f64)> = Vec::new();
    for (desc, groups) in candidates {
        let mut kernel_groups = Vec::with_capacity(groups.len());
        let mut total = 0.0f64;
        for kind in groups {
            let chain = group_chain(dag, shape, &kind);
            let est = estimate_fused_kernel(spec, &chain).ok_or_else(|| {
                invalid_launch(format!(
                    "no feasible launch for chain {} on {}",
                    kind.describe(dag),
                    spec.name
                ))
            })?;
            total += est.modeled_ms();
            kernel_groups.push(KernelGroup {
                desc: kind.describe(dag),
                kind,
                modeled_ms: est.modeled_ms(),
                dram_bytes: est.counters.dram_bytes(),
                launches: est.counters.kernel_launches,
            });
        }
        priced.push((desc, kernel_groups, total));
    }

    let best = priced
        .iter()
        .enumerate()
        .min_by(|(ai, a), (bi, b)| a.2.total_cmp(&b.2).then(ai.cmp(bi)))
        .map(|(i, _)| i)
        .ok_or_else(|| invalid_launch("no fusion candidates".to_string()))?;

    let rejected: Vec<RejectedCandidate> = priced
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != best)
        .map(|(_, (desc, _, ms))| RejectedCandidate {
            desc: desc.to_string(),
            modeled_ms: *ms,
        })
        .collect();
    let (desc, groups, modeled_ms) = priced.swap_remove(best);

    let mut materialized = Vec::new();
    let mut in_registers = Vec::new();
    for g in &groups {
        let nodes = g.kind.nodes();
        for &n in &nodes[..nodes.len() - 1] {
            in_registers.push(n);
        }
        let out = g.kind.output();
        if dag.dim(out).is_some() {
            materialized.push(out); // dot results are host scalars
        }
    }
    materialized.sort_unstable();
    in_registers.sort_unstable();

    if fusedml_trace::is_enabled() {
        for r in &rejected {
            fusedml_trace::instant(
                "fusion",
                "fusion.candidate_rejected",
                "host",
                &[
                    ("candidate", r.desc.as_str().into()),
                    ("modeled_ms", r.modeled_ms.into()),
                ],
            );
        }
        fusedml_trace::instant(
            "fusion",
            "fusion.plan_selected",
            "host",
            &[
                ("candidate", desc.into()),
                ("modeled_ms", modeled_ms.into()),
                ("groups", groups.len().into()),
                ("dag", format!("{:016x}", dag.fingerprint()).as_str().into()),
            ],
        );
    }

    Ok(FusionPlan {
        dag_fingerprint: dag.fingerprint(),
        desc: desc.to_string(),
        groups,
        modeled_ms,
        materialized,
        in_registers,
        rejected,
    })
}

/// The unfused one-kernel-per-operator reference plan (no enumeration).
/// The property suite executes this against the selected plan to check
/// bit-identity of exactly order-preserving fusions.
pub fn unfused_plan(
    spec: &DeviceSpec,
    dag: &Dag,
    shape: MatrixShape,
) -> Result<FusionPlan, DeviceError> {
    let groups = build_candidate(dag, shape, false, false, false)
        .unwrap_or_else(|| unreachable!("the unfused candidate always exists"));
    let mut kernel_groups = Vec::with_capacity(groups.len());
    let mut total = 0.0f64;
    let mut materialized = Vec::new();
    for kind in groups {
        let chain = group_chain(dag, shape, &kind);
        let est = estimate_fused_kernel(spec, &chain)
            .ok_or_else(|| invalid_launch(format!("no feasible launch on {}", spec.name)))?;
        total += est.modeled_ms();
        if dag.dim(kind.output()).is_some() {
            materialized.push(kind.output());
        }
        kernel_groups.push(KernelGroup {
            desc: kind.describe(dag),
            kind,
            modeled_ms: est.modeled_ms(),
            dram_bytes: est.counters.dram_bytes(),
            launches: est.counters.kernel_launches,
        });
    }
    Ok(FusionPlan {
        dag_fingerprint: dag.fingerprint(),
        desc: "unfused".to_string(),
        groups: kernel_groups,
        modeled_ms: total,
        materialized,
        in_registers: Vec::new(),
        rejected: Vec::new(),
    })
}

/// The matrix a DAG executes against.
#[derive(Debug, Clone, Copy)]
pub enum DagMatrix<'a> {
    Sparse(&'a GpuCsr),
    Dense(&'a GpuDense),
}

impl DagMatrix<'_> {
    pub fn shape(&self) -> MatrixShape {
        match self {
            DagMatrix::Sparse(x) => MatrixShape::of_sparse(x),
            DagMatrix::Dense(x) => MatrixShape::of_dense(x),
        }
    }
}

/// Named vector and scalar bindings for one DAG execution.
#[derive(Debug, Default)]
pub struct DagInputs<'a> {
    vectors: BTreeMap<&'static str, &'a GpuBuffer>,
    scalars: BTreeMap<&'static str, f64>,
}

impl<'a> DagInputs<'a> {
    pub fn new() -> Self {
        DagInputs::default()
    }

    pub fn vector(mut self, name: &'static str, buf: &'a GpuBuffer) -> Self {
        self.vectors.insert(name, buf);
        self
    }

    pub fn scalar(mut self, name: &'static str, value: f64) -> Self {
        self.scalars.insert(name, value);
        self
    }
}

/// Result of one DAG execution: the plan used (and whether it came from
/// the cache) plus host-visible dot-product scalars keyed by node.
#[derive(Debug, Clone)]
pub struct DagRun {
    pub plan: Arc<FusionPlan>,
    pub plan_cached: bool,
    pub scalars: BTreeMap<NodeId, f64>,
}

/// One fused element-wise step applied per element against the running
/// chain value. The per-element expressions mirror the level-1 kernels
/// exactly (`a * x`, `x * y`, `y + a * x`), so fusing a chain is
/// bit-identical to running its ops as separate kernels.
enum EwStep<'a> {
    Mul(&'a GpuBuffer),
    Scale(f64),
    Axpy(f64, &'a GpuBuffer),
}

/// `out[i] = steps(primary[i])` in one kernel launch; chain intermediates
/// never leave registers.
fn try_ew_chain(
    gpu: &Gpu,
    primary: &GpuBuffer,
    steps: &[EwStep<'_>],
    out: &GpuBuffer,
) -> Result<LaunchStats, DeviceError> {
    let n = out.len();
    assert_eq!(primary.len(), n);
    let grid = n.div_ceil(256).clamp(1, 1024);
    let cfg = LaunchConfig::new(grid, 256).with_regs(20);
    gpu.try_launch("dag.ew", cfg, |blk| {
        let grid_threads = blk.grid_dim() * blk.block_dim();
        blk.each_warp(|w| {
            let mut base = w.gtid(0);
            while base < n {
                let mut vals = w.load_f64_run(primary, base, n - base);
                let active = (n - base).min(WARP_LANES) as u64;
                for step in steps {
                    match step {
                        EwStep::Mul(side) => {
                            let ss = w.load_f64_run(side, base, n - base);
                            for lane in 0..WARP_LANES {
                                if base + lane < n {
                                    vals[lane] *= ss[lane];
                                }
                            }
                            w.flops(active);
                        }
                        EwStep::Scale(a) => {
                            for lane in 0..WARP_LANES {
                                if base + lane < n {
                                    vals[lane] *= *a;
                                }
                            }
                            w.flops(active);
                        }
                        EwStep::Axpy(beta, side) => {
                            let ss = w.load_f64_run(side, base, n - base);
                            for lane in 0..WARP_LANES {
                                if base + lane < n {
                                    vals[lane] += *beta * ss[lane];
                                }
                            }
                            w.flops(2 * active);
                        }
                    }
                }
                w.store_f64_run(out, base, n - base, &vals);
                base += grid_threads;
            }
        });
    })
}

/// Executes operator DAGs through cost-selected fusion plans. Fused
/// Equation-1 groups delegate to the hand-tuned [`FusedExecutor`]
/// kernels, so a DAG that *is* the Equation-1 chain produces modeled
/// time, DRAM traffic and atomic counters bit-identical to calling the
/// hand-fused path directly.
pub struct DagExecutor<'g> {
    exec: FusedExecutor<'g>,
    scalar_buf: GpuBuffer,
}

impl<'g> DagExecutor<'g> {
    pub fn try_new(gpu: &'g Gpu) -> Result<Self, DeviceError> {
        Ok(DagExecutor {
            exec: FusedExecutor::new(gpu),
            scalar_buf: gpu.try_alloc_f64("dag.scalar", 1)?,
        })
    }

    pub fn gpu(&self) -> &'g Gpu {
        self.exec.gpu()
    }

    /// Every launch performed since the last [`DagExecutor::reset`].
    pub fn launches(&self) -> &[LaunchStats] {
        &self.exec.launches
    }

    pub fn launch_count(&self) -> usize {
        self.exec.launch_count()
    }

    pub fn total_sim_ms(&self) -> f64 {
        self.exec.total_sim_ms()
    }

    pub fn counters_total(&self) -> fusedml_gpu_sim::Counters {
        self.exec.counters_total()
    }

    pub fn reset(&mut self) {
        self.exec.reset();
    }

    pub fn plan_stats(&self) -> PlanCacheStats {
        self.exec.plan_stats()
    }

    /// Hit/miss accounting for the DAG side of the plan cache alone.
    /// [`DagExecutor::plan_stats`] merges this with the sparse/dense
    /// launch-plan counters that fused groups also exercise.
    pub fn dag_plan_stats(&self) -> PlanCacheStats {
        self.exec.plan_cache_ref().borrow().dag_stats()
    }

    pub fn reset_plan_stats(&self) {
        self.exec.reset_plan_stats();
    }

    pub fn set_plan_cache(&self, enabled: bool) {
        self.exec.set_plan_cache(enabled);
    }

    pub fn invalidate_plan_cache(&self, reason: Invalidation) {
        self.exec.invalidate_plan_cache(reason);
    }

    /// Compile (or fetch from the plan cache) the fusion plan for `dag`
    /// against `x`. The cache key extends the PR-4 key with the DAG's
    /// structural fingerprint.
    pub fn try_plan(
        &self,
        dag: &Dag,
        x: &DagMatrix<'_>,
    ) -> Result<(Arc<FusionPlan>, bool), DeviceError> {
        let shape = x.shape();
        let spec = self.gpu().spec();
        let fp = dag.fingerprint();
        let (plan, cached) = self.exec.plan_cache_ref().borrow_mut().dag_plan(
            fp,
            shape.rows,
            shape.cols,
            shape.nnz,
            shape.dense,
            || select_plan(spec, dag, shape),
        )?;
        if cached && fusedml_trace::is_enabled() {
            fusedml_trace::instant(
                "plan",
                "plan.cache_hit",
                "host",
                &[
                    ("kind", "dag".into()),
                    ("dag", format!("{fp:016x}").as_str().into()),
                    ("rows", shape.rows.into()),
                    ("cols", shape.cols.into()),
                ],
            );
        }
        Ok((plan, cached))
    }

    /// Execute `dag` against matrix `x` with the cost-selected plan,
    /// writing the output node's value into `out`.
    pub fn try_run(
        &mut self,
        dag: &Dag,
        x: &DagMatrix<'_>,
        inputs: &DagInputs<'_>,
        out: &GpuBuffer,
    ) -> Result<DagRun, DeviceError> {
        let (plan, plan_cached) = self.try_plan(dag, x)?;
        let scalars = self.try_run_with_plan(&plan, dag, x, inputs, out)?;
        Ok(DagRun {
            plan,
            plan_cached,
            scalars,
        })
    }

    /// Execute `dag` under an explicit `plan` (the property suite uses
    /// this to run the unfused reference plan). Returns the dot scalars.
    ///
    /// # Panics
    /// If `plan` was compiled for another DAG, `out` does not have the
    /// output node's length, or `inputs` binds no value to a scalar
    /// parameter of `dag`.
    // Each is a mismatch between arguments the caller builds together,
    // not a device fault.
    #[allow(clippy::panic)]
    pub fn try_run_with_plan(
        &mut self,
        plan: &FusionPlan,
        dag: &Dag,
        x: &DagMatrix<'_>,
        inputs: &DagInputs<'_>,
        out: &GpuBuffer,
    ) -> Result<BTreeMap<NodeId, f64>, DeviceError> {
        assert_eq!(
            plan.dag_fingerprint,
            dag.fingerprint(),
            "plan compiled for a different DAG"
        );
        let shape = x.shape();
        assert_eq!(
            out.len(),
            shape.dim_len(
                dag.dim(dag.output())
                    .unwrap_or_else(|| unreachable!("output is a vector node"))
            ),
            "output buffer length does not match the DAG output dimension"
        );
        let gpu = self.gpu();
        let nodes = dag.nodes();
        let mut values: BTreeMap<NodeId, GpuBuffer> = BTreeMap::new();
        let mut scalars: BTreeMap<NodeId, f64> = BTreeMap::new();

        let resolve_scalar = |s: &ScalarRef| -> f64 {
            match s {
                ScalarRef::Lit(v) => *v,
                ScalarRef::Param(name) => *inputs
                    .scalars
                    .get(name)
                    .unwrap_or_else(|| panic!("unbound scalar parameter '{name}'")),
            }
        };

        for group in &plan.groups {
            let out_node = group.kind.output();
            let is_vector = dag.dim(out_node).is_some();
            // The group's destination: the caller's buffer for the DAG
            // output, a pooled temporary otherwise.
            let dst = if is_vector {
                if out_node == dag.output() {
                    out.clone()
                } else {
                    let len = shape.dim_len(
                        dag.dim(out_node)
                            .unwrap_or_else(|| unreachable!("vector node")),
                    );
                    gpu.try_alloc_f64("dag.tmp", len)?
                }
            } else {
                self.scalar_buf.clone()
            };
            let sim_before = self.exec.total_sim_ms();

            // Resolve a node's buffer: an execution input or an earlier
            // group's materialized output.
            macro_rules! val {
                ($n:expr) => {
                    match nodes[$n] {
                        Op::Input { name, .. } => *inputs
                            .vectors
                            .get(name)
                            .unwrap_or_else(|| panic!("unbound input vector '{name}'")),
                        _ => values
                            .get(&$n)
                            .unwrap_or_else(|| panic!("node {} used before materialization", $n)),
                    }
                };
            }

            match &group.kind {
                GroupKind::Pattern {
                    mv,
                    ewmul,
                    tmv: _,
                    scale,
                    axpy,
                } => {
                    let y = match nodes[*mv] {
                        Op::Mv { y } => val!(y),
                        _ => unreachable!("pattern mv node"),
                    };
                    let v = ewmul.map(|e| match nodes[e] {
                        Op::EwMul { a, b } => {
                            let side = if a == *mv { b } else { a };
                            val!(side)
                        }
                        _ => unreachable!("pattern ewmul node"),
                    });
                    let alpha = scale
                        .map(|s| match nodes[s] {
                            Op::Scale { alpha, .. } => resolve_scalar(&alpha),
                            _ => unreachable!("pattern scale node"),
                        })
                        .unwrap_or(1.0);
                    let (beta, z) = axpy
                        .map(|ax| match nodes[ax] {
                            Op::Axpy { beta, b, .. } => (resolve_scalar(&beta), Some(b)),
                            _ => unreachable!("pattern axpy node"),
                        })
                        .unwrap_or((0.0, None));
                    let z = z.map(|zn| val!(zn));
                    let spec = PatternSpec {
                        alpha,
                        with_v: v.is_some(),
                        beta,
                        with_z: z.is_some(),
                    };
                    match x {
                        DagMatrix::Sparse(m) => {
                            self.exec.try_pattern_sparse(spec, m, v, y, z, &dst)?
                        }
                        DagMatrix::Dense(m) => {
                            self.exec.try_pattern_dense(spec, m, v, y, z, &dst)?
                        }
                    }
                }
                GroupKind::TmvFold { tmv, scale } => {
                    let u = match nodes[*tmv] {
                        Op::Tmv { u } => val!(u),
                        _ => unreachable!("tmv-fold tmv node"),
                    };
                    let alpha = match nodes[*scale] {
                        Op::Scale { alpha, .. } => resolve_scalar(&alpha),
                        _ => unreachable!("tmv-fold scale node"),
                    };
                    match x {
                        DagMatrix::Sparse(m) => self.exec.try_xt_y_sparse(alpha, m, u, &dst)?,
                        DagMatrix::Dense(_) => {
                            unreachable!("tmv-fold candidates are sparse-only")
                        }
                    }
                }
                GroupKind::EwChain { nodes: chain } => {
                    let primary = primary_operand(&nodes[chain[0]])
                        .unwrap_or_else(|| unreachable!("ew chains start at an ew op"));
                    let primary = val!(primary);
                    let steps: Vec<EwStep<'_>> = chain
                        .iter()
                        .map(|&n| match nodes[n] {
                            Op::EwMul { b, .. } => EwStep::Mul(val!(b)),
                            Op::Scale { alpha, .. } => EwStep::Scale(resolve_scalar(&alpha)),
                            Op::Axpy { beta, b, .. } => {
                                EwStep::Axpy(resolve_scalar(&beta), val!(b))
                            }
                            _ => unreachable!("non-ew op in an ew chain"),
                        })
                        .collect();
                    let stats = try_ew_chain(gpu, primary, &steps, &dst)?;
                    self.exec.launches.push(stats);
                }
                GroupKind::Single { node } => match nodes[*node] {
                    Op::Mv { y } => {
                        let y = val!(y);
                        let stats = match x {
                            DagMatrix::Sparse(m) => {
                                let vs = vector_size_for_mean_nnz(m.mean_nnz_per_row());
                                try_csrmv(gpu, m, y, &dst, SpmvStyle::Vector { vs })?
                            }
                            DagMatrix::Dense(m) => try_gemv(gpu, m, y, &dst)?,
                        };
                        self.exec.launches.push(stats);
                    }
                    Op::Tmv { u } => {
                        let u = val!(u);
                        match x {
                            DagMatrix::Sparse(m) => {
                                self.exec.try_xt_y_sparse(1.0, m, u, &dst)?;
                            }
                            DagMatrix::Dense(m) => {
                                let stats = try_gemv_t(gpu, m, u, &dst)?;
                                self.exec.launches.extend(stats);
                            }
                        }
                    }
                    Op::EwMul { a, b } => {
                        let stats = try_ew_chain(gpu, val!(a), &[EwStep::Mul(val!(b))], &dst)?;
                        self.exec.launches.push(stats);
                    }
                    Op::Scale { a, alpha } => {
                        let stats = try_ew_chain(
                            gpu,
                            val!(a),
                            &[EwStep::Scale(resolve_scalar(&alpha))],
                            &dst,
                        )?;
                        self.exec.launches.push(stats);
                    }
                    Op::Axpy { a, beta, b } => {
                        let stats = try_ew_chain(
                            gpu,
                            val!(a),
                            &[EwStep::Axpy(resolve_scalar(&beta), val!(b))],
                            &dst,
                        )?;
                        self.exec.launches.push(stats);
                    }
                    Op::Dot { a, b } => {
                        let (v, stats) = level1::try_dot(gpu, val!(a), val!(b), &self.scalar_buf)?;
                        self.exec.launches.push(stats);
                        scalars.insert(*node, v);
                    }
                    Op::Input { .. } => unreachable!("inputs are never scheduled"),
                },
            }

            if group.kind.is_fused() && fusedml_trace::is_enabled() {
                fusedml_trace::sim_span(
                    "fusion",
                    "fusion.fused_kernel",
                    "device",
                    self.exec.total_sim_ms() - sim_before,
                    &[
                        ("group", group.desc.as_str().into()),
                        ("modeled_est_ms", group.modeled_ms.into()),
                    ],
                );
            }
            // Record the materialized value even for the DAG output: a
            // later group (say a convergence-check dot) may read it.
            if is_vector {
                values.insert(out_node, dst);
            }
        }
        Ok(scalars)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag::DagBuilder;
    use fusedml_matrix::gen::{random_vector, uniform_sparse};

    fn gpu() -> Gpu {
        Gpu::with_host_threads(DeviceSpec::gtx_titan(), 1)
    }

    fn titan() -> DeviceSpec {
        DeviceSpec::gtx_titan()
    }

    fn sparse_shape(rows: usize, cols: usize, nnz: u64) -> MatrixShape {
        MatrixShape {
            rows,
            cols,
            nnz,
            dense: false,
        }
    }

    #[test]
    fn equation1_selects_the_pattern_kernel() {
        let dag = Dag::equation1(PatternSpec::full(1.5, -0.5));
        let plan = select_plan(&titan(), &dag, sparse_shape(20_000, 1024, 400_000)).unwrap();
        assert_eq!(plan.groups.len(), 1, "plan: {plan:?}");
        assert!(matches!(plan.groups[0].kind, GroupKind::Pattern { .. }));
        assert!(
            plan.rejected.iter().any(|r| r.desc == "unfused"),
            "the unfused candidate must have been priced and rejected"
        );
        for r in &plan.rejected {
            assert!(
                r.modeled_ms >= plan.modeled_ms,
                "{} ({}) beats selection ({})",
                r.desc,
                r.modeled_ms,
                plan.modeled_ms
            );
        }
        // Interior nodes stay in registers; only the output materializes.
        assert_eq!(plan.materialized, vec![dag.output()]);
        assert_eq!(plan.in_registers.len(), dag.len() - 3 - 1); // minus 3 inputs, minus output
    }

    #[test]
    fn pagerank_folds_the_scale_into_the_tmv_kernel() {
        let dag = Dag::pagerank();
        let plan = select_plan(&titan(), &dag, sparse_shape(4_096, 4_096, 65_536)).unwrap();
        assert!(
            plan.groups
                .iter()
                .any(|g| matches!(g.kind, GroupKind::TmvFold { .. })),
            "plan {plan:?}"
        );
        assert!(
            plan.modeled_ms
                <= plan
                    .rejected
                    .iter()
                    .map(|r| r.modeled_ms)
                    .fold(f64::MAX, f64::min)
        );
    }

    #[test]
    fn plan_selection_is_deterministic() {
        let dag = Dag::pagerank();
        let shape = sparse_shape(1_000, 1_000, 20_000);
        let a = select_plan(&titan(), &dag, shape).unwrap();
        let b = select_plan(&titan(), &dag, shape).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.modeled_ms.to_bits(), b.modeled_ms.to_bits());
    }

    #[test]
    fn dag_executor_reproduces_the_hand_fused_path_bit_identically() {
        // Modeled time depends on transient device state (cache contents
        // and the atomic-sampling phase advance monotonically across
        // launches), so each path gets its own freshly constructed,
        // identical device — the claim is that the DAG compiler's chosen
        // plan drives the exact same kernels the hand-fused path does.
        let x = uniform_sparse(2_000, 256, 0.02, 7);
        let yh = random_vector(256, 1);
        let vh = random_vector(2_000, 2);
        let zh = random_vector(256, 3);
        let spec = PatternSpec::full(1.5, -0.5);

        // Hand-fused reference.
        let g1 = gpu();
        let xd1 = GpuCsr::try_upload(&g1, "X", &x).unwrap();
        let y1 = g1.try_upload_f64("y", &yh).unwrap();
        let v1 = g1.try_upload_f64("v", &vh).unwrap();
        let z1 = g1.try_upload_f64("z", &zh).unwrap();
        let w_ref = g1.try_alloc_f64("w", 256).unwrap();
        let mut exec = FusedExecutor::new(&g1);
        exec.try_pattern_sparse(spec, &xd1, Some(&v1), &y1, Some(&z1), &w_ref)
            .unwrap();
        let ref_ms = exec.total_sim_ms();
        let ref_counters = exec.counters_total();
        let ref_names: Vec<_> = exec.launches.iter().map(|l| l.name).collect();

        // Same chain as a DAG, same allocation order on a twin device.
        let g2 = gpu();
        let xd2 = GpuCsr::try_upload(&g2, "X", &x).unwrap();
        let y2 = g2.try_upload_f64("y", &yh).unwrap();
        let v2 = g2.try_upload_f64("v", &vh).unwrap();
        let z2 = g2.try_upload_f64("z", &zh).unwrap();
        let w_dag = g2.try_alloc_f64("w", 256).unwrap();
        let dag = Dag::equation1(spec);
        let mut dexec = DagExecutor::try_new(&g2).unwrap();
        let run = dexec
            .try_run(
                &dag,
                &DagMatrix::Sparse(&xd2),
                &DagInputs::new()
                    .vector("y", &y2)
                    .vector("v", &v2)
                    .vector("z", &z2),
                &w_dag,
            )
            .unwrap();
        assert!(matches!(run.plan.groups[0].kind, GroupKind::Pattern { .. }));

        // Bit-identical modeled time, DRAM traffic, atomics — and result.
        assert_eq!(dexec.total_sim_ms().to_bits(), ref_ms.to_bits());
        let dag_counters = dexec.counters_total();
        assert_eq!(dag_counters, ref_counters);
        assert_eq!(dag_counters.dram_bytes(), ref_counters.dram_bytes());
        assert_eq!(dag_counters.global_atomics, ref_counters.global_atomics);
        let names: Vec<_> = dexec.launches().iter().map(|l| l.name).collect();
        assert_eq!(names, ref_names);
        assert_eq!(w_dag.to_vec_f64(), w_ref.to_vec_f64());
    }

    #[test]
    fn dag_plans_are_memoized_by_fingerprint() {
        let g = gpu();
        let x = uniform_sparse(500, 64, 0.05, 11);
        let xd = GpuCsr::try_upload(&g, "X", &x).unwrap();
        let y = g.try_upload_f64("y", &random_vector(64, 4)).unwrap();
        let w = g.try_alloc_f64("w", 64).unwrap();
        let dag = Dag::equation1(PatternSpec::xtxy());
        let mut dexec = DagExecutor::try_new(&g).unwrap();
        let inputs = DagInputs::new().vector("y", &y);
        let r1 = dexec
            .try_run(&dag, &DagMatrix::Sparse(&xd), &inputs, &w)
            .unwrap();
        let r2 = dexec
            .try_run(&dag, &DagMatrix::Sparse(&xd), &inputs, &w)
            .unwrap();
        assert!(!r1.plan_cached && r2.plan_cached);
        assert_eq!(r1.plan, r2.plan);
        // A structurally different DAG misses.
        let dag2 = Dag::equation1(PatternSpec::xtxy_plus_bz(0.5));
        let z = g.try_upload_f64("z", &random_vector(64, 5)).unwrap();
        let r3 = dexec
            .try_run(
                &dag2,
                &DagMatrix::Sparse(&xd),
                &DagInputs::new().vector("y", &y).vector("z", &z),
                &w,
            )
            .unwrap();
        assert!(!r3.plan_cached);
        // Eq-1 execution also populates the sparse launch-plan cache, so
        // assert the dag share via its dedicated counters.
        let stats = dexec.dag_plan_stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 2);
        assert!(dexec.plan_stats().misses >= 2);
    }

    #[test]
    fn ew_chain_fusion_is_bit_identical_to_singles() {
        let g = gpu();
        let x = uniform_sparse(300, 40, 0.1, 3);
        let xd = GpuCsr::try_upload(&g, "X", &x).unwrap();
        let a = g.try_upload_f64("a", &random_vector(300, 6)).unwrap();
        let b = g.try_upload_f64("b", &random_vector(300, 7)).unwrap();
        let c = g.try_upload_f64("c", &random_vector(300, 8)).unwrap();

        // chain: ((a ⊙ b) * 1.7) + 0.3*c — all rows-dim, no matrix op.
        let mut builder = DagBuilder::new();
        let ia = builder.input("a", Dim::Rows);
        let ib = builder.input("b", Dim::Rows);
        let ic = builder.input("c", Dim::Rows);
        let m = builder.ewmul(ia, ib);
        let s = builder.scale(m, ScalarRef::Lit(1.7));
        let out = builder.axpy(s, ScalarRef::Lit(0.3), ic);
        let dag = builder.finish(out);

        let inputs = DagInputs::new()
            .vector("a", &a)
            .vector("b", &b)
            .vector("c", &c);
        let shape = MatrixShape::of_sparse(&xd);

        let w_fused = g.try_alloc_f64("w_fused", 300).unwrap();
        let mut dexec = DagExecutor::try_new(&g).unwrap();
        let run = dexec
            .try_run(&dag, &DagMatrix::Sparse(&xd), &inputs, &w_fused)
            .unwrap();
        assert_eq!(run.plan.groups.len(), 1);
        assert!(matches!(run.plan.groups[0].kind, GroupKind::EwChain { .. }));
        let fused_launches = dexec.launch_count();

        let w_ref = g.try_alloc_f64("w_ref", 300).unwrap();
        let reference = unfused_plan(g.spec(), &dag, shape).unwrap();
        let mut rexec = DagExecutor::try_new(&g).unwrap();
        rexec
            .try_run_with_plan(&reference, &dag, &DagMatrix::Sparse(&xd), &inputs, &w_ref)
            .unwrap();
        assert!(rexec.launch_count() > fused_launches);
        assert_eq!(w_fused.to_vec_f64(), w_ref.to_vec_f64());
    }

    #[test]
    fn dot_nodes_surface_host_scalars() {
        let g = gpu();
        let x = uniform_sparse(200, 50, 0.1, 9);
        let xd = GpuCsr::try_upload(&g, "X", &x).unwrap();
        let y = g.try_upload_f64("y", &random_vector(50, 10)).unwrap();
        let w = g.try_alloc_f64("w", 200).unwrap();

        let mut b = DagBuilder::new();
        let iy = b.input("y", Dim::Cols);
        let p = b.mv(iy);
        let d = b.dot(p, p);
        let dag = b.finish(p);
        assert!(matches!(dag.nodes()[d], Op::Dot { .. }));

        let mut dexec = DagExecutor::try_new(&g).unwrap();
        let run = dexec
            .try_run(
                &dag,
                &DagMatrix::Sparse(&xd),
                &DagInputs::new().vector("y", &y),
                &w,
            )
            .unwrap();
        let got = run.scalars[&d];
        let p_host = w.to_vec_f64();
        let expect: f64 = p_host.iter().map(|v| v * v).sum();
        assert!((got - expect).abs() < 1e-9 * expect.abs().max(1.0));
    }
}
