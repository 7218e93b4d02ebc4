//! End-to-end execution sessions: the machinery behind the paper's
//! Table 5 (hand-written CUDA pipeline vs pure library pipeline, PCIe
//! included) and Table 6 (the same workload inside the SystemML-like
//! runtime with JNI, format conversion and per-instruction dispatch
//! overheads).

use crate::memman::MemoryManager;
use crate::recovery::{run_with_recovery, BackendTier, LadderError, RecoveryEvent, RecoveryPolicy};
use crate::shard_recovery::ShardTier;
use crate::transfer::TransferModel;
use fusedml_core::ShardedExecutor;
use fusedml_gpu_sim::{AggregationBreakdown, Counters, DeviceGroup, DeviceSpec, Gpu};
use fusedml_matrix::{CsrMatrix, DenseMatrix};
use fusedml_ml::ops::TransposePolicy;
use fusedml_ml::{
    try_lr_cg_ckpt, Backend, BackendStats, BaselineBackend, CheckpointHandle, CpuBackend,
    FusedBackend, LrCgOptions, LrCgResult, ShardedBackend, SolverError,
};
use serde::{Deserialize, Serialize};

/// The data set a session runs over.
pub enum DataSet {
    Sparse(CsrMatrix),
    Dense(DenseMatrix),
}

impl DataSet {
    /// Device byte footprint of the matrix.
    pub fn matrix_bytes(&self) -> u64 {
        match self {
            DataSet::Sparse(x) => x.size_bytes(),
            DataSet::Dense(x) => x.size_bytes(),
        }
    }

    pub fn rows(&self) -> usize {
        match self {
            DataSet::Sparse(x) => x.rows(),
            DataSet::Dense(x) => x.rows(),
        }
    }

    pub fn cols(&self) -> usize {
        match self {
            DataSet::Sparse(x) => x.cols(),
            DataSet::Dense(x) => x.cols(),
        }
    }

    /// Sparse matrices change format on the way into the device in the
    /// SystemML regime (sparse rows -> CSR).
    pub fn needs_conversion(&self) -> bool {
        matches!(self, DataSet::Sparse(_))
    }
}

/// Which GPU pipeline executes the pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EngineKind {
    /// The paper's fused kernels (`ours-end2end`).
    Fused,
    /// Pure cuBLAS/cuSPARSE composition (`cu-end2end`).
    Baseline,
}

/// Knobs for one end-to-end run.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    pub engine: EngineKind,
    pub iterations: usize,
    pub transfer: TransferModel,
    /// Per-kernel-launch runtime dispatch overhead (JVM instruction
    /// interpretation in the SystemML regime; 0 for the native pipeline).
    pub per_launch_overhead_ms: f64,
    /// How the baseline engine handles transposed products (ignored by
    /// the fused engine).
    pub transpose_policy: TransposePolicy,
}

impl SessionConfig {
    /// Table 5 regime: native pipeline, raw PCIe.
    pub fn native(engine: EngineKind, iterations: usize) -> Self {
        SessionConfig {
            engine,
            iterations,
            transfer: TransferModel::native(),
            per_launch_overhead_ms: 0.0,
            transpose_policy: TransposePolicy::PerCall,
        }
    }

    /// Table 6 regime: SystemML integration overheads.
    pub fn systemml(engine: EngineKind, iterations: usize) -> Self {
        SessionConfig {
            engine,
            iterations,
            transfer: TransferModel::systemml(),
            per_launch_overhead_ms: 0.02,
            transpose_policy: TransposePolicy::PerCall,
        }
    }

    /// Override the baseline's transposed-product strategy.
    pub fn with_transpose_policy(mut self, policy: TransposePolicy) -> Self {
        self.transpose_policy = policy;
        self
    }
}

/// Cost breakdown of one end-to-end LR-CG run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EndToEndReport {
    /// Simulated kernel compute milliseconds.
    pub kernel_ms: f64,
    /// One-time H2D transfers (matrix + labels), incl. conversion.
    pub transfer_ms: f64,
    /// Scalar readbacks across the loop (CG's dot / nrm2 results).
    pub readback_ms: f64,
    /// Runtime dispatch overhead (Table 6 regime).
    pub dispatch_ms: f64,
    pub total_ms: f64,
    pub launches: usize,
    pub iterations: usize,
    /// Hardware event counters merged over every kernel launch of the run
    /// (all-zero on the CPU tier). For extrapolated reports these cover
    /// only the iterations actually simulated — see
    /// [`run_device_extrapolated`].
    pub counters: Counters,
}

impl EndToEndReport {
    /// Reduction-tier breakdown (register/shuffle vs. shared vs.
    /// global-atomic) of the run's kernels — the attribution axis of the
    /// benchmark reports.
    pub fn aggregation_breakdown(&self) -> AggregationBreakdown {
        self.counters.aggregation_breakdown()
    }
}

/// Run LR-CG end to end on the device, charging transfers through the
/// memory manager. Iteration count is fixed (tolerance disabled), matching
/// the paper's 100 (KDD) / 32 (HIGGS) iteration setups. A device fault
/// ends the run with [`SolverError::Device`]; use
/// [`run_device_fault_tolerant`] to retry and degrade instead.
///
/// # Panics
/// If the matrix or the labels exceed the device's memory: a session
/// keeps one resident copy of each, and out-of-core inputs go through the
/// streaming runtime instead.
pub fn run_device(
    gpu: &Gpu,
    data: &DataSet,
    labels: &[f64],
    cfg: &SessionConfig,
) -> Result<EndToEndReport, SolverError> {
    let mut session_span = fusedml_trace::wall_span("session", "run_device", "host");
    session_span.arg(
        "engine",
        match cfg.engine {
            EngineKind::Fused => "fused",
            EngineKind::Baseline => "baseline",
        },
    );
    session_span.arg("rows", data.rows());
    session_span.arg("cols", data.cols());
    session_span.arg("iterations", cfg.iterations);

    let transfer_ms = upload_inputs(
        gpu.spec(),
        cfg,
        data.matrix_bytes(),
        data.needs_conversion(),
        labels,
    );
    let opts = fixed_iterations(cfg.iterations);

    let solve_span = fusedml_trace::wall_span("session", "phase.solve", "host");
    let (r, s) = match (cfg.engine, data) {
        (EngineKind::Fused, DataSet::Sparse(x)) => {
            solve_lr_cg(FusedBackend::try_new_sparse(gpu, x)?, labels, opts, None)?
        }
        (EngineKind::Fused, DataSet::Dense(x)) => {
            solve_lr_cg(FusedBackend::try_new_dense(gpu, x)?, labels, opts, None)?
        }
        (EngineKind::Baseline, DataSet::Sparse(x)) => {
            let b = BaselineBackend::try_new_sparse(gpu, x)?
                .with_transpose_policy(cfg.transpose_policy);
            solve_lr_cg(b, labels, opts, None)?
        }
        (EngineKind::Baseline, DataSet::Dense(x)) => {
            solve_lr_cg(BaselineBackend::try_new_dense(gpu, x)?, labels, opts, None)?
        }
    };
    drop(solve_span);
    let (kernel_ms, launches, iterations, counters) =
        (s.sim_ms, s.launches, r.iterations, s.counters);

    // Listing 1 reads back two scalars per iteration (alpha's dot, the
    // convergence nr2) plus the initial nr2.
    let readback_ms = (2 * iterations + 1) as f64 * cfg.transfer.scalar_readback_ms();
    let dispatch_ms = launches as f64 * cfg.per_launch_overhead_ms;
    if fusedml_trace::is_enabled() {
        fusedml_trace::instant(
            "session",
            "phase.account",
            "host",
            &[
                ("kernel_ms", kernel_ms.into()),
                ("transfer_ms", transfer_ms.into()),
                ("readback_ms", readback_ms.into()),
                ("dispatch_ms", dispatch_ms.into()),
                ("launches", launches.into()),
            ],
        );
    }

    Ok(EndToEndReport {
        kernel_ms,
        transfer_ms,
        readback_ms,
        dispatch_ms,
        total_ms: kernel_ms + transfer_ms + readback_ms + dispatch_ms,
        launches,
        iterations,
        counters,
    })
}

/// The upload preamble every session shares: register `X` and the labels
/// with a memory manager sized to the device, charge their transfers, and
/// pin `X` for the run. Returns the transfer milliseconds.
// Inputs that fit the device are every session's documented precondition
// (see `run_device`'s `# Panics`), not a fault the ladder could route
// around.
#[allow(clippy::panic)]
fn upload_inputs(
    spec: &DeviceSpec,
    cfg: &SessionConfig,
    x_bytes: u64,
    x_needs_conversion: bool,
    labels: &[f64],
) -> f64 {
    let _span = fusedml_trace::wall_span("session", "phase.upload", "host");
    let mm = MemoryManager::new(spec.global_mem_bytes as u64, cfg.transfer.clone());
    mm.register("X", x_bytes, x_needs_conversion);
    mm.register("labels", (labels.len() * 8) as u64, false);
    let mut transfer_ms = mm
        .ensure_on_device("X")
        .unwrap_or_else(|e| panic!("matrix must fit the device: {e}"));
    transfer_ms += mm
        .ensure_on_device("labels")
        .unwrap_or_else(|e| panic!("labels must fit the device: {e}"));
    mm.pin("X");
    transfer_ms
}

/// CG options for a run of exactly `iterations` steps (tolerance off).
fn fixed_iterations(iterations: usize) -> LrCgOptions {
    LrCgOptions {
        eps: 0.001,
        tolerance: 0.0,
        max_iterations: iterations,
    }
}

/// Injected-fault tally of one session (copied from the device's
/// [`FaultInjector`](fusedml_gpu_sim::FaultInjector) after the run).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultCountsReport {
    pub kernel_faults: u64,
    pub alloc_faults: u64,
    pub transfer_timeouts: u64,
    pub watchdog_timeouts: u64,
    /// Silent bit flips injected into device buffers.
    pub corruptions: u64,
    /// Allocations rejected by the memory-pressure reserve.
    pub pressure_rejections: u64,
    /// Whole-device losses (multi-device sessions; 0 on one device unless
    /// injected). `serde(default)` keeps reports from before the
    /// multi-device fault classes loadable.
    #[serde(default)]
    pub device_losses: u64,
    /// Straggler slowdowns injected (timing-only faults).
    #[serde(default)]
    pub stragglers: u64,
}

/// [`EndToEndReport`] plus the recovery trail: which tier completed the
/// run, every retry/degradation decision taken to get there, and the
/// faults the device injected along the way.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultTolerantReport {
    /// Cost breakdown of the successful attempt (failed attempts' partial
    /// compute still advanced the simulated device clock but is not
    /// itemized here).
    pub report: EndToEndReport,
    /// Tier that completed the run.
    pub tier: BackendTier,
    /// Total attempts across all tiers (1 on a clean run).
    pub attempts: usize,
    /// Simulated milliseconds spent backing off before retries.
    pub retry_backoff_ms: f64,
    /// Every retry/degradation decision, in order (empty on a clean run).
    pub events: Vec<RecoveryEvent>,
    /// Learned weights of the successful attempt.
    pub weights: Vec<f64>,
    /// Final squared residual norm.
    pub final_nr2: f64,
    /// CG restarts taken inside the successful attempt.
    pub restarts: usize,
    /// Iteration the successful attempt resumed from via a solver
    /// checkpoint (`None` when checkpointing was off or no attempt
    /// failed past the first snapshot).
    pub resumed_at: Option<usize>,
    /// Faults injected over the whole session (all attempts).
    pub faults: FaultCountsReport,
}

/// One LR-CG attempt on a freshly built backend: the result and the
/// backend's stats.
fn solve_lr_cg<B: Backend>(
    mut b: B,
    labels: &[f64],
    opts: LrCgOptions,
    ckpt: Option<&CheckpointHandle>,
) -> Result<(LrCgResult, BackendStats), SolverError> {
    let r = try_lr_cg_ckpt(&mut b, labels, opts, ckpt)?;
    Ok((r, b.stats()))
}

/// Run LR-CG end to end under a [`RecoveryPolicy`]: start on the fused
/// tier, retry transient faults with backoff, and degrade
/// `Fused -> Baseline -> Cpu` when a tier cannot complete. `cfg.engine`
/// is ignored — the ladder always starts at [`BackendTier::Fused`].
///
/// With `policy.checkpoint_every > 0` the solver snapshots its CG state
/// at that cadence and every retry or degraded attempt resumes from the
/// last snapshot instead of iteration 0 — the snapshot lives on the
/// host, so it survives the switch to a fresh backend on a lower tier.
/// With `policy.allow_degradation` set (the default) no device fault
/// ends the run, because the CPU tier cannot fault; `Err` then means the
/// CPU tier failed too, with a numerical breakdown. With degradation off,
/// the first tier's failure ends the run. `Err` carries the last error
/// seen on every tier attempted.
///
/// # Panics
/// If the matrix or the labels exceed the device's memory, as
/// [`run_device`].
pub fn run_device_fault_tolerant(
    gpu: &Gpu,
    data: &DataSet,
    labels: &[f64],
    cfg: &SessionConfig,
    policy: &RecoveryPolicy,
) -> Result<FaultTolerantReport, LadderError> {
    let mut session_span = fusedml_trace::wall_span("session", "run_device_fault_tolerant", "host");
    session_span.arg("rows", data.rows());
    session_span.arg("cols", data.cols());
    session_span.arg("iterations", cfg.iterations);

    let transfer_ms = upload_inputs(
        gpu.spec(),
        cfg,
        data.matrix_bytes(),
        data.needs_conversion(),
        labels,
    );
    let opts = fixed_iterations(cfg.iterations);

    let solve_span = fusedml_trace::wall_span("session", "phase.solve", "host");
    let ckpt = policy.checkpoint();
    let ckpt = ckpt.as_ref();
    let cpu = |b: CpuBackend| match policy.cpu_fused_threads {
        0 => b,
        threads => b.with_fused_execution(threads),
    };
    let outcome = run_with_recovery(
        &BackendTier::LADDER,
        policy,
        "host",
        ckpt,
        SolverError::is_transient,
        |tier| match (tier, data) {
            (BackendTier::Fused, DataSet::Sparse(x)) => {
                solve_lr_cg(FusedBackend::try_new_sparse(gpu, x)?, labels, opts, ckpt)
            }
            (BackendTier::Fused, DataSet::Dense(x)) => {
                solve_lr_cg(FusedBackend::try_new_dense(gpu, x)?, labels, opts, ckpt)
            }
            (BackendTier::Baseline, DataSet::Sparse(x)) => {
                let b = BaselineBackend::try_new_sparse(gpu, x)?
                    .with_transpose_policy(cfg.transpose_policy);
                solve_lr_cg(b, labels, opts, ckpt)
            }
            (BackendTier::Baseline, DataSet::Dense(x)) => {
                solve_lr_cg(BaselineBackend::try_new_dense(gpu, x)?, labels, opts, ckpt)
            }
            (BackendTier::Cpu, DataSet::Sparse(x)) => {
                solve_lr_cg(cpu(CpuBackend::new_sparse(x.clone())), labels, opts, ckpt)
            }
            (BackendTier::Cpu, DataSet::Dense(x)) => {
                solve_lr_cg(cpu(CpuBackend::new_dense(x.clone())), labels, opts, ckpt)
            }
        },
    )?;
    drop(solve_span);
    session_span.arg("tier", outcome.tier.name());
    session_span.arg("attempts", outcome.attempts);
    if let Some(it) = outcome.resumed_at {
        session_span.arg("resumed_at", it);
    }

    let (result, stats) = outcome.value;
    let kernel_ms = stats.sim_ms;
    let launches = stats.launches;
    let iterations = result.iterations;
    // Scalar readbacks and dispatch overhead only apply to device tiers.
    let (readback_ms, dispatch_ms) = if outcome.tier == BackendTier::Cpu {
        (0.0, 0.0)
    } else {
        (
            (2 * iterations + 1) as f64 * cfg.transfer.scalar_readback_ms(),
            launches as f64 * cfg.per_launch_overhead_ms,
        )
    };

    let counts = gpu.faults().counts();
    Ok(FaultTolerantReport {
        report: EndToEndReport {
            kernel_ms,
            transfer_ms,
            readback_ms,
            dispatch_ms,
            total_ms: kernel_ms + transfer_ms + readback_ms + dispatch_ms,
            launches,
            iterations,
            counters: stats.counters,
        },
        tier: outcome.tier,
        attempts: outcome.attempts,
        retry_backoff_ms: outcome.retry_backoff_ms,
        events: outcome.events,
        weights: result.weights,
        final_nr2: result.final_nr2,
        restarts: result.restarts,
        resumed_at: outcome.resumed_at,
        faults: FaultCountsReport::from_counts(&counts),
    })
}

impl FaultCountsReport {
    /// Copy the injector tally into the serializable report form.
    pub fn from_counts(counts: &fusedml_gpu_sim::FaultCounts) -> Self {
        FaultCountsReport {
            kernel_faults: counts.kernel_faults,
            alloc_faults: counts.alloc_faults,
            transfer_timeouts: counts.transfer_timeouts,
            watchdog_timeouts: counts.watchdog_timeouts,
            corruptions: counts.corruptions,
            pressure_rejections: counts.pressure_rejections,
            device_losses: counts.device_losses,
            stragglers: counts.stragglers,
        }
    }

    /// Accumulate an injector tally into this report — the serving layer
    /// sums faults across a request's retry attempts, each of which runs
    /// on its own (replacement) device.
    pub fn merge_counts(&mut self, counts: &fusedml_gpu_sim::FaultCounts) {
        self.kernel_faults += counts.kernel_faults;
        self.alloc_faults += counts.alloc_faults;
        self.transfer_timeouts += counts.transfer_timeouts;
        self.watchdog_timeouts += counts.watchdog_timeouts;
        self.corruptions += counts.corruptions;
        self.pressure_rejections += counts.pressure_rejections;
        self.device_losses += counts.device_losses;
        self.stragglers += counts.stragglers;
    }

    /// Total injected faults across every class.
    pub fn total(&self) -> u64 {
        self.kernel_faults
            + self.alloc_faults
            + self.transfer_timeouts
            + self.watchdog_timeouts
            + self.corruptions
            + self.pressure_rejections
            + self.device_losses
            + self.stragglers
    }
}

/// [`FaultTolerantReport`]'s multi-device sibling: the shard-ladder trail
/// plus the group facts (device count, interconnect profile and traffic,
/// straggler policy outcomes).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardedSessionReport {
    /// Cost breakdown of the successful attempt. `kernel_ms` is modelled
    /// wall time: max across concurrent shards per step, plus
    /// interconnect transfers.
    pub report: EndToEndReport,
    /// Shard-ladder tier that completed the run.
    pub tier: ShardTier,
    /// Total attempts across all tiers (1 on a clean run).
    pub attempts: usize,
    /// Simulated milliseconds spent backing off before retries.
    pub retry_backoff_ms: f64,
    /// Every retry/degradation decision, in order.
    pub events: Vec<RecoveryEvent<ShardTier>>,
    /// Learned weights of the successful attempt.
    pub weights: Vec<f64>,
    /// Final squared residual norm.
    pub final_nr2: f64,
    /// CG restarts taken inside the successful attempt.
    pub restarts: usize,
    /// Iteration the successful attempt resumed from via a solver
    /// checkpoint.
    pub resumed_at: Option<usize>,
    /// Devices in the group (alive or lost).
    pub device_count: usize,
    /// Devices holding a shard in the successful attempt (0 on CPU).
    pub devices_used: usize,
    /// Stable interconnect profile name ("pcie-gen3-x16", "nvlink2").
    pub interconnect: String,
    /// Device-to-device transfers over the whole session.
    pub interconnect_transfers: u64,
    /// Bytes moved across the fabric.
    pub interconnect_bytes: u64,
    /// Modelled interconnect milliseconds.
    pub interconnect_ms: f64,
    /// Shards that missed the straggler deadline.
    pub stragglers_detected: usize,
    /// Speculative re-executions launched for straggling shards.
    pub speculative_reexecs: usize,
    /// Faults injected across every device of the group (all attempts).
    pub faults: FaultCountsReport,
}

/// Run LR-CG row-sharded across a device group under the shard recovery
/// ladder (`ShardRetry -> Reshard -> SingleDevice -> Cpu`, see
/// [`crate::shard_recovery`]). The matrix is charged over PCIe once (the
/// shards upload concurrently from the same host copy), and scalar
/// readbacks come from the root device like the single-device session.
///
/// Transient faults retry on the same tier with exponential backoff; a
/// device loss is non-transient and degrades `ShardRetry -> Reshard`,
/// which rebuilds the sharding over the survivors. With
/// `policy.checkpoint_every > 0` the resharded attempt resumes from the
/// last host-side snapshot instead of iteration 0. Because the sharded
/// executor's reduction is canonical, the final weights are bit-identical
/// whatever tier finishes the run — including `SingleDevice` — except
/// `Cpu`, which has its own (reference) summation order.
///
/// # Panics
/// If the matrix or the labels exceed the memory of the group's first
/// device, as [`run_device`].
pub fn run_sharded_fault_tolerant(
    group: &DeviceGroup,
    x: &CsrMatrix,
    labels: &[f64],
    cfg: &SessionConfig,
    straggler_factor: f64,
    policy: &RecoveryPolicy,
) -> Result<ShardedSessionReport, LadderError<ShardTier>> {
    let mut session_span =
        fusedml_trace::wall_span("session", "run_sharded_fault_tolerant", "host");
    session_span.arg("rows", x.rows());
    session_span.arg("cols", x.cols());
    session_span.arg("iterations", cfg.iterations);
    session_span.arg("devices", group.len());
    session_span.arg("interconnect", group.interconnect().name.clone());

    let transfer_ms = upload_inputs(group.device(0).spec(), cfg, x.size_bytes(), true, labels);
    let opts = fixed_iterations(cfg.iterations);

    let solve_span = fusedml_trace::wall_span("session", "phase.solve", "host");
    let ckpt = policy.checkpoint();
    let ckpt = ckpt.as_ref();
    // Summed over every device attempt, successful or not.
    let (mut stragglers, mut reexecs) = (0usize, 0usize);
    let ladder = run_with_recovery(
        &ShardTier::LADDER,
        policy,
        "host",
        ckpt,
        SolverError::is_transient,
        |tier| {
            let ordinals: Vec<usize> = match tier {
                ShardTier::ShardRetry | ShardTier::Reshard => group.alive_ordinals(),
                // Pin the job to the first survivor; with none left,
                // construction reports the loss and the ladder moves on.
                ShardTier::SingleDevice => group.alive_ordinals().into_iter().take(1).collect(),
                ShardTier::Cpu => {
                    let (r, s) =
                        solve_lr_cg(CpuBackend::new_sparse(x.clone()), labels, opts, ckpt)?;
                    return Ok((r, s, 0));
                }
            };
            let exec = ShardedExecutor::try_new_on(group, x, &ordinals)?
                .with_straggler_policy(straggler_factor, true);
            let mut b = ShardedBackend::try_new(exec)?;
            let res = try_lr_cg_ckpt(&mut b, labels, opts, ckpt);
            let exec = b.engine();
            stragglers += exec.stragglers_detected();
            reexecs += exec.speculative_reexecs();
            Ok((res?, b.stats(), exec.shard_count()))
        },
    )?;
    drop(solve_span);
    session_span.arg("tier", ladder.tier.name());
    session_span.arg("attempts", ladder.attempts);
    if let Some(it) = ladder.resumed_at {
        session_span.arg("resumed_at", it);
    }

    let (result, stats, devices_used) = ladder.value;
    let kernel_ms = stats.sim_ms;
    let launches = stats.launches;
    let iterations = result.iterations;
    let (readback_ms, dispatch_ms) = if ladder.tier == ShardTier::Cpu {
        (0.0, 0.0)
    } else {
        (
            (2 * iterations + 1) as f64 * cfg.transfer.scalar_readback_ms(),
            launches as f64 * cfg.per_launch_overhead_ms,
        )
    };

    let ic = group.interconnect_stats();
    Ok(ShardedSessionReport {
        report: EndToEndReport {
            kernel_ms,
            transfer_ms,
            readback_ms,
            dispatch_ms,
            total_ms: kernel_ms + transfer_ms + readback_ms + dispatch_ms,
            launches,
            iterations,
            counters: stats.counters,
        },
        tier: ladder.tier,
        attempts: ladder.attempts,
        retry_backoff_ms: ladder.retry_backoff_ms,
        events: ladder.events,
        weights: result.weights,
        final_nr2: result.final_nr2,
        restarts: result.restarts,
        resumed_at: ladder.resumed_at,
        device_count: group.len(),
        devices_used,
        interconnect: group.interconnect().name.clone(),
        interconnect_transfers: ic.transfers,
        interconnect_bytes: ic.bytes,
        interconnect_ms: ic.sim_ms,
        stragglers_detected: stragglers,
        speculative_reexecs: reexecs,
        faults: FaultCountsReport::from_counts(&group.fault_counts()),
    })
}

/// Run LR-CG end to end with the *simulation* capped at `sim_iters`
/// iterations and the report extrapolated to `cfg.iterations` — the
/// per-iteration cost is steady after warm-up, so two short runs recover
/// the fixed and marginal components exactly. Used by the Table 5/6
/// experiments whose paper configurations run 100 iterations over
/// multi-million-row inputs.
///
/// The report's `counters` are those of the longest run actually
/// simulated (`2 * sim_iters` iterations); times and launch counts are
/// extrapolated, raw event counts are not.
///
/// # Panics
/// As [`run_device`].
pub fn run_device_extrapolated(
    gpu: &Gpu,
    data: &DataSet,
    labels: &[f64],
    cfg: &SessionConfig,
    sim_iters: usize,
) -> Result<EndToEndReport, SolverError> {
    let sim_iters = sim_iters.max(1);
    if cfg.iterations <= 2 * sim_iters {
        return run_device(gpu, data, labels, cfg);
    }
    let short = SessionConfig {
        iterations: sim_iters,
        ..cfg.clone()
    };
    let long = SessionConfig {
        iterations: 2 * sim_iters,
        ..cfg.clone()
    };
    let r1 = run_device(gpu, data, labels, &short)?;
    let r2 = run_device(gpu, data, labels, &long)?;
    let delta_iters = (r2.iterations - r1.iterations).max(1) as f64;
    let per_iter_kernel = (r2.kernel_ms - r1.kernel_ms) / delta_iters;
    let per_iter_launches = (r2.launches - r1.launches) as f64 / delta_iters;
    let extra = (cfg.iterations - r1.iterations) as f64;
    let kernel_ms = r1.kernel_ms + per_iter_kernel * extra;
    let launches = r1.launches + (per_iter_launches * extra) as usize;
    let readback_ms = (2 * cfg.iterations + 1) as f64 * cfg.transfer.scalar_readback_ms();
    let dispatch_ms = launches as f64 * cfg.per_launch_overhead_ms;
    Ok(EndToEndReport {
        kernel_ms,
        transfer_ms: r1.transfer_ms,
        readback_ms,
        dispatch_ms,
        total_ms: kernel_ms + r1.transfer_ms + readback_ms + dispatch_ms,
        launches,
        iterations: cfg.iterations,
        counters: r2.counters,
    })
}

/// CPU run extrapolated the same way as [`run_device_extrapolated`].
pub fn run_cpu_extrapolated(
    data: &DataSet,
    labels: &[f64],
    iterations: usize,
    sim_iters: usize,
) -> Result<f64, SolverError> {
    let sim_iters = sim_iters.max(1);
    if iterations <= 2 * sim_iters {
        return run_cpu(data, labels, iterations);
    }
    let t1 = run_cpu(data, labels, sim_iters)?;
    let t2 = run_cpu(data, labels, 2 * sim_iters)?;
    let per_iter = (t2 - t1) / sim_iters as f64;
    Ok(t1 + per_iter * (iterations - sim_iters) as f64)
}

/// The CPU-only run (SystemML's CPU backend in Table 6; modelled MKL
/// clock). Returns total milliseconds.
pub fn run_cpu(data: &DataSet, labels: &[f64], iterations: usize) -> Result<f64, SolverError> {
    let opts = fixed_iterations(iterations);
    let (_, s) = match data {
        DataSet::Sparse(x) => solve_lr_cg(CpuBackend::new_sparse(x.clone()), labels, opts, None)?,
        DataSet::Dense(x) => solve_lr_cg(CpuBackend::new_dense(x.clone()), labels, opts, None)?,
    };
    Ok(s.sim_ms)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusedml_gpu_sim::DeviceSpec;
    use fusedml_matrix::gen::{random_vector, uniform_sparse};
    use fusedml_matrix::reference;

    fn gpu() -> Gpu {
        Gpu::with_host_threads(DeviceSpec::gtx_titan(), 1)
    }

    fn dataset() -> (DataSet, Vec<f64>) {
        let x = uniform_sparse(1000, 256, 0.03, 151);
        let w = random_vector(256, 152);
        let labels = reference::csr_mv(&x, &w);
        (DataSet::Sparse(x), labels)
    }

    #[test]
    fn fused_end_to_end_beats_baseline() {
        let g = gpu();
        let (data, labels) = dataset();
        let fused = run_device(
            &g,
            &data,
            &labels,
            &SessionConfig::native(EngineKind::Fused, 10),
        )
        .unwrap();
        g.flush_caches();
        let base = run_device(
            &g,
            &data,
            &labels,
            &SessionConfig::native(EngineKind::Baseline, 10),
        )
        .unwrap();
        assert_eq!(fused.iterations, 10);
        assert!(fused.kernel_ms < base.kernel_ms);
        assert!(fused.total_ms < base.total_ms);
        assert!(fused.launches < base.launches);
        assert!(fused.transfer_ms > 0.0);
    }

    #[test]
    fn systemml_regime_adds_overheads() {
        let g = gpu();
        let (data, labels) = dataset();
        let native = run_device(
            &g,
            &data,
            &labels,
            &SessionConfig::native(EngineKind::Fused, 5),
        )
        .unwrap();
        g.flush_caches();
        let sysml = run_device(
            &g,
            &data,
            &labels,
            &SessionConfig::systemml(EngineKind::Fused, 5),
        )
        .unwrap();
        assert!(sysml.transfer_ms > native.transfer_ms);
        assert!(sysml.dispatch_ms > 0.0);
        assert_eq!(native.dispatch_ms, 0.0);
        assert!(sysml.total_ms > native.total_ms);
    }

    #[test]
    fn cpu_run_produces_time() {
        let (data, labels) = dataset();
        let ms = run_cpu(&data, &labels, 5).unwrap();
        assert!(ms > 0.0);
        // More iterations cost more.
        assert!(run_cpu(&data, &labels, 10).unwrap() > ms);
    }

    #[test]
    fn report_components_sum() {
        let g = gpu();
        let (data, labels) = dataset();
        let r = run_device(
            &g,
            &data,
            &labels,
            &SessionConfig::systemml(EngineKind::Fused, 3),
        )
        .unwrap();
        let sum = r.kernel_ms + r.transfer_ms + r.readback_ms + r.dispatch_ms;
        assert!((r.total_ms - sum).abs() < 1e-9);
    }

    #[test]
    fn sharded_session_reports_group_facts() {
        use fusedml_gpu_sim::{DeviceSpec, FaultProfile, InterconnectSpec};

        let x = uniform_sparse(300, 32, 0.1, 171);
        let labels = random_vector(300, 172);
        let cfg = SessionConfig::native(EngineKind::Fused, 8);
        let g = DeviceGroup::new(
            DeviceSpec::gtx_titan(),
            3,
            InterconnectSpec::nvlink2(),
            &FaultProfile::disabled(),
        );
        let r = run_sharded_fault_tolerant(&g, &x, &labels, &cfg, 3.0, &RecoveryPolicy::default())
            .unwrap();
        assert_eq!(r.tier, ShardTier::ShardRetry);
        assert_eq!(r.attempts, 1);
        assert_eq!(r.device_count, 3);
        assert_eq!(r.devices_used, 3);
        assert_eq!(r.interconnect, "nvlink2");
        assert!(r.interconnect_transfers > 0);
        assert!(r.interconnect_bytes > 0);
        assert!(r.interconnect_ms > 0.0);
        assert_eq!(r.report.iterations, 8);
        assert!(r.report.kernel_ms > 0.0);
        assert!(r.report.transfer_ms > 0.0);
        assert!(r.report.readback_ms > 0.0);
        assert_eq!(r.weights.len(), 32);
        let sum =
            r.report.kernel_ms + r.report.transfer_ms + r.report.readback_ms + r.report.dispatch_ms;
        assert!((r.report.total_ms - sum).abs() < 1e-9);
    }

    #[test]
    fn sharded_session_weights_match_single_device() {
        use fusedml_gpu_sim::{DeviceSpec, FaultProfile, InterconnectSpec};

        let x = uniform_sparse(240, 20, 0.15, 181);
        let labels = random_vector(240, 182);
        let cfg = SessionConfig::native(EngineKind::Fused, 10);
        let run = |n: usize| {
            let g = DeviceGroup::new(
                DeviceSpec::gtx_titan(),
                n,
                InterconnectSpec::pcie_gen3_x16(),
                &FaultProfile::disabled(),
            );
            run_sharded_fault_tolerant(&g, &x, &labels, &cfg, 3.0, &RecoveryPolicy::default())
                .unwrap()
        };
        let one = run(1);
        let four = run(4);
        // Canonical shard reduction keeps the numerics shard-count
        // invariant, bit for bit.
        assert_eq!(one.weights, four.weights);
        assert_eq!(one.final_nr2.to_bits(), four.final_nr2.to_bits());
        // Four shards move data over the fabric; one shard does not.
        assert_eq!(one.interconnect_transfers, 0);
        assert!(four.interconnect_transfers > 0);
    }
}
