//! Multi-tenant serving: a deterministic scheduler that runs many
//! concurrent solver sessions (all five solvers plus PageRank, fused or
//! streamed) over a shared [`DevicePool`], with admission control,
//! modeled-time deadlines and per-tenant fault isolation.
//!
//! ## Scheduling model
//!
//! The scheduler plans in **modeled milliseconds only** — no `Instant`,
//! no wall clock — so a serve run is a pure function of its inputs and
//! byte-identical across machines. Requests are processed in arrival
//! order; each admitted request reserves one device slot for the
//! *fault-free estimate* of its workload class on its admitted tier: the
//! `modeled_ms` of [`clean_run`], which runs the class once on a private
//! fault-free device. That cost is a constant of the build and the
//! config, so it is memoized once per process, keyed by class, tier and
//! the whole [`ServeConfig`] (compared with `==`, a superset of the fields
//! the estimate reads); every later `serve` call with an equal config
//! reuses it, from any thread. An error is never cached, and
//! [`clean_run`] itself stays uncached: it is the reference completions
//! are compared against. One visible consequence: a trace of a later
//! call no longer shows the estimate runs' device spans. Because the
//! estimates, the admission decisions and the deadline checks are all
//! fault-independent, the slot timeline — every co-tenant's start time
//! and reserved window — is bit-identical between a faulted and a
//! fault-free run.
//!
//! ## Blast radius
//!
//! Faults only enter through a tenant's injected [`FaultProfile`], and a
//! faulted attempt's overrun (failed partial attempts, retry backoff,
//! resumed work) accrues on that tenant's *recovery lane*: it extends
//! only the faulted request's completion time and latency, never the
//! slot reservations other tenants schedule against. Recovery is the
//! runtime's one driver, [`run_with_recovery`], over the serving tier
//! order `Fused -> Streamed -> Cpu` from the admitted tier down, with one
//! serving-specific twist: a `device-lost` fault — permanent for a
//! single-device session — is retried at the same tier here, because
//! every attempt runs on a replacement device. A `serve` call builds one
//! `Gpu`, at its first device-tier attempt, and [`Gpu::reset`]s it before
//! every attempt to its just-built state with an attempt-salted fault
//! stream, so each attempt sees exactly what a new device would.
//! Checkpoint/resume works across all of this: one [`CheckpointHandle`]
//! is shared by every attempt of a request, so a replacement device or a
//! degraded tier resumes from the last good iterate instead of
//! iteration 0.
//!
//! ## Admission control
//!
//! Three typed rejections, no panics, no unbounded growth:
//! [`ServeError::QueueFull`] when a tenant's backlog of admitted-but-not-
//! started requests is at capacity, [`ServeError::QuotaExceeded`] when a
//! request's device-byte footprint exceeds the tenant's quota even on
//! the streamed tier, and [`ServeError::DeadlineExceeded`] when the
//! earliest possible completion would already miss the request's
//! deadline (load shedding: the request consumes no slot time). A
//! request whose *fused* footprint busts the quota but whose *streamed*
//! footprint fits is admitted directly on the streamed tier — quota
//! pressure degrades, it does not reject.

use crate::recovery::{
    run_with_recovery, LadderError, RecoveryEvent, RecoveryPolicy, RecoveryTier,
};
use crate::session::FaultCountsReport;
use crate::streaming::{SparseStreamer, StreamConfig, StreamError};
use crate::transfer::TransferModel;
use fusedml_gpu_sim::{DevicePool, DeviceSpec, FaultProfile, Gpu, PoolStats};
use fusedml_matrix::gen::{random_labels, random_vector, uniform_sparse};
use fusedml_matrix::{reference, CsrMatrix};
use fusedml_ml::{
    inv_out_degrees, try_glm_ckpt, try_hits_ckpt, try_logreg_tron_ckpt, try_lr_cg_ckpt,
    try_pagerank_backend_ckpt, try_svm_ckpt, Backend, CheckpointHandle, CpuBackend, FusedBackend,
    GlmOptions, HitsOptions, LrCgOptions, PagerankOptions, SolverError, SvmOptions, TronOptions,
};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::{Mutex, OnceLock, PoisonError};

/// Execution tier of the serving degradation ladder, fastest first.
///
/// Unlike the single-session [`BackendTier`](crate::BackendTier) ladder
/// (`Fused -> Baseline -> Cpu`), the serving ladder degrades through the
/// *streamed* backend: under quota pressure or repeated device faults
/// the matrix stops being device-resident before the work leaves the
/// device entirely.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ServeTier {
    /// Device-resident matrix, fused single-pass kernels.
    Fused,
    /// Host-resident matrix streamed chunk-by-chunk: a smaller device
    /// footprint and numerically equivalent to Fused, but not bitwise —
    /// chunked accumulation reassociates the reductions. Bit-identity
    /// holds *per tier*: a streamed run always reproduces the streamed
    /// [`clean_run`] exactly.
    Streamed,
    /// Host execution — the tier of last resort; never faults.
    Cpu,
}

impl ServeTier {
    /// The serving ladder, fastest first, in declaration order; a request
    /// enters it at its admitted tier.
    pub const LADDER: [ServeTier; 3] = [ServeTier::Fused, ServeTier::Streamed, ServeTier::Cpu];

    /// Stable name for reports.
    pub fn name(self) -> &'static str {
        match self {
            ServeTier::Fused => "fused",
            ServeTier::Streamed => "streamed",
            ServeTier::Cpu => "cpu",
        }
    }
}

impl RecoveryTier for ServeTier {
    fn name(&self) -> &'static str {
        ServeTier::name(*self)
    }
}

/// The workload classes the load generator mixes: the paper's five
/// solvers plus PageRank. Each class has a fixed, seeded dataset and a
/// fixed iteration budget (tolerances disabled), so its fault-free cost
/// on a given tier is a constant of the build — which is what lets the
/// scheduler plan on exact estimates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum WorkloadClass {
    /// Linear-regression conjugate gradient (Listing 1).
    LrCg,
    /// GLM via IRLS (Poisson family).
    Glm,
    /// Trust-region logistic regression (TRON).
    Tron,
    /// Primal L2-SVM Newton.
    Svm,
    /// HITS power iteration.
    Hits,
    /// PageRank power iteration (backend-generic entry point).
    Pagerank,
}

impl WorkloadClass {
    /// Every class, in report order, which is declaration order.
    pub const ALL: [WorkloadClass; 6] = [
        WorkloadClass::LrCg,
        WorkloadClass::Glm,
        WorkloadClass::Tron,
        WorkloadClass::Svm,
        WorkloadClass::Hits,
        WorkloadClass::Pagerank,
    ];

    /// Stable name for reports.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadClass::LrCg => "lr_cg",
            WorkloadClass::Glm => "glm",
            WorkloadClass::Tron => "logreg_tron",
            WorkloadClass::Svm => "svm",
            WorkloadClass::Hits => "hits",
            WorkloadClass::Pagerank => "pagerank",
        }
    }

    /// Inverse of [`WorkloadClass::name`], for report loaders.
    pub fn from_name(name: &str) -> Result<WorkloadClass, String> {
        WorkloadClass::ALL
            .into_iter()
            .find(|c| c.name() == name)
            .ok_or_else(|| format!("unknown workload class {name:?}"))
    }
}

/// Dataset shapes: small enough that an 8-tenant serve run stays in
/// unit-test territory, large enough that every class does real device
/// work across multiple chunks on the streamed tier.
const ROWS: usize = 160;
const COLS: usize = 24;
const GRAPH: usize = 96;
/// The streamed tier splits the matrix into this many chunks.
const STREAM_CHUNKS: usize = 4;
/// Streamed pipeline depth (chunks in flight).
const STREAM_DEPTH: usize = 2;

/// The fixed dataset of one workload class: a constant of the build,
/// generated once per process (see [`ClassData::of`]) and shared by every
/// `serve` and [`clean_run`] call.
struct ClassData {
    x: CsrMatrix,
    /// Labels/targets; empty for the graph classes.
    labels: Vec<f64>,
    /// Reciprocal out-degrees; PageRank only.
    inv_deg: Vec<f64>,
}

impl ClassData {
    /// The dataset of `class`. The first call in a process generates all
    /// six; every later call, from any thread, borrows them.
    fn of(class: WorkloadClass) -> &'static ClassData {
        static DATA: OnceLock<[ClassData; 6]> = OnceLock::new();
        &DATA.get_or_init(|| WorkloadClass::ALL.map(ClassData::generate))[class as usize]
    }

    fn generate(class: WorkloadClass) -> ClassData {
        let seed = 0xC1A5_5E10 + class as u64;
        match class {
            WorkloadClass::LrCg => {
                let x = uniform_sparse(ROWS, COLS, 0.08, seed);
                let labels = reference::csr_mv(&x, &random_vector(COLS, seed + 1));
                ClassData {
                    x,
                    labels,
                    inv_deg: Vec::new(),
                }
            }
            WorkloadClass::Glm => {
                let x = uniform_sparse(ROWS, COLS, 0.08, seed);
                let labels = reference::csr_mv(&x, &random_vector(COLS, seed + 1))
                    .iter()
                    .map(|&e| e.clamp(-3.0, 3.0).exp())
                    .collect();
                ClassData {
                    x,
                    labels,
                    inv_deg: Vec::new(),
                }
            }
            WorkloadClass::Tron | WorkloadClass::Svm => {
                let x = uniform_sparse(ROWS, COLS, 0.08, seed);
                let labels = random_labels(ROWS, seed + 1);
                ClassData {
                    x,
                    labels,
                    inv_deg: Vec::new(),
                }
            }
            WorkloadClass::Hits => {
                let x = uniform_sparse(GRAPH, GRAPH, 0.06, seed);
                ClassData {
                    x,
                    labels: Vec::new(),
                    inv_deg: Vec::new(),
                }
            }
            WorkloadClass::Pagerank => {
                let x = uniform_sparse(GRAPH, GRAPH, 0.06, seed);
                let inv_deg = inv_out_degrees(&x);
                ClassData {
                    x,
                    labels: Vec::new(),
                    inv_deg,
                }
            }
        }
    }

    /// Device bytes for the solver's vector working set (iterate, search
    /// directions, row-length temporaries) — a modeled quota figure, kept
    /// deliberately simple and deterministic.
    fn aux_bytes(&self) -> u64 {
        (8 * (2 * self.x.rows() + 8 * self.x.cols() + self.labels.len())) as u64
    }

    /// Device footprint with the matrix fully resident (fused tier).
    fn fused_footprint(&self) -> u64 {
        self.x.size_bytes() + self.aux_bytes()
    }

    /// Device footprint on the streamed tier: `STREAM_DEPTH` chunks in
    /// flight plus the vector working set.
    fn streamed_footprint(&self) -> u64 {
        self.x.size_bytes().div_ceil(STREAM_CHUNKS as u64) * STREAM_DEPTH as u64 + self.aux_bytes()
    }

    fn stream_config(&self) -> StreamConfig {
        StreamConfig::fixed(self.x.rows().div_ceil(STREAM_CHUNKS).max(1), STREAM_DEPTH)
    }
}

/// Result of one completed class run: the iterate the blast-radius
/// bit-identity assertions compare (authorities for HITS, ranks for
/// PageRank) plus the iteration count the readback model charges for.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassResult {
    pub weights: Vec<f64>,
    pub iterations: usize,
}

/// One tenant of the serving layer.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Report name; also the trace track id of this tenant's spans.
    pub name: String,
    /// Max admitted-but-not-started requests before `QueueFull`.
    pub queue_capacity: usize,
    /// Device-byte budget one request may occupy. A request whose fused
    /// footprint exceeds this is admitted on the streamed tier; if even
    /// the streamed footprint exceeds it, the request is rejected.
    pub byte_quota: u64,
    /// Fault injection for this tenant's devices (isolation testing).
    pub faults: Option<FaultProfile>,
}

impl TenantSpec {
    pub fn new(name: impl Into<String>, queue_capacity: usize, byte_quota: u64) -> Self {
        TenantSpec {
            name: name.into(),
            queue_capacity,
            byte_quota,
            faults: None,
        }
    }

    /// Inject faults into every device attempt of this tenant.
    pub fn with_faults(mut self, profile: FaultProfile) -> Self {
        self.faults = Some(profile);
        self
    }
}

/// Knobs for one serve run. `PartialEq` keys the process-wide memo of
/// slot estimates (see the module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Device model backing every slot.
    pub device: DeviceSpec,
    /// Concurrent device slots the scheduler packs requests onto.
    pub slots: usize,
    /// H2D/D2H cost model (memory-manager charges and streamed chunks).
    pub transfer: TransferModel,
    /// Per-kernel-launch dispatch overhead (0 for the native pipeline).
    pub per_launch_overhead_ms: f64,
    /// Retry/degradation/checkpoint policy for the recovery ladder.
    pub policy: RecoveryPolicy,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            device: DeviceSpec::gtx_titan(),
            slots: 2,
            transfer: TransferModel::native(),
            per_launch_overhead_ms: 0.0,
            policy: RecoveryPolicy {
                checkpoint_every: 2,
                ..RecoveryPolicy::default()
            },
        }
    }
}

/// One request: a tenant asks for a workload class by a deadline.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeRequest {
    /// Index into the tenant slice passed to [`serve`].
    pub tenant: usize,
    pub class: WorkloadClass,
    /// Modeled arrival time (requests may arrive in any order; the
    /// scheduler sorts stably by arrival).
    pub arrival_ms: f64,
    /// Absolute modeled-time deadline; `f64::INFINITY` for none.
    pub deadline_ms: f64,
}

impl ServeRequest {
    /// A request with no deadline.
    pub fn new(tenant: usize, class: WorkloadClass, arrival_ms: f64) -> Self {
        ServeRequest {
            tenant,
            class,
            arrival_ms,
            deadline_ms: f64::INFINITY,
        }
    }

    pub fn with_deadline(mut self, deadline_ms: f64) -> Self {
        self.deadline_ms = deadline_ms;
        self
    }
}

/// Why the serving layer refused (or failed) a request. Admission-time
/// refusals are *rejections* (the request never held a slot); a
/// [`ServeError::Ladder`] means every usable tier failed at execution
/// time, which with degradation enabled cannot happen (the CPU tier
/// never faults).
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// Invalid tenants/requests/config — reported before any scheduling.
    Config(String),
    /// The tenant's backlog of waiting requests is at capacity.
    QueueFull { tenant: usize, capacity: usize },
    /// Even the streamed-tier footprint exceeds the tenant's byte quota.
    QuotaExceeded {
        tenant: usize,
        needed_bytes: u64,
        quota_bytes: u64,
    },
    /// The earliest possible completion would already miss the deadline;
    /// the request was shed without consuming slot time.
    DeadlineExceeded {
        tenant: usize,
        deadline_ms: f64,
        projected_ms: f64,
    },
    /// The recovery ladder exhausted every tier (degradation disabled).
    Ladder(LadderError<ServeTier>),
}

impl ServeError {
    /// Stable machine-readable class tag.
    pub fn kind(&self) -> &'static str {
        match self {
            ServeError::Config(_) => "config",
            ServeError::QueueFull { .. } => "queue-full",
            ServeError::QuotaExceeded { .. } => "quota-exceeded",
            ServeError::DeadlineExceeded { .. } => "deadline-exceeded",
            ServeError::Ladder(_) => "ladder-exhausted",
        }
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Config(msg) => write!(f, "invalid serve configuration: {msg}"),
            ServeError::QueueFull { tenant, capacity } => {
                write!(f, "tenant {tenant} queue full (capacity {capacity})")
            }
            ServeError::QuotaExceeded {
                tenant,
                needed_bytes,
                quota_bytes,
            } => write!(
                f,
                "tenant {tenant} quota exceeded: request needs {needed_bytes} B, quota {quota_bytes} B"
            ),
            ServeError::DeadlineExceeded {
                tenant,
                deadline_ms,
                projected_ms,
            } => write!(
                f,
                "tenant {tenant} deadline {deadline_ms} ms infeasible: earliest completion {projected_ms} ms"
            ),
            ServeError::Ladder(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Ladder(e) => Some(e),
            _ => None,
        }
    }
}

/// How one request ended.
#[derive(Debug, Clone, PartialEq)]
pub enum RequestStatus {
    Completed {
        /// Tier that produced the result.
        tier: ServeTier,
        /// Tier admission placed the request on (quota decision).
        admitted_tier: ServeTier,
        /// Total attempts across all tiers (1 on a clean run).
        attempts: usize,
        /// Iteration the successful attempt resumed from via checkpoint.
        resumed_at: Option<usize>,
        /// Completed after its deadline (recovery overrun): the miss is
        /// recorded loudly instead of silently.
        missed_deadline: bool,
    },
    /// Refused at admission (queue or quota); never held a slot.
    Rejected { error: ServeError },
    /// Shed at dispatch: the deadline was already infeasible.
    Shed { error: ServeError },
    /// The recovery ladder exhausted every tier.
    Failed { error: ServeError },
}

impl RequestStatus {
    pub fn is_completed(&self) -> bool {
        matches!(self, RequestStatus::Completed { .. })
    }
}

/// Full per-request record, in submission order.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestOutcome {
    pub tenant: usize,
    /// Index of the request in the submitted slice.
    pub seq: usize,
    pub class: WorkloadClass,
    pub arrival_ms: f64,
    pub deadline_ms: f64,
    /// Modeled start time (0 for rejected/shed requests).
    pub start_ms: f64,
    /// Modeled completion time (arrival/decision time when not run).
    pub completion_ms: f64,
    /// `completion - arrival` for completed requests, else 0.
    pub latency_ms: f64,
    pub status: RequestStatus,
    /// Final iterate of the successful attempt (empty otherwise) — the
    /// vector the blast-radius bit-identity assertions compare.
    pub weights: Vec<f64>,
    pub iterations: usize,
    /// Every retry/degradation decision, in order.
    pub events: Vec<RecoveryEvent<ServeTier>>,
    /// Checkpoint-resume trail: the iteration of every resume, in order
    /// (monotone non-decreasing — snapshots only advance).
    pub resumes: Vec<usize>,
    /// Faults injected across all of this request's attempts.
    pub faults: FaultCountsReport,
}

/// Per-tenant rollup.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantSummary {
    pub name: String,
    pub submitted: usize,
    pub completed: usize,
    pub rejected_queue: usize,
    pub rejected_quota: usize,
    pub shed: usize,
    pub failed: usize,
    /// Completed requests that needed the ladder: retries, a degraded
    /// tier, or a checkpoint resume.
    pub recoveries: usize,
    /// Completed requests that finished after their deadline.
    pub deadline_misses: usize,
    /// Largest waiting-queue depth observed at any of this tenant's
    /// arrivals.
    pub max_queue_depth: usize,
    /// Reserved slot time (sum of fault-free estimates of admitted
    /// requests) — fault-independent by construction.
    pub busy_ms: f64,
    /// Total faults injected into this tenant's attempts.
    pub faults_injected: u64,
}

/// What [`serve`] returns: every outcome plus rollups.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// One entry per submitted request, in submission order.
    pub outcomes: Vec<RequestOutcome>,
    pub tenants: Vec<TenantSummary>,
    /// Latest modeled completion across all requests.
    pub makespan_ms: f64,
    /// Total reserved slot time across all slots.
    pub slot_busy_ms: f64,
    /// Shared device-pool counters at the end of the run (every request
    /// attempt's device attaches to one [`DevicePool`]).
    pub pool: PoolStats,
}

impl ServeReport {
    pub fn completed(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| o.status.is_completed())
            .count()
    }

    pub fn rejected(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| matches!(o.status, RequestStatus::Rejected { .. }))
            .count()
    }

    pub fn shed(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| matches!(o.status, RequestStatus::Shed { .. }))
            .count()
    }

    pub fn failed(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| matches!(o.status, RequestStatus::Failed { .. }))
            .count()
    }

    /// Modeled latencies of completed requests, in submission order.
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.outcomes
            .iter()
            .filter(|o| o.status.is_completed())
            .map(|o| o.latency_ms)
            .collect()
    }
}

/// A fault-free single-session run of one class on one tier — the
/// reference the blast-radius tests compare a recovered tenant against,
/// and the estimate the scheduler reserves slot time with.
#[derive(Debug, Clone, PartialEq)]
pub struct CleanRun {
    pub class: WorkloadClass,
    pub tier: ServeTier,
    pub weights: Vec<f64>,
    pub iterations: usize,
    /// End-to-end modeled cost: transfers + kernels + readbacks +
    /// dispatch, exactly what one slot reservation charges.
    pub modeled_ms: f64,
}

/// Run `class` on `tier` once, fault-free, on a private device — the
/// single-session reference for a serve run under the same config.
///
/// Every call simulates: this is the uncached reference that completions
/// are compared against bit for bit. [`serve`] memoizes only its
/// `modeled_ms`, as the slot estimate (see the module docs).
pub fn clean_run(
    class: WorkloadClass,
    tier: ServeTier,
    cfg: &ServeConfig,
) -> Result<CleanRun, ServeError> {
    check_config(cfg)?;
    let ckpt = cfg.policy.checkpoint();
    let gpu =
        (tier != ServeTier::Cpu).then(|| Gpu::new(cfg.device.clone()).with_integrity_checks(true));
    let (res, ms) = run_attempt(
        gpu.as_ref(),
        tier,
        class,
        ClassData::of(class),
        cfg,
        ckpt.as_ref(),
    );
    let result = res.map_err(|e| {
        ServeError::Config(format!(
            "fault-free reference run of {} failed: {e}",
            class.name()
        ))
    })?;
    Ok(CleanRun {
        class,
        tier,
        weights: result.weights,
        iterations: result.iterations,
        modeled_ms: ms,
    })
}

/// The config checks [`serve`] and [`clean_run`] share, so a bad config
/// is a [`ServeError::Config`] before anything is simulated: a device spec
/// the simulator cannot execute (building the device would panic), and
/// numeric knobs that would make modeled times NaN, infinite or negative.
/// The estimate memo needs the latter too: a NaN field equals nothing,
/// itself included, so its config could never be found again.
fn check_config(cfg: &ServeConfig) -> Result<(), ServeError> {
    cfg.device
        .validate()
        .map_err(|e| ServeError::Config(format!("device: {e}")))?;
    let (policy, transfer) = (&cfg.policy, &cfg.transfer);
    for (name, value) in [
        ("per_launch_overhead_ms", cfg.per_launch_overhead_ms),
        ("policy.backoff_ms", policy.backoff_ms),
        ("policy.backoff_multiplier", policy.backoff_multiplier),
        ("transfer.pcie.latency_us", transfer.pcie.latency_us),
    ] {
        if !(value.is_finite() && value >= 0.0) {
            return Err(ServeError::Config(format!(
                "{name} must be finite and >= 0, got {value}"
            )));
        }
    }
    for (name, value) in [
        (
            "transfer.pcie.bandwidth_gbps",
            Some(transfer.pcie.bandwidth_gbps),
        ),
        ("transfer.jni_gbps", transfer.jni_gbps),
        (
            "transfer.format_conversion_gbps",
            transfer.format_conversion_gbps,
        ),
    ] {
        if let Some(value) = value.filter(|v| !(v.is_finite() && *v > 0.0)) {
            return Err(ServeError::Config(format!(
                "{name} must be finite and > 0, got {value}"
            )));
        }
    }
    Ok(())
}

/// One memoized slot estimate.
struct Estimate {
    class: WorkloadClass,
    tier: ServeTier,
    cfg: ServeConfig,
    modeled_ms: f64,
}

/// Every slot estimate this process has computed, in first-use order. A
/// linear scan is enough: a config contributes at most one entry per
/// class and device tier.
static ESTIMATES: Mutex<Vec<Estimate>> = Mutex::new(Vec::new());

/// The slot reservation of `class` admitted on `tier`:
/// `clean_run(class, tier, cfg)?.modeled_ms`, simulated once per process
/// for each class, tier and config. The lock is not held while
/// simulating; two threads that miss the same key at once both simulate
/// and store one entry, which is harmless because the value is a pure
/// function of the key. An error is returned, never stored.
fn slot_estimate(
    class: WorkloadClass,
    tier: ServeTier,
    cfg: &ServeConfig,
) -> Result<f64, ServeError> {
    // A panic elsewhere while holding the lock leaves the entries intact
    // (each push is whole), so a poisoned memo is still a valid one.
    let memo = || ESTIMATES.lock().unwrap_or_else(PoisonError::into_inner);
    let find = |memo: &[Estimate]| {
        memo.iter()
            .find(|e| e.class == class && e.tier == tier && e.cfg == *cfg)
            .map(|e| e.modeled_ms)
    };
    if let Some(ms) = find(&memo()) {
        return Ok(ms);
    }
    let modeled_ms = clean_run(class, tier, cfg)?.modeled_ms;
    let entry = Estimate {
        class,
        tier,
        cfg: cfg.clone(),
        modeled_ms,
    };
    let mut memo = memo();
    // A NaN device figure makes a config equal nothing, itself included;
    // its entry could never be found, so it is not stored.
    if entry.cfg == *cfg && find(&memo).is_none() {
        memo.push(entry);
    }
    Ok(modeled_ms)
}

/// Drive the class's solver on any backend; fixed iteration budgets
/// (tolerances disabled) keep the cost a constant of the class, tier and
/// config.
fn run_class<B: Backend>(
    b: &mut B,
    class: WorkloadClass,
    data: &ClassData,
    ckpt: Option<&CheckpointHandle>,
) -> Result<ClassResult, SolverError> {
    match class {
        WorkloadClass::LrCg => try_lr_cg_ckpt(
            b,
            &data.labels,
            LrCgOptions {
                eps: 0.001,
                tolerance: 0.0,
                max_iterations: 8,
            },
            ckpt,
        )
        .map(|r| ClassResult {
            weights: r.weights,
            iterations: r.iterations,
        }),
        WorkloadClass::Glm => try_glm_ckpt(
            b,
            &data.labels,
            GlmOptions {
                max_outer: 4,
                max_inner_cg: 6,
                grad_tol: 0.0,
                ..GlmOptions::default()
            },
            ckpt,
        )
        .map(|r| ClassResult {
            weights: r.weights,
            iterations: r.iterations,
        }),
        WorkloadClass::Tron => try_logreg_tron_ckpt(
            b,
            &data.labels,
            TronOptions {
                max_outer: 4,
                max_inner_cg: 6,
                grad_tol: 0.0,
                ..TronOptions::default()
            },
            ckpt,
        )
        .map(|r| ClassResult {
            weights: r.weights,
            iterations: r.iterations,
        }),
        WorkloadClass::Svm => try_svm_ckpt(
            b,
            &data.labels,
            SvmOptions {
                max_outer: 4,
                max_inner_cg: 6,
                grad_tol: 0.0,
                ..SvmOptions::default()
            },
            ckpt,
        )
        .map(|r| ClassResult {
            weights: r.weights,
            iterations: r.iterations,
        }),
        WorkloadClass::Hits => try_hits_ckpt(
            b,
            HitsOptions {
                max_iterations: 6,
                tolerance: 0.0,
            },
            ckpt,
        )
        .map(|r| ClassResult {
            weights: r.authorities,
            iterations: r.iterations,
        }),
        WorkloadClass::Pagerank => try_pagerank_backend_ckpt(
            b,
            &data.inv_deg,
            PagerankOptions {
                max_iterations: 8,
                tolerance: 0.0,
                ..PagerankOptions::default()
            },
            ckpt,
        )
        .map(|r| ClassResult {
            weights: r.ranks,
            iterations: r.iterations,
        }),
    }
}

/// Map a streamed-tier setup failure onto the solver error surface:
/// device faults pass through for the ladder to retry/degrade;
/// configuration rejections become deterministic typed breakdowns — the
/// serving layer must never panic on a degrade path.
fn stream_setup_error(e: StreamError) -> SolverError {
    match e {
        StreamError::Device(d) => SolverError::Device(d),
        other => SolverError::breakdown(
            "serve",
            0,
            format!("streamed tier configuration rejected: {other}"),
        ),
    }
}

/// One attempt of `class` on `tier`. Always returns the modeled cost of
/// the attempt — a failed attempt's partial transfers and kernels still
/// spent modeled time on the tenant's recovery lane.
fn run_attempt(
    gpu: Option<&Gpu>,
    tier: ServeTier,
    class: WorkloadClass,
    data: &ClassData,
    cfg: &ServeConfig,
    ckpt: Option<&CheckpointHandle>,
) -> (Result<ClassResult, SolverError>, f64) {
    // The CPU tier: host data, host execution, no transfers or readbacks.
    if tier == ServeTier::Cpu {
        let mut b = if cfg.policy.cpu_fused_threads > 0 {
            CpuBackend::new_sparse(data.x.clone())
                .with_fused_execution(cfg.policy.cpu_fused_threads)
        } else {
            CpuBackend::new_sparse(data.x.clone())
        };
        let res = run_class(&mut b, class, data, ckpt);
        return (res, b.stats().sim_ms);
    }

    let gpu = match gpu {
        Some(g) => g,
        // Device tiers are always handed a device by the ladder; surface
        // the impossible arm as a typed breakdown, not a panic.
        None => {
            return (
                Err(SolverError::breakdown(
                    "serve",
                    0,
                    "device tier without a device",
                )),
                0.0,
            )
        }
    };

    // Charge host->device transfers through the memory manager: the
    // matrix only on the fused tier (the streamed tier pays per chunk
    // inside the pipeline wall), labels on both.
    let mm =
        crate::memman::MemoryManager::new(gpu.spec().global_mem_bytes as u64, cfg.transfer.clone());
    let mut transfer_ms = 0.0;
    if tier == ServeTier::Fused {
        mm.register("X", data.x.size_bytes(), true);
        match mm.ensure_on_device("X") {
            Ok(ms) => transfer_ms += ms,
            Err(e) => {
                return (
                    Err(SolverError::breakdown(
                        "serve",
                        0,
                        format!("matrix exceeds device: {e}"),
                    )),
                    transfer_ms,
                )
            }
        }
    }
    if !data.labels.is_empty() {
        mm.register("labels", (data.labels.len() * 8) as u64, false);
        match mm.ensure_on_device("labels") {
            Ok(ms) => transfer_ms += ms,
            Err(e) => {
                return (
                    Err(SolverError::breakdown(
                        "serve",
                        0,
                        format!("labels exceed device: {e}"),
                    )),
                    transfer_ms,
                )
            }
        }
    }

    let (res, sim_ms, launches) = match tier {
        ServeTier::Fused => match FusedBackend::try_new_sparse(gpu, &data.x) {
            Ok(mut b) => {
                let res = run_class(&mut b, class, data, ckpt);
                let s = b.stats();
                (res, s.sim_ms, s.launches)
            }
            Err(e) => (Err(SolverError::Device(e)), 0.0, 0),
        },
        ServeTier::Streamed => {
            match SparseStreamer::try_new(gpu, &data.x, cfg.transfer.clone(), data.stream_config())
                .and_then(SparseStreamer::try_into_backend)
            {
                Ok(mut b) => {
                    let res = run_class(&mut b, class, data, ckpt);
                    let s = b.stats();
                    (res, s.sim_ms, s.launches)
                }
                Err(e) => (Err(stream_setup_error(e)), 0.0, 0),
            }
        }
        ServeTier::Cpu => unreachable!("handled above"),
    };

    // Listing-1-style scalar readbacks (two per iteration plus one) and
    // per-launch dispatch overhead, charged on the iterations the attempt
    // actually completed.
    let iterations = res.as_ref().map(|r| r.iterations).unwrap_or(0);
    let readback_ms = (2 * iterations + 1) as f64 * cfg.transfer.scalar_readback_ms();
    let dispatch_ms = launches as f64 * cfg.per_launch_overhead_ms;
    (res, transfer_ms + sim_ms + readback_ms + dispatch_ms)
}

/// Salt stride separating per-request fault streams; each attempt within
/// a request advances by one (replacement-device semantics).
const ATTEMPT_SALT_STRIDE: usize = 97;

/// How many tiers of [`ServeTier::LADDER`] run on a device.
const DEVICE_TIERS: usize = {
    let (mut n, mut i) = (0, 0);
    while i < ServeTier::LADDER.len() {
        if !matches!(ServeTier::LADDER[i], ServeTier::Cpu) {
            n += 1;
        }
        i += 1;
    }
    n
};

/// The largest `policy.max_retries` [`serve`] accepts (47). A request
/// admitted on the first tier makes up to `max_retries + 1` attempts on
/// each device tier, and attempt `a` of request `seq` draws its faults
/// from salt `seq * ATTEMPT_SALT_STRIDE + a`. All of them must stay below
/// the next request's first salt: one more retry would let a request's
/// last attempts draw the next request's first fault streams.
pub const MAX_RETRIES: usize = ATTEMPT_SALT_STRIDE / DEVICE_TIERS - 1;

/// Recovery-lane time of a request: every attempt's modeled cost and the
/// backoff before each retry, summed in the order they accrued (attempt,
/// backoff, attempt, ...) so the float sum never reassociates. `events`
/// holds one entry per failed attempt; only retries carry a backoff.
fn lane_ms(attempt_ms: &[f64], events: &[RecoveryEvent<ServeTier>]) -> f64 {
    let backoffs = events
        .iter()
        .map(|e| e.backoff_ms)
        .chain(std::iter::once(0.0));
    attempt_ms
        .iter()
        .zip(backoffs)
        .fold(0.0, |total, (ms, backoff)| total + ms + backoff)
}

/// Run a multi-tenant serve: admission, deadline shedding, slot
/// scheduling on fault-free estimates, and per-request recovery ladders
/// over a shared device pool. See the module docs for the determinism
/// and blast-radius rules.
pub fn serve(
    tenants: &[TenantSpec],
    requests: &[ServeRequest],
    cfg: &ServeConfig,
) -> Result<ServeReport, ServeError> {
    if tenants.is_empty() {
        return Err(ServeError::Config("no tenants".into()));
    }
    if cfg.slots == 0 {
        return Err(ServeError::Config("need at least one device slot".into()));
    }
    if cfg.policy.max_retries > MAX_RETRIES {
        return Err(ServeError::Config(format!(
            "policy.max_retries must be <= {MAX_RETRIES}, got {}",
            cfg.policy.max_retries
        )));
    }
    check_config(cfg)?;
    for (i, t) in tenants.iter().enumerate() {
        if t.queue_capacity == 0 {
            return Err(ServeError::Config(format!(
                "tenant {i} has queue capacity 0"
            )));
        }
        if t.byte_quota == 0 {
            return Err(ServeError::Config(format!("tenant {i} has byte quota 0")));
        }
    }
    for (i, r) in requests.iter().enumerate() {
        if r.tenant >= tenants.len() {
            return Err(ServeError::Config(format!(
                "request {i} names tenant {} of {}",
                r.tenant,
                tenants.len()
            )));
        }
        if !r.arrival_ms.is_finite() || r.arrival_ms < 0.0 {
            return Err(ServeError::Config(format!(
                "request {i} arrival not finite"
            )));
        }
        if r.deadline_ms.is_nan() {
            return Err(ServeError::Config(format!("request {i} deadline is NaN")));
        }
    }

    let pool = DevicePool::new();
    // The call's one device, built at the first device-tier attempt and
    // reset before each.
    let mut device: Option<Gpu> = None;

    // Stable arrival order: ties broken by submission index.
    let mut order: Vec<usize> = (0..requests.len()).collect();
    order.sort_by(|&a, &b| {
        requests[a]
            .arrival_ms
            .partial_cmp(&requests[b].arrival_ms)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });

    let mut slot_free = vec![0.0f64; cfg.slots];
    let mut tenant_reserved_free = vec![0.0f64; tenants.len()];
    let mut admitted_starts: Vec<Vec<f64>> = vec![Vec::new(); tenants.len()];
    let mut max_depth = vec![0usize; tenants.len()];
    let mut busy_ms = vec![0.0f64; tenants.len()];
    let mut outcomes: Vec<Option<RequestOutcome>> = vec![None; requests.len()];

    for &seq in &order {
        let req = &requests[seq];
        let tenant = &tenants[req.tenant];
        let data = ClassData::of(req.class);

        let reject = |status: RequestStatus, at: f64| RequestOutcome {
            tenant: req.tenant,
            seq,
            class: req.class,
            arrival_ms: req.arrival_ms,
            deadline_ms: req.deadline_ms,
            start_ms: 0.0,
            completion_ms: at,
            latency_ms: 0.0,
            status,
            weights: Vec::new(),
            iterations: 0,
            events: Vec::new(),
            resumes: Vec::new(),
            faults: FaultCountsReport::default(),
        };

        // Admission 1: bounded queue. Depth = this tenant's admitted
        // requests still waiting (start strictly after this arrival).
        let depth = admitted_starts[req.tenant]
            .iter()
            .filter(|&&s| s > req.arrival_ms)
            .count();
        max_depth[req.tenant] = max_depth[req.tenant].max(depth);
        if depth >= tenant.queue_capacity {
            let err = ServeError::QueueFull {
                tenant: req.tenant,
                capacity: tenant.queue_capacity,
            };
            if fusedml_trace::is_enabled() {
                fusedml_trace::instant(
                    "serve",
                    "reject",
                    &tenant.name,
                    &[
                        ("class", req.class.name().into()),
                        ("error", err.kind().into()),
                    ],
                );
            }
            outcomes[seq] = Some(reject(
                RequestStatus::Rejected { error: err },
                req.arrival_ms,
            ));
            continue;
        }

        // Admission 2: byte quota picks the tier (quota pressure degrades
        // fused -> streamed before it rejects).
        let admitted_tier = if data.fused_footprint() <= tenant.byte_quota {
            ServeTier::Fused
        } else if data.streamed_footprint() <= tenant.byte_quota {
            ServeTier::Streamed
        } else {
            let err = ServeError::QuotaExceeded {
                tenant: req.tenant,
                needed_bytes: data.streamed_footprint(),
                quota_bytes: tenant.byte_quota,
            };
            if fusedml_trace::is_enabled() {
                fusedml_trace::instant(
                    "serve",
                    "reject",
                    &tenant.name,
                    &[
                        ("class", req.class.name().into()),
                        ("error", err.kind().into()),
                    ],
                );
            }
            outcomes[seq] = Some(reject(
                RequestStatus::Rejected { error: err },
                req.arrival_ms,
            ));
            continue;
        };

        // Fault-free estimate of the admitted work: the slot reservation
        // currency.
        let est = slot_estimate(req.class, admitted_tier, cfg)?;

        // Slot plan: earliest-free slot, serialized per tenant on
        // *reserved* windows — all fault-independent.
        let (slot, &free) = slot_free
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .unwrap_or((0, &0.0));
        let start = req
            .arrival_ms
            .max(tenant_reserved_free[req.tenant])
            .max(free);
        let projected = start + est;

        // Deadline: shed now rather than miss silently later.
        if projected > req.deadline_ms {
            let err = ServeError::DeadlineExceeded {
                tenant: req.tenant,
                deadline_ms: req.deadline_ms,
                projected_ms: projected,
            };
            if fusedml_trace::is_enabled() {
                fusedml_trace::instant(
                    "serve",
                    "shed",
                    &tenant.name,
                    &[
                        ("class", req.class.name().into()),
                        ("projected_ms", projected.into()),
                    ],
                );
            }
            outcomes[seq] = Some(reject(RequestStatus::Shed { error: err }, req.arrival_ms));
            continue;
        }

        slot_free[slot] = projected;
        tenant_reserved_free[req.tenant] = projected;
        admitted_starts[req.tenant].push(start);
        busy_ms[req.tenant] += est;

        // Execute: the actual run, faults and all. Overrun beyond the
        // estimate lands on this tenant's recovery lane only.
        let ckpt = cfg.policy.checkpoint();
        let ckpt = ckpt.as_ref();
        let ladder = &ServeTier::LADDER[admitted_tier as usize..];
        let mut attempts = 0usize;
        let mut attempt_ms = Vec::new();
        let mut faults = FaultCountsReport::default();
        let run = run_with_recovery(
            ladder,
            &cfg.policy,
            &tenant.name,
            ckpt,
            // Serving twist: device loss is retried at the same tier —
            // the pool supplies a replacement device.
            |e| e.is_transient() || e.kind() == "device-lost",
            |tier| {
                attempts += 1;
                // Each device attempt gets a replacement device: the call's
                // device, reset to its just-built state, so a `device-lost`
                // attempt is replaced, not resurrected. The attempt-salted
                // profile gives the replacement its own deterministic fault
                // stream.
                let gpu = (tier != ServeTier::Cpu).then(|| {
                    let g = device.get_or_insert_with(|| {
                        Gpu::new(cfg.device.clone())
                            .with_shared_pool(&pool)
                            .with_integrity_checks(true)
                    });
                    g.reset(
                        tenant
                            .faults
                            .as_ref()
                            .map_or_else(FaultProfile::disabled, |p| {
                                p.for_device(seq * ATTEMPT_SALT_STRIDE + attempts - 1)
                            }),
                    );
                    &*g
                });
                let (res, ms) = run_attempt(gpu, tier, req.class, data, cfg, ckpt);
                attempt_ms.push(ms);
                if let Some(g) = gpu {
                    faults.merge_counts(&g.faults().counts());
                }
                res
            },
        );
        let resumes = ckpt.map(|h| h.resumes()).unwrap_or_default();
        let outcome = match run {
            Ok(lr) => {
                let total_ms = lane_ms(&attempt_ms, &lr.events);
                let completion = start + total_ms;
                let recovered = lr.attempts > 1 || lr.tier != admitted_tier;
                let missed = completion > req.deadline_ms;
                if fusedml_trace::is_enabled() {
                    fusedml_trace::sim_span(
                        "serve",
                        req.class.name(),
                        &tenant.name,
                        total_ms,
                        &[
                            ("tier", ServeTier::name(lr.tier).into()),
                            ("attempts", lr.attempts.into()),
                            ("start_ms", start.into()),
                            ("recovered", recovered.into()),
                        ],
                    );
                }
                RequestOutcome {
                    tenant: req.tenant,
                    seq,
                    class: req.class,
                    arrival_ms: req.arrival_ms,
                    deadline_ms: req.deadline_ms,
                    start_ms: start,
                    completion_ms: completion,
                    latency_ms: completion - req.arrival_ms,
                    status: RequestStatus::Completed {
                        tier: lr.tier,
                        admitted_tier,
                        attempts: lr.attempts,
                        resumed_at: lr.resumed_at,
                        missed_deadline: missed,
                    },
                    weights: lr.value.weights,
                    iterations: lr.value.iterations,
                    events: lr.events,
                    resumes,
                    faults,
                }
            }
            Err(ladder) => {
                let events = ladder.events.clone();
                let completion = start; // no successful work to charge
                RequestOutcome {
                    tenant: req.tenant,
                    seq,
                    class: req.class,
                    arrival_ms: req.arrival_ms,
                    deadline_ms: req.deadline_ms,
                    start_ms: start,
                    completion_ms: completion,
                    latency_ms: 0.0,
                    status: RequestStatus::Failed {
                        error: ServeError::Ladder(ladder),
                    },
                    weights: Vec::new(),
                    iterations: 0,
                    events,
                    resumes,
                    faults,
                }
            }
        };
        outcomes[seq] = Some(outcome);
    }

    let outcomes: Vec<RequestOutcome> = outcomes
        .into_iter()
        .enumerate()
        .map(|(i, o)| match o {
            Some(o) => o,
            // Every submitted request gets exactly one outcome above;
            // keep a diagnosable panic for the impossible arm.
            None => unreachable!("request {i} was never scheduled"),
        })
        .collect();

    let tenants_summary = tenants
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let mine: Vec<&RequestOutcome> = outcomes.iter().filter(|o| o.tenant == i).collect();
            TenantSummary {
                name: t.name.clone(),
                submitted: mine.len(),
                completed: mine.iter().filter(|o| o.status.is_completed()).count(),
                rejected_queue: mine
                    .iter()
                    .filter(|o| matches!(&o.status, RequestStatus::Rejected { error } if error.kind() == "queue-full"))
                    .count(),
                rejected_quota: mine
                    .iter()
                    .filter(|o| matches!(&o.status, RequestStatus::Rejected { error } if error.kind() == "quota-exceeded"))
                    .count(),
                shed: mine
                    .iter()
                    .filter(|o| matches!(o.status, RequestStatus::Shed { .. }))
                    .count(),
                failed: mine
                    .iter()
                    .filter(|o| matches!(o.status, RequestStatus::Failed { .. }))
                    .count(),
                recoveries: mine
                    .iter()
                    .filter(|o| {
                        matches!(
                            &o.status,
                            RequestStatus::Completed { tier, admitted_tier, attempts, resumed_at, .. }
                                if *attempts > 1 || tier != admitted_tier || resumed_at.is_some()
                        )
                    })
                    .count(),
                deadline_misses: mine
                    .iter()
                    .filter(|o| {
                        matches!(&o.status, RequestStatus::Completed { missed_deadline, .. } if *missed_deadline)
                    })
                    .count(),
                max_queue_depth: max_depth[i],
                busy_ms: busy_ms[i],
                faults_injected: mine.iter().map(|o| o.faults.total()).sum(),
            }
        })
        .collect();

    let makespan_ms = outcomes.iter().map(|o| o.completion_ms).fold(0.0, f64::max);
    Ok(ServeReport {
        tenants: tenants_summary,
        makespan_ms,
        slot_busy_ms: busy_ms.iter().sum(),
        pool: pool.stats(),
        outcomes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusedml_gpu_sim::DeviceError;

    fn quiet_cfg() -> ServeConfig {
        ServeConfig {
            policy: RecoveryPolicy {
                checkpoint_every: 2,
                max_retries: 3,
                ..RecoveryPolicy::default()
            },
            ..ServeConfig::default()
        }
    }

    fn big_quota() -> u64 {
        64 * 1024 * 1024
    }

    /// Relative L2 distance between two iterates.
    fn rel_l2(a: &[f64], b: &[f64]) -> f64 {
        let num: f64 = a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum();
        let den: f64 = b.iter().map(|y| y * y).sum();
        (num / den.max(1e-300)).sqrt()
    }

    #[test]
    fn clean_runs_agree_across_fused_and_streamed() {
        let cfg = quiet_cfg();
        for class in WorkloadClass::ALL {
            let f = clean_run(class, ServeTier::Fused, &cfg).unwrap();
            let s = clean_run(class, ServeTier::Streamed, &cfg).unwrap();
            // The streamer follows the canonical sharded reduction order,
            // so cross-tier agreement is ulp-level, not bitwise; bitwise
            // identity holds per tier (the blast-radius contract).
            assert!(
                rel_l2(&f.weights, &s.weights) < 1e-12,
                "{} fused vs streamed",
                class.name()
            );
            assert!(f.modeled_ms > 0.0);
            assert!(s.modeled_ms > 0.0);
        }
    }

    #[test]
    fn queue_capacity_bounds_the_backlog_with_typed_rejections() {
        let cfg = quiet_cfg();
        let tenants = vec![TenantSpec::new("t0", 1, big_quota())];
        // Three simultaneous arrivals on one slot: the first runs, the
        // second waits (depth 1), the third busts the capacity-1 queue.
        let reqs = vec![
            ServeRequest::new(0, WorkloadClass::LrCg, 0.0),
            ServeRequest::new(0, WorkloadClass::LrCg, 0.0),
            ServeRequest::new(0, WorkloadClass::LrCg, 0.0),
        ];
        let rep = serve(&tenants, &reqs, &cfg).unwrap();
        assert!(rep.outcomes[0].status.is_completed());
        assert!(rep.outcomes[1].status.is_completed());
        match &rep.outcomes[2].status {
            RequestStatus::Rejected { error } => {
                assert_eq!(error.kind(), "queue-full");
            }
            other => panic!("expected queue-full rejection, got {other:?}"),
        }
        assert_eq!(rep.tenants[0].rejected_queue, 1);
        assert!(rep.tenants[0].max_queue_depth >= 1);
    }

    #[test]
    fn quota_degrades_to_streamed_then_rejects() {
        let cfg = quiet_cfg();
        let data = ClassData::of(WorkloadClass::LrCg);
        let fused = data.fused_footprint();
        let streamed = data.streamed_footprint();
        assert!(streamed < fused, "streaming must shrink the footprint");

        // Quota between the streamed and fused footprints: admitted, but
        // on the streamed tier.
        let tenants = vec![TenantSpec::new("mid", 4, (streamed + fused) / 2)];
        let reqs = vec![ServeRequest::new(0, WorkloadClass::LrCg, 0.0)];
        let rep = serve(&tenants, &reqs, &cfg).unwrap();
        match &rep.outcomes[0].status {
            RequestStatus::Completed {
                tier,
                admitted_tier,
                ..
            } => {
                assert_eq!(*admitted_tier, ServeTier::Streamed);
                assert_eq!(*tier, ServeTier::Streamed);
            }
            other => panic!("expected streamed completion, got {other:?}"),
        }
        // Result bit-identical to the streamed single-session reference.
        let reference = clean_run(WorkloadClass::LrCg, ServeTier::Streamed, &cfg).unwrap();
        assert_eq!(rep.outcomes[0].weights, reference.weights);

        // Quota below even the streamed footprint: typed rejection.
        let tenants = vec![TenantSpec::new("tiny", 4, streamed - 1)];
        let rep = serve(&tenants, &reqs, &cfg).unwrap();
        match &rep.outcomes[0].status {
            RequestStatus::Rejected { error } => {
                assert_eq!(error.kind(), "quota-exceeded");
                assert!(matches!(
                    error,
                    ServeError::QuotaExceeded { needed_bytes, quota_bytes, .. }
                        if *needed_bytes == streamed && *quota_bytes == streamed - 1
                ));
            }
            other => panic!("expected quota rejection, got {other:?}"),
        }
    }

    #[test]
    fn infeasible_deadlines_shed_instead_of_queueing() {
        let mut cfg = quiet_cfg();
        cfg.slots = 1;
        let est = clean_run(WorkloadClass::Hits, ServeTier::Fused, &cfg)
            .unwrap()
            .modeled_ms;
        let tenants = vec![TenantSpec::new("t0", 8, big_quota())];
        let reqs = vec![
            ServeRequest::new(0, WorkloadClass::Hits, 0.0),
            // Arrives while the slot is busy; deadline shorter than one
            // run: provably infeasible, shed at dispatch.
            ServeRequest::new(0, WorkloadClass::Hits, 0.0).with_deadline(est * 1.5),
            // Generous deadline: runs after the first.
            ServeRequest::new(0, WorkloadClass::Hits, 0.0).with_deadline(est * 10.0),
        ];
        let rep = serve(&tenants, &reqs, &cfg).unwrap();
        assert!(rep.outcomes[0].status.is_completed());
        match &rep.outcomes[1].status {
            RequestStatus::Shed { error } => {
                assert_eq!(error.kind(), "deadline-exceeded");
            }
            other => panic!("expected shed, got {other:?}"),
        }
        assert!(rep.outcomes[2].status.is_completed());
        assert_eq!(rep.shed(), 1);
        // Shedding consumed no slot time: completed requests are
        // back-to-back.
        assert_eq!(rep.outcomes[2].start_ms, est);
    }

    #[test]
    fn serve_is_deterministic() {
        let cfg = quiet_cfg();
        let tenants: Vec<TenantSpec> = (0..3)
            .map(|i| {
                let t = TenantSpec::new(format!("t{i}"), 4, big_quota());
                if i == 1 {
                    t.with_faults(FaultProfile::seeded(7).with_kernel_fault_rate(0.02))
                } else {
                    t
                }
            })
            .collect();
        let reqs: Vec<ServeRequest> = (0..6)
            .map(|i| ServeRequest::new(i % 3, WorkloadClass::ALL[i % 6], i as f64 * 3.0))
            .collect();
        let a = serve(&tenants, &reqs, &cfg).unwrap();
        let b = serve(&tenants, &reqs, &cfg).unwrap();
        assert_eq!(a, b);
    }

    /// The acceptance-criteria blast-radius test: device loss in one
    /// tenant of eight; that tenant recovers from checkpoint with a
    /// bit-identical result, and every co-tenant's modeled latency is
    /// bit-identical to the fault-free serve run.
    #[test]
    fn device_loss_blast_radius_is_contained() {
        let cfg = quiet_cfg();
        let faulted = 3usize;
        let tenants: Vec<TenantSpec> = (0..8)
            .map(|i| TenantSpec::new(format!("tenant{i}"), 4, big_quota()))
            .collect();
        // Tenant 3 runs LR-CG (8 iterations, checkpoints every 2) — the
        // class where a mid-solve loss exercises resume.
        let reqs: Vec<ServeRequest> = (0..8)
            .map(|i| {
                let class = if i == faulted {
                    WorkloadClass::LrCg
                } else {
                    WorkloadClass::ALL[i % 6]
                };
                ServeRequest::new(i, class, i as f64 * 2.0)
            })
            .collect();

        let base = serve(&tenants, &reqs, &cfg).unwrap();
        assert_eq!(base.completed(), 8);

        // Find a seed where the loss fires mid-solve (past the first
        // checkpoint) and the replacement-device retry completes on the
        // fused tier.
        let mut hit = None;
        for seed in 0..200u64 {
            let mut faulty = tenants.clone();
            faulty[faulted] = faulty[faulted]
                .clone()
                .with_faults(FaultProfile::seeded(seed).with_device_loss_rate(0.03));
            let rep = serve(&faulty, &reqs, &cfg).unwrap();
            let o = &rep.outcomes[faulted];
            if let RequestStatus::Completed {
                tier,
                attempts,
                resumed_at,
                ..
            } = &o.status
            {
                if *tier == ServeTier::Fused && *attempts > 1 && resumed_at.unwrap_or(0) > 0 {
                    hit = Some((seed, rep));
                    break;
                }
            }
        }
        let (seed, rep) = hit.expect("no seed in 0..200 produced a mid-solve device loss");

        let o = &rep.outcomes[faulted];
        // The faulted tenant recovered: injected losses, a resume, and a
        // result bit-identical to its fault-free single-session run.
        assert!(o.faults.device_losses > 0, "seed {seed} injected no loss");
        assert!(!o.resumes.is_empty());
        let reference = clean_run(WorkloadClass::LrCg, ServeTier::Fused, &cfg).unwrap();
        assert_eq!(
            o.weights, reference.weights,
            "recovered result must be bit-identical"
        );
        assert_eq!(o.weights, base.outcomes[faulted].weights);
        // Recovery cost real time: the faulted request's latency grew.
        assert!(o.latency_ms > base.outcomes[faulted].latency_ms);

        // Blast radius: every co-tenant's schedule and modeled latency is
        // bit-identical to the fault-free run, and none saw an error.
        for i in 0..8 {
            if i == faulted {
                continue;
            }
            let (b, f) = (&base.outcomes[i], &rep.outcomes[i]);
            assert_eq!(
                b.start_ms.to_bits(),
                f.start_ms.to_bits(),
                "tenant {i} start"
            );
            assert_eq!(
                b.latency_ms.to_bits(),
                f.latency_ms.to_bits(),
                "tenant {i} latency perturbed by tenant {faulted}'s fault"
            );
            assert_eq!(b.weights, f.weights, "tenant {i} result");
            assert_eq!(f.faults.total(), 0, "tenant {i} saw injected faults");
            assert!(f.events.is_empty(), "tenant {i} took recovery actions");
        }
        assert_eq!(rep.tenants[faulted].recoveries, 1);
    }

    /// Satellite: ladder trails under repeated degrade+resume cycles —
    /// the resume trail is monotone non-decreasing across tiers.
    #[test]
    fn resume_trail_is_monotone_across_degrade_cycles() {
        let mut cfg = quiet_cfg();
        cfg.policy.max_retries = 2;
        let reqs = vec![ServeRequest::new(0, WorkloadClass::LrCg, 0.0)];
        let mut checked = false;
        for seed in 0..200u64 {
            let tenants = vec![TenantSpec::new("t0", 2, big_quota())
                .with_faults(FaultProfile::seeded(seed).with_kernel_fault_rate(0.05))];
            let rep = serve(&tenants, &reqs, &cfg).unwrap();
            let o = &rep.outcomes[0];
            if o.resumes.len() >= 2 {
                assert!(
                    o.resumes.windows(2).all(|w| w[0] <= w[1]),
                    "resume trail went backwards: {:?} (seed {seed})",
                    o.resumes
                );
                // The run degraded or retried at least that many times.
                assert!(o.events.len() >= o.resumes.len());
                checked = true;
                break;
            }
        }
        assert!(checked, "no seed produced >= 2 resumes");
    }

    /// Satellite: `LadderError` Display names every attempted tier
    /// exactly once, in ladder order.
    #[test]
    fn ladder_error_display_names_each_tier_once() {
        let dev = |k: &str| -> SolverError {
            SolverError::Device(DeviceError::TransientFault {
                kernel: k.into(),
                fault_index: 1,
            })
        };
        let err = LadderError::<ServeTier> {
            tier_errors: vec![
                (ServeTier::Fused, dev("csrmv")),
                (ServeTier::Streamed, dev("chunk")),
                (
                    ServeTier::Cpu,
                    SolverError::breakdown("lr_cg", 3, "nr2 is NaN"),
                ),
            ],
            attempts: 7,
            events: Vec::new(),
        };
        let s = err.to_string();
        assert!(s.starts_with("recovery ladder exhausted after 7 attempts"));
        for tier in ["fused tier:", "streamed tier:", "cpu tier:"] {
            assert_eq!(
                s.matches(tier).count(),
                1,
                "{tier:?} should appear exactly once in {s:?}"
            );
        }
        let f = s.find("fused tier:").unwrap();
        let st = s.find("streamed tier:").unwrap();
        let c = s.find("cpu tier:").unwrap();
        assert!(f < st && st < c, "tiers out of ladder order: {s}");
    }

    /// Satellite: streamed-tier misconfiguration surfaces as a typed
    /// error on the solver surface, never a panic.
    #[test]
    fn streamed_setup_failures_are_typed() {
        let e = stream_setup_error(StreamError::InvalidChunk);
        assert_eq!(e.kind(), "numerical-breakdown");
        assert!(!e.is_transient());
        let d = stream_setup_error(StreamError::Device(DeviceError::DeviceLost {
            device: 0,
            fault_index: 2,
        }));
        assert_eq!(d.kind(), "device-lost");
    }

    #[test]
    fn ladder_abort_without_degradation_is_a_typed_failure() {
        let mut cfg = quiet_cfg();
        cfg.policy.allow_degradation = false;
        cfg.policy.max_retries = 0;
        // Kernel faults on every launch: the fused tier cannot finish,
        // and with degradation off the ladder aborts with a typed error.
        let tenants = vec![TenantSpec::new("t0", 2, big_quota())
            .with_faults(FaultProfile::seeded(1).with_kernel_fault_rate(1.0))];
        let reqs = vec![ServeRequest::new(0, WorkloadClass::LrCg, 0.0)];
        let rep = serve(&tenants, &reqs, &cfg).unwrap();
        match &rep.outcomes[0].status {
            RequestStatus::Failed { error } => {
                assert_eq!(error.kind(), "ladder-exhausted");
                assert!(error.to_string().contains("fused tier:"));
            }
            other => panic!("expected ladder failure, got {other:?}"),
        }
        assert_eq!(rep.tenants[0].failed, 1);
        // A failed request still reports the faults its attempts drew.
        assert!(rep.outcomes[0].faults.kernel_faults > 0);
        assert_eq!(
            rep.tenants[0].faults_injected,
            rep.outcomes[0].faults.total()
        );
    }

    #[test]
    fn class_order_is_declaration_order() {
        // `ClassData::of` indexes the datasets by discriminant.
        for (i, class) in WorkloadClass::ALL.into_iter().enumerate() {
            assert_eq!(class as usize, i, "{}", class.name());
        }
    }

    /// Entries of the estimate memo whose config satisfies `pred`.
    fn memo_entries(pred: impl Fn(&ServeConfig) -> bool) -> usize {
        ESTIMATES
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .filter(|e| pred(&e.cfg))
            .count()
    }

    #[test]
    fn estimates_are_stored_once_per_class_tier_and_config() {
        let mut cfg = quiet_cfg();
        cfg.per_launch_overhead_ms = 0.0271; // no other test uses it
        let tenants = vec![TenantSpec::new("t0", 4, big_quota())];
        let reqs = vec![
            ServeRequest::new(0, WorkloadClass::Hits, 0.0),
            ServeRequest::new(0, WorkloadClass::Hits, 1.0),
            ServeRequest::new(0, WorkloadClass::Pagerank, 2.0),
        ];
        let first = serve(&tenants, &reqs, &cfg).unwrap();
        assert_eq!(memo_entries(|c| *c == cfg), 2);
        assert_eq!(serve(&tenants, &reqs, &cfg).unwrap(), first);
        assert_eq!(memo_entries(|c| *c == cfg), 2);
    }

    #[test]
    fn a_config_that_equals_nothing_is_not_stored() {
        let mut cfg = quiet_cfg();
        cfg.device.l2_bandwidth_gbps = f64::NAN;
        let tenants = vec![TenantSpec::new("t0", 4, big_quota())];
        let reqs = vec![ServeRequest::new(0, WorkloadClass::Hits, 0.0)];
        for _ in 0..2 {
            serve(&tenants, &reqs, &cfg).unwrap();
        }
        assert_eq!(memo_entries(|c| c.device.l2_bandwidth_gbps.is_nan()), 0);
    }

    /// Both entry points refuse `cfg` with a typed error naming `field`.
    fn assert_rejected(cfg: &ServeConfig, field: &str) {
        let tenants = vec![TenantSpec::new("t0", 2, big_quota())];
        let reqs = vec![ServeRequest::new(0, WorkloadClass::LrCg, 0.0)];
        let errors = [
            serve(&tenants, &reqs, cfg).map(|_| ()).unwrap_err(),
            clean_run(WorkloadClass::LrCg, ServeTier::Fused, cfg)
                .map(|_| ())
                .unwrap_err(),
        ];
        for err in errors {
            assert_eq!(err.kind(), "config", "{err}");
            assert!(err.to_string().contains(field), "{field}: {err}");
        }
    }

    #[test]
    fn a_device_the_simulator_rejects_is_a_config_error() {
        let mut cfg = quiet_cfg();
        cfg.device.shared_banks = 48;
        assert_rejected(&cfg, "48 shared-memory banks");
        let mut cfg = quiet_cfg();
        cfg.device.sector_bytes = 48;
        assert_rejected(&cfg, "must be powers of two");
    }

    #[test]
    fn per_launch_overhead_must_be_finite_and_non_negative() {
        for bad in [f64::NAN, -1.0, f64::INFINITY] {
            let mut cfg = quiet_cfg();
            cfg.per_launch_overhead_ms = bad;
            assert_rejected(&cfg, "per_launch_overhead_ms");
        }
    }

    #[test]
    fn backoff_must_be_finite_and_non_negative() {
        for bad in [f64::NAN, -5.0, f64::INFINITY] {
            let mut cfg = quiet_cfg();
            cfg.policy.backoff_ms = bad;
            assert_rejected(&cfg, "policy.backoff_ms");
        }
    }

    #[test]
    fn backoff_multiplier_must_be_finite_and_non_negative() {
        for bad in [f64::NAN, -2.0, f64::INFINITY] {
            let mut cfg = quiet_cfg();
            cfg.policy.backoff_multiplier = bad;
            assert_rejected(&cfg, "policy.backoff_multiplier");
        }
    }

    #[test]
    fn pcie_bandwidth_must_be_finite_and_positive() {
        for bad in [0.0, -12.0, f64::NAN, f64::INFINITY] {
            let mut cfg = quiet_cfg();
            cfg.transfer.pcie.bandwidth_gbps = bad;
            assert_rejected(&cfg, "transfer.pcie.bandwidth_gbps");
        }
    }

    #[test]
    fn pcie_latency_must_be_finite_and_non_negative() {
        for bad in [f64::NAN, -10.0, f64::INFINITY] {
            let mut cfg = quiet_cfg();
            cfg.transfer.pcie.latency_us = bad;
            assert_rejected(&cfg, "transfer.pcie.latency_us");
        }
    }

    #[test]
    fn jni_bandwidth_must_be_finite_and_positive() {
        for bad in [0.0, -5.0, f64::NAN, f64::INFINITY] {
            let mut cfg = quiet_cfg();
            cfg.transfer = TransferModel::systemml();
            cfg.transfer.jni_gbps = Some(bad);
            assert_rejected(&cfg, "transfer.jni_gbps");
        }
    }

    #[test]
    fn format_conversion_bandwidth_must_be_finite_and_positive() {
        for bad in [0.0, -2.5, f64::NAN, f64::INFINITY] {
            let mut cfg = quiet_cfg();
            cfg.transfer = TransferModel::systemml();
            cfg.transfer.format_conversion_gbps = Some(bad);
            assert_rejected(&cfg, "transfer.format_conversion_gbps");
        }
    }

    #[test]
    fn max_retries_past_the_salt_stride_is_a_config_error() {
        // 47 retries: 96 device attempts fit a stride of 97 salts; 48
        // would give a fused request 98, the last drawing the next
        // request's first fault stream.
        assert_eq!(MAX_RETRIES, 47);
        const _: () = assert!(
            DEVICE_TIERS * (MAX_RETRIES + 1) <= ATTEMPT_SALT_STRIDE
                && DEVICE_TIERS * (MAX_RETRIES + 2) > ATTEMPT_SALT_STRIDE
        );
        let tenants = vec![TenantSpec::new("t0", 2, big_quota())];
        let reqs = vec![ServeRequest::new(0, WorkloadClass::LrCg, 0.0)];
        let mut cfg = quiet_cfg();
        cfg.policy.max_retries = 48;
        let err = serve(&tenants, &reqs, &cfg).unwrap_err();
        assert_eq!(err.kind(), "config", "{err}");
        assert!(err.to_string().contains("policy.max_retries"), "{err}");
        cfg.policy.max_retries = 47;
        let report = serve(&tenants, &reqs, &cfg).unwrap();
        assert_eq!(report.completed(), 1);
    }

    #[test]
    fn config_validation_rejects_nonsense() {
        let cfg = quiet_cfg();
        let t = vec![TenantSpec::new("t0", 2, big_quota())];
        assert_eq!(serve(&[], &[], &cfg).unwrap_err().kind(), "config");
        assert_eq!(
            serve(&t, &[ServeRequest::new(5, WorkloadClass::LrCg, 0.0)], &cfg)
                .unwrap_err()
                .kind(),
            "config"
        );
        let mut bad = cfg.clone();
        bad.slots = 0;
        assert_eq!(serve(&t, &[], &bad).unwrap_err().kind(), "config");
        assert_eq!(
            serve(&[TenantSpec::new("z", 0, 1)], &[], &cfg)
                .unwrap_err()
                .kind(),
            "config"
        );
    }
}
