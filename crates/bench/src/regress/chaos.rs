//! Deterministic chaos campaign: `fusedml-bench chaos`.
//!
//! Sweeps seeded fault scenarios — every fault class the simulated device
//! can inject (kernel faults, allocation failures, transfer timeouts,
//! silent bit-flip corruption under the integrity layer, mid-run memory
//! pressure, a mixed profile, and — on multi-device scenarios — whole
//! device loss and stragglers) crossed with every solver workload — and
//! checks a small set of robustness invariants per scenario:
//!
//! 1. **never panics** — each scenario runs under `catch_unwind`; a panic
//!    is an invariant failure, not a campaign crash;
//! 2. **converges or aborts typed** — the run ends in a finite solution
//!    or a typed [`SolverError`], never a silently non-finite result;
//! 3. **retries are bounded** — at most [`MAX_DEVICE_ATTEMPTS`] device
//!    attempts before the CPU fallback, counted and checked;
//! 4. **accounting stays consistent** — device allocation never exceeds
//!    capacity, fault classes that were off drew nothing, and (with the
//!    integrity layer on) every injected bit flip was detected;
//! 5. **sharding is bit-transparent** — for multi-device LR-CG scenarios,
//!    the modeled result is bit-identical across an unfaulted 1-device
//!    run, an unfaulted N-device run, and an N-device run that lost one
//!    device (resharded onto the survivors).
//!
//! 6. **tenant isolation holds** — serving scenarios (a multi-tenant
//!    [`fn@fusedml_runtime::serve`] grid with the fault profile pinned to
//!    one seed-derived tenant) require the faulted tenant to recover and
//!    every co-tenant's outcomes to stay bit-identical to a fault-free
//!    run of the same grid: no error, no deadline miss, no latency shift
//!    caused by someone else's faults.
//!
//! Every scenario is a pure function of its 64-bit seed: the workload,
//! fault class, rates, device count, tenant count, interconnect and
//! dataset are all derived from it, and the report contains no
//! wall-clock times — so `chaos replay --seed <s>` reproduces any
//! scenario from a report bit-identically.

use super::json::Json;
use fusedml_gpu_sim::{DeviceGroup, DeviceSpec, FaultCounts, FaultProfile, Gpu, InterconnectSpec};
use fusedml_matrix::gen::{random_labels, random_vector, uniform_sparse};
use fusedml_matrix::{reference, CsrMatrix};
use fusedml_ml::{
    try_glm, try_hits, try_logreg, try_lr_cg, try_svm, Backend, CpuBackend, FusedBackend,
    GlmOptions, HitsOptions, LogRegOptions, LrCgOptions, ShardedBackend, SolverError, SvmOptions,
};
use fusedml_runtime::{
    clean_run, run_with_recovery, serve, BackendTier, LadderError, LadderOutcome, RecoveryPolicy,
    RecoveryTier, RequestStatus, ServeConfig, ServeRequest, ServeTier, ShardTier, TenantSpec,
    WorkloadClass,
};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Version of the chaos-report JSON layout. v2 added the multi-device
/// axis: `device_count` / `interconnect` per scenario, the device-loss
/// and straggler fault counts, and the `bit_identity` invariant. v3
/// added the serving axis: a `tenants` count per scenario and the
/// `tenant_isolation` invariant.
pub const CHAOS_SCHEMA_VERSION: u64 = 3;

/// Oldest report layout [`ChaosReport::from_json`] still accepts. v1/v2
/// reports load with the missing fields at their single-session
/// defaults (one device, no interconnect, zero tenants, `bit_identity`
/// and `tenant_isolation` vacuously true).
pub const CHAOS_MIN_SCHEMA_VERSION: u64 = 1;

/// Device attempts (fresh backend each) before falling back to the CPU.
pub const MAX_DEVICE_ATTEMPTS: usize = 4;

/// Scenario-derivation salt, distinct from the injector's per-class salts.
const SCENARIO_SALT: u64 = 0x6368616f735f7363; // "chaos_sc"

/// SplitMix64 finalizer — same mixer the fault injector uses, so scenario
/// derivation inherits its avalanche properties.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Which solver a scenario drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    LrCg,
    Glm,
    LogReg,
    Svm,
    Hits,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::LrCg,
        Workload::Glm,
        Workload::LogReg,
        Workload::Svm,
        Workload::Hits,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::LrCg => "lr_cg",
            Workload::Glm => "glm",
            Workload::LogReg => "logreg",
            Workload::Svm => "svm",
            Workload::Hits => "hits",
        }
    }

    /// Inverse of [`Workload::name`], for the report loader.
    pub fn from_name(name: &str) -> Result<Workload, String> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == name)
            .ok_or_else(|| format!("unknown workload '{name}'"))
    }
}

/// Which injector knob a scenario turns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultClass {
    KernelFaults,
    AllocFaults,
    TransferTimeouts,
    /// Bit flips with the integrity layer armed.
    Corruption,
    /// Mid-run reserve that rejects late allocations.
    MemoryPressure,
    /// Every class at once, at reduced rates (integrity armed).
    Mixed,
    /// Whole-device loss on a sharded multi-device group.
    DeviceLoss,
    /// Straggling shards on a multi-device group (timing-only faults;
    /// the run must still converge to the bit-exact result).
    Straggler,
}

impl FaultClass {
    pub const ALL: [FaultClass; 8] = [
        FaultClass::KernelFaults,
        FaultClass::AllocFaults,
        FaultClass::TransferTimeouts,
        FaultClass::Corruption,
        FaultClass::MemoryPressure,
        FaultClass::Mixed,
        FaultClass::DeviceLoss,
        FaultClass::Straggler,
    ];

    pub fn name(self) -> &'static str {
        match self {
            FaultClass::KernelFaults => "kernel",
            FaultClass::AllocFaults => "alloc",
            FaultClass::TransferTimeouts => "transfer",
            FaultClass::Corruption => "corruption",
            FaultClass::MemoryPressure => "pressure",
            FaultClass::Mixed => "mixed",
            FaultClass::DeviceLoss => "device-loss",
            FaultClass::Straggler => "straggler",
        }
    }

    /// Inverse of [`FaultClass::name`], for the report loader.
    pub fn from_name(name: &str) -> Result<FaultClass, String> {
        FaultClass::ALL
            .into_iter()
            .find(|c| c.name() == name)
            .ok_or_else(|| format!("unknown fault class '{name}'"))
    }

    /// Classes that require a device group (the rest run on one device).
    fn multi_device(self) -> bool {
        matches!(self, FaultClass::DeviceLoss | FaultClass::Straggler)
    }
}

/// One fully derived scenario. Everything below `seed` is a pure function
/// of it; the struct exists so reports can show the derivation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scenario {
    /// Position in the campaign (0 for standalone replays).
    pub index: usize,
    pub seed: u64,
    pub workload: Workload,
    pub class: FaultClass,
    /// Per-opportunity fault probability (reserve fraction for pressure).
    pub rate: f64,
    /// Allocation requests before the pressure reserve arms.
    pub pressure_after_allocs: Option<u64>,
    /// Seed for the scenario's dataset.
    pub data_seed: u64,
    /// Devices the scenario shards over (1 for single-device classes).
    pub device_count: usize,
    /// Interconnect profile name for multi-device scenarios; `"none"`
    /// on one device.
    pub interconnect: &'static str,
    /// Serving-grid tenant count: 0 runs the classic single-session
    /// ladder; `>= 2` runs the workload through the multi-tenant serving
    /// layer with the fault profile pinned to one seed-derived tenant.
    pub tenants: usize,
}

/// Fault-probability tiers: occasional, common, heavy, certain.
const RATES: [f64; 4] = [0.002, 0.02, 0.2, 1.0];

/// Device-loss probability tiers. A loss is terminal for its device, so
/// even the heavy tier stays below the per-launch certainty of [`RATES`]
/// — a rate-1.0 loss class would only ever measure the CPU fallback.
const LOSS_RATES: [f64; 4] = [0.001, 0.005, 0.02, 0.1];

/// Modeled-time slowdown a straggling launch suffers.
const STRAGGLER_SLOWDOWN: f64 = 8.0;

/// Interconnect profiles the multi-device axis draws from.
const INTERCONNECTS: [&str; 2] = ["pcie-gen3-x16", "nvlink2"];

/// `"none"` or a name [`InterconnectSpec::by_name`] accepts.
fn interconnect_static(name: &str) -> Result<&'static str, String> {
    if name == "none" {
        return Ok("none");
    }
    INTERCONNECTS
        .into_iter()
        .find(|n| *n == name)
        .ok_or_else(|| format!("unknown interconnect '{name}'"))
}

/// Derive scenario `index` of the campaign with the given seed.
pub fn scenario(campaign_seed: u64, index: usize) -> Scenario {
    let seed = mix64(campaign_seed.wrapping_add(mix64(SCENARIO_SALT ^ index as u64)));
    Scenario::from_seed(index, seed)
}

impl Scenario {
    /// Derive a scenario purely from its own seed (`chaos replay`).
    pub fn from_seed(index: usize, seed: u64) -> Scenario {
        let workload = Workload::ALL[(mix64(seed ^ 0xA1) % Workload::ALL.len() as u64) as usize];
        let class = FaultClass::ALL[(mix64(seed ^ 0xB2) % FaultClass::ALL.len() as u64) as usize];
        let (rate, pressure_after_allocs) = match class {
            // The reserve must cover the whole (huge) device to reject the
            // campaign's small buffers at all, so the knob is the arming
            // threshold, not the fraction.
            FaultClass::MemoryPressure => (1.0, Some(2 + mix64(seed ^ 0xD4) % 12)),
            FaultClass::DeviceLoss => (
                LOSS_RATES[(mix64(seed ^ 0xC3) % LOSS_RATES.len() as u64) as usize],
                None,
            ),
            _ => (
                RATES[(mix64(seed ^ 0xC3) % RATES.len() as u64) as usize],
                None,
            ),
        };
        let (device_count, interconnect) = if class.multi_device() {
            (
                2 + (mix64(seed ^ 0xF6) % 3) as usize, // 2..=4 devices
                INTERCONNECTS[(mix64(seed ^ 0x1C) % INTERCONNECTS.len() as u64) as usize],
            )
        } else {
            (1, "none")
        };
        // One single-device scenario in four serves its workload through
        // the multi-tenant grid (2..=4 tenants) instead of the classic
        // single-session ladder.
        let tenants = if !class.multi_device() && mix64(seed ^ 0x5E11) % 4 == 0 {
            2 + (mix64(seed ^ 0x7E4A) % 3) as usize
        } else {
            0
        };
        Scenario {
            index,
            seed,
            workload,
            class,
            rate,
            pressure_after_allocs,
            data_seed: mix64(seed ^ 0xE5),
            device_count,
            interconnect,
            tenants,
        }
    }

    fn profile(&self) -> FaultProfile {
        let p = FaultProfile::seeded(self.seed);
        match self.class {
            FaultClass::KernelFaults => p.with_kernel_fault_rate(self.rate),
            FaultClass::AllocFaults => p.with_alloc_fault_rate(self.rate),
            FaultClass::TransferTimeouts => p.with_transfer_timeout_rate(self.rate),
            FaultClass::Corruption => p.with_corruption_rate(self.rate),
            FaultClass::MemoryPressure => {
                p.with_memory_pressure(self.pressure_after_allocs.unwrap_or(2), self.rate)
            }
            FaultClass::Mixed => p
                .with_kernel_fault_rate(self.rate * 0.5)
                .with_alloc_fault_rate(self.rate * 0.25)
                .with_transfer_timeout_rate(self.rate * 0.25)
                .with_corruption_rate(self.rate * 0.25),
            FaultClass::DeviceLoss => p.with_device_loss_rate(self.rate),
            FaultClass::Straggler => p.with_straggler(self.rate, STRAGGLER_SLOWDOWN),
        }
    }

    /// The interconnect spec of a multi-device scenario.
    // A scenario's interconnect is always a name `interconnect_static`
    // accepted, so the lookup cannot miss.
    #[allow(clippy::panic)]
    fn interconnect_spec(&self) -> InterconnectSpec {
        InterconnectSpec::by_name(self.interconnect).unwrap_or_else(|| {
            panic!(
                "scenario carries unknown interconnect {}",
                self.interconnect
            )
        })
    }

    /// Corruption-bearing scenarios arm the checksum layer; pure
    /// fail-stop classes leave it off, matching production defaults.
    fn integrity(&self) -> bool {
        matches!(self.class, FaultClass::Corruption | FaultClass::Mixed)
    }

    /// The serving-layer workload class of a serving scenario (the
    /// logistic solver serves on its trust-region implementation).
    fn serve_class(&self) -> WorkloadClass {
        match self.workload {
            Workload::LrCg => WorkloadClass::LrCg,
            Workload::Glm => WorkloadClass::Glm,
            Workload::LogReg => WorkloadClass::Tron,
            Workload::Svm => WorkloadClass::Svm,
            Workload::Hits => WorkloadClass::Hits,
        }
    }
}

/// Dataset shared by every attempt of one scenario.
struct ScenarioData {
    x: CsrMatrix,
    labels: Vec<f64>,
}

/// Small enough that a 200-scenario campaign stays in CI-smoke territory,
/// large enough that every solver does real device work.
const ROWS: usize = 160;
const COLS: usize = 24;

impl ScenarioData {
    fn generate(sc: &Scenario) -> ScenarioData {
        let x = uniform_sparse(ROWS, COLS, 0.08, sc.data_seed);
        let labels = match sc.workload {
            Workload::LrCg => reference::csr_mv(&x, &random_vector(COLS, sc.data_seed + 1)),
            Workload::Glm => reference::csr_mv(&x, &random_vector(COLS, sc.data_seed + 1))
                .iter()
                .map(|&e| e.clamp(-3.0, 3.0).exp())
                .collect(),
            Workload::LogReg | Workload::Svm => random_labels(ROWS, sc.data_seed + 1),
            Workload::Hits => Vec::new(),
        };
        ScenarioData { x, labels }
    }
}

/// Drive the scenario's solver; the returned vector is the iterate the
/// finiteness invariant inspects.
fn run_workload<B: Backend>(
    b: &mut B,
    workload: Workload,
    data: &ScenarioData,
) -> Result<Vec<f64>, SolverError> {
    match workload {
        Workload::LrCg => try_lr_cg(
            b,
            &data.labels,
            LrCgOptions {
                max_iterations: 6,
                ..Default::default()
            },
        )
        .map(|r| r.weights),
        Workload::Glm => try_glm(
            b,
            &data.labels,
            GlmOptions {
                max_outer: 3,
                max_inner_cg: 8,
                ..Default::default()
            },
        )
        .map(|r| r.weights),
        Workload::LogReg => try_logreg(
            b,
            &data.labels,
            LogRegOptions {
                max_outer: 3,
                max_inner_cg: 8,
                ..Default::default()
            },
        )
        .map(|r| r.weights),
        Workload::Svm => try_svm(
            b,
            &data.labels,
            SvmOptions {
                max_outer: 3,
                max_inner_cg: 8,
                ..Default::default()
            },
        )
        .map(|r| r.weights),
        Workload::Hits => try_hits(
            b,
            HitsOptions {
                max_iterations: 6,
                ..Default::default()
            },
        )
        .map(|r| r.authorities),
    }
}

/// Per-scenario invariant verdicts (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvariantChecks {
    pub no_panic: bool,
    pub typed_outcome: bool,
    pub finite_result: bool,
    pub bounded_attempts: bool,
    pub accounting: bool,
    /// Multi-device LR-CG scenarios: the modeled result is bit-identical
    /// across a 1-device run, an N-device run, and an N-device run that
    /// lost one device, all unfaulted. Serving scenarios: every completion
    /// that stayed on its admitted tier is bit-identical to the fault-free
    /// single-session [`clean_run`] of that tier. Vacuously true elsewhere.
    pub bit_identity: bool,
    /// Serving scenarios only (vacuously true elsewhere): the faulted
    /// tenant recovered (no `Failed` outcome) and every co-tenant's
    /// outcomes — status, timing bits, weight bits — are identical to a
    /// fault-free run of the same grid, with zero faults leaking into
    /// co-tenant attempts.
    pub tenant_isolation: bool,
}

impl InvariantChecks {
    pub fn pass(&self) -> bool {
        self.no_panic
            && self.typed_outcome
            && self.finite_result
            && self.bounded_attempts
            && self.accounting
            && self.bit_identity
            && self.tenant_isolation
    }

    fn failed() -> InvariantChecks {
        InvariantChecks {
            no_panic: false,
            typed_outcome: false,
            finite_result: false,
            bounded_attempts: false,
            accounting: false,
            bit_identity: false,
            tenant_isolation: false,
        }
    }

    fn to_json(self) -> Json {
        Json::obj(vec![
            ("no_panic", Json::Bool(self.no_panic)),
            ("typed_outcome", Json::Bool(self.typed_outcome)),
            ("finite_result", Json::Bool(self.finite_result)),
            ("bounded_attempts", Json::Bool(self.bounded_attempts)),
            ("accounting", Json::Bool(self.accounting)),
            ("bit_identity", Json::Bool(self.bit_identity)),
            ("tenant_isolation", Json::Bool(self.tenant_isolation)),
        ])
    }

    fn from_json(j: &Json) -> Result<InvariantChecks, String> {
        let flag = |key: &str| -> Result<bool, String> {
            match j.field(key)? {
                Json::Bool(b) => Ok(*b),
                _ => Err(format!("field '{key}' is not a bool")),
            }
        };
        Ok(InvariantChecks {
            no_panic: flag("no_panic")?,
            typed_outcome: flag("typed_outcome")?,
            finite_result: flag("finite_result")?,
            bounded_attempts: flag("bounded_attempts")?,
            accounting: flag("accounting")?,
            // v1 reports predate the invariant; it held vacuously there.
            bit_identity: match j.get("bit_identity") {
                Some(Json::Bool(b)) => *b,
                Some(_) => return Err("field 'bit_identity' is not a bool".to_string()),
                None => true,
            },
            // v1/v2 reports predate serving scenarios.
            tenant_isolation: match j.get("tenant_isolation") {
                Some(Json::Bool(b)) => *b,
                Some(_) => return Err("field 'tenant_isolation' is not a bool".to_string()),
                None => true,
            },
        })
    }
}

/// Outcome of one scenario. Deterministic for a given scenario seed —
/// nothing in here depends on the host or the clock.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioResult {
    pub scenario: Scenario,
    /// `"converged"`, `"typed-abort"` or `"panic"`.
    pub outcome: &'static str,
    /// Tier that produced the outcome: `"fused"`, `"cpu"`, or `"none"`.
    pub tier: &'static str,
    /// Error class of a typed abort (`None` when converged).
    pub error_kind: Option<String>,
    /// Total solver attempts, CPU fallback included.
    pub attempts: usize,
    pub faults: FaultCounts,
    pub integrity_checks: u64,
    pub integrity_violations: u64,
    pub invariants: InvariantChecks,
}

impl ScenarioResult {
    pub fn pass(&self) -> bool {
        self.invariants.pass()
    }

    pub fn to_json(&self) -> Json {
        let sc = &self.scenario;
        Json::obj(vec![
            ("index", Json::u64(sc.index as u64)),
            ("seed", Json::str(format!("{:#018x}", sc.seed))),
            ("workload", Json::str(sc.workload.name())),
            ("fault_class", Json::str(sc.class.name())),
            ("rate", Json::num(sc.rate)),
            (
                "pressure_after_allocs",
                sc.pressure_after_allocs.map_or(Json::Null, Json::u64),
            ),
            ("device_count", Json::u64(sc.device_count as u64)),
            ("interconnect", Json::str(sc.interconnect)),
            ("tenants", Json::u64(sc.tenants as u64)),
            ("outcome", Json::str(self.outcome)),
            ("tier", Json::str(self.tier)),
            (
                "error_kind",
                self.error_kind.as_deref().map_or(Json::Null, Json::str),
            ),
            ("attempts", Json::u64(self.attempts as u64)),
            (
                "faults",
                Json::obj(vec![
                    ("kernel", Json::u64(self.faults.kernel_faults)),
                    ("alloc", Json::u64(self.faults.alloc_faults)),
                    ("transfer", Json::u64(self.faults.transfer_timeouts)),
                    ("watchdog", Json::u64(self.faults.watchdog_timeouts)),
                    ("corruptions", Json::u64(self.faults.corruptions)),
                    (
                        "pressure_rejections",
                        Json::u64(self.faults.pressure_rejections),
                    ),
                    ("device_losses", Json::u64(self.faults.device_losses)),
                    ("stragglers", Json::u64(self.faults.stragglers)),
                ]),
            ),
            (
                "integrity",
                Json::obj(vec![
                    ("checks", Json::u64(self.integrity_checks)),
                    ("violations", Json::u64(self.integrity_violations)),
                ]),
            ),
            ("invariants", self.invariants.to_json()),
            ("pass", Json::Bool(self.pass())),
        ])
    }

    /// Parse one result row; accepts v1 rows (multi-device fields absent).
    fn from_json(j: &Json) -> Result<ScenarioResult, String> {
        let seed = parse_hex_u64(j.field_str("seed")?)?;
        let scenario = Scenario {
            index: j.field_u64("index")? as usize,
            seed,
            workload: Workload::from_name(j.field_str("workload")?)?,
            class: FaultClass::from_name(j.field_str("fault_class")?)?,
            rate: j.field_f64("rate")?,
            pressure_after_allocs: match j.field("pressure_after_allocs")? {
                Json::Null => None,
                v => Some(v.as_u64().ok_or("pressure_after_allocs is not a number")?),
            },
            // Not serialized: a pure function of the seed, like the rest
            // of the derivation.
            data_seed: mix64(seed ^ 0xE5),
            device_count: match j.get("device_count") {
                Some(v) => v.as_u64().ok_or("device_count is not a number")? as usize,
                None => 1, // v1 report: everything ran on one device
            },
            interconnect: match j.get("interconnect") {
                Some(v) => interconnect_static(v.as_str().ok_or("interconnect is not a string")?)?,
                None => "none",
            },
            tenants: match j.get("tenants") {
                Some(v) => v.as_u64().ok_or("tenants is not a number")? as usize,
                None => 0, // v1/v2 report: no serving axis yet
            },
        };
        let outcome = match j.field_str("outcome")? {
            "converged" => "converged",
            "typed-abort" => "typed-abort",
            "panic" => "panic",
            other => return Err(format!("unknown outcome '{other}'")),
        };
        let tier = match j.field_str("tier")? {
            "fused" => "fused",
            "sharded" => "sharded",
            "serve" => "serve",
            "cpu" => "cpu",
            "none" => "none",
            other => return Err(format!("unknown tier '{other}'")),
        };
        let f = j.field("faults")?;
        let opt_count = |key: &str| -> Result<u64, String> {
            match f.get(key) {
                Some(v) => v
                    .as_u64()
                    .ok_or_else(|| format!("faults.{key} is not a number")),
                None => Ok(0), // v1 report: class did not exist yet
            }
        };
        let integrity = j.field("integrity")?;
        Ok(ScenarioResult {
            scenario,
            outcome,
            tier,
            error_kind: match j.field("error_kind")? {
                Json::Null => None,
                v => Some(v.as_str().ok_or("error_kind is not a string")?.to_string()),
            },
            attempts: j.field_u64("attempts")? as usize,
            faults: FaultCounts {
                kernel_faults: f.field_u64("kernel")?,
                alloc_faults: f.field_u64("alloc")?,
                transfer_timeouts: f.field_u64("transfer")?,
                watchdog_timeouts: f.field_u64("watchdog")?,
                corruptions: f.field_u64("corruptions")?,
                pressure_rejections: f.field_u64("pressure_rejections")?,
                device_losses: opt_count("device_losses")?,
                stragglers: opt_count("stragglers")?,
            },
            integrity_checks: integrity.field_u64("checks")?,
            integrity_violations: integrity.field_u64("violations")?,
            invariants: InvariantChecks::from_json(j.field("invariants")?)?,
        })
    }
}

/// Parse the `{:#018x}` seeds reports carry.
fn parse_hex_u64(s: &str) -> Result<u64, String> {
    let hex = s
        .strip_prefix("0x")
        .ok_or_else(|| format!("seed '{s}' is not 0x-hex"))?;
    u64::from_str_radix(hex, 16).map_err(|e| format!("seed '{s}': {e}"))
}

/// The campaign's retry budget: up to [`MAX_DEVICE_ATTEMPTS`] attempts on
/// the device tier before the CPU fallback.
fn campaign_policy() -> RecoveryPolicy {
    RecoveryPolicy {
        max_retries: MAX_DEVICE_ATTEMPTS - 1,
        ..RecoveryPolicy::default()
    }
}

/// Finishing tier, total attempts (CPU fallback included) and result of a
/// two-tier `[device, Cpu]` ladder. With degradation on, only the CPU
/// attempt can end the ladder in error.
fn ladder_result<T: RecoveryTier>(
    run: Result<LadderOutcome<T, Vec<f64>>, LadderError<T>>,
    cpu: T,
) -> (T, usize, Result<Vec<f64>, SolverError>) {
    match run {
        Ok(o) => (o.tier, o.attempts, Ok(o.value)),
        Err(e) => (cpu, e.attempts, Err(e.final_error().clone())),
    }
}

/// The fallback ladder of one scenario, minus the panic guard: fresh
/// fused backends up to the attempt budget, then the CPU.
fn run_scenario_inner(sc: &Scenario, data: &ScenarioData) -> ScenarioResult {
    if sc.device_count > 1 {
        return run_scenario_sharded(sc, data);
    }
    if sc.tenants >= 2 {
        return run_scenario_serving(sc);
    }
    let gpu = Gpu::with_host_threads(DeviceSpec::gtx_titan(), 1)
        .with_fault_profile(sc.profile())
        .with_integrity_checks(sc.integrity());

    let run = run_with_recovery(
        &[BackendTier::Fused, BackendTier::Cpu],
        &campaign_policy(),
        "host",
        None,
        SolverError::is_transient,
        |tier| match tier {
            BackendTier::Cpu => run_workload(
                &mut CpuBackend::new_sparse(data.x.clone()),
                sc.workload,
                data,
            ),
            _ => run_workload(
                &mut FusedBackend::try_new_sparse(&gpu, &data.x)?,
                sc.workload,
                data,
            ),
        },
    );
    let (tier, attempts, result) = ladder_result(run, BackendTier::Cpu);
    let tier = tier.name();

    let faults = gpu.faults().counts();
    let integrity = gpu.integrity_stats();
    let capacity_ok = gpu.allocated_bytes() <= gpu.spec().global_mem_bytes as u64;

    // Classes that were off must not have drawn; with checksums armed,
    // every injected flip must have been caught (a pure-corruption run
    // checks each flip the moment the poisoned buffer lands, so the
    // counts match exactly; under the mixed profile another fault can
    // abort the transfer between the draw and the check).
    let kernel_on = matches!(sc.class, FaultClass::KernelFaults | FaultClass::Mixed);
    let alloc_on = matches!(sc.class, FaultClass::AllocFaults | FaultClass::Mixed);
    let transfer_on = matches!(sc.class, FaultClass::TransferTimeouts | FaultClass::Mixed);
    let corruption_on = matches!(sc.class, FaultClass::Corruption | FaultClass::Mixed);
    let pressure_on = matches!(sc.class, FaultClass::MemoryPressure);
    let gating_ok = (kernel_on || faults.kernel_faults == 0)
        && (alloc_on || faults.alloc_faults == 0)
        && (transfer_on || faults.transfer_timeouts == 0)
        && (corruption_on || faults.corruptions == 0)
        && (pressure_on || faults.pressure_rejections == 0)
        && faults.watchdog_timeouts == 0
        // Single-device classes never lose devices or straggle.
        && faults.device_losses == 0
        && faults.stragglers == 0;
    let detection_ok = match sc.class {
        FaultClass::Corruption => integrity.violations == faults.corruptions,
        FaultClass::Mixed => integrity.violations <= faults.corruptions,
        _ => integrity.violations == 0,
    };

    let (outcome, error_kind, finite_result) = match &result {
        Ok(v) => (
            "converged",
            None,
            v.iter().all(|x| x.is_finite()) && !v.is_empty(),
        ),
        Err(e) => ("typed-abort", Some(e.kind().to_string()), true),
    };

    ScenarioResult {
        scenario: *sc,
        outcome,
        tier,
        error_kind,
        attempts,
        faults,
        integrity_checks: integrity.checks,
        integrity_violations: integrity.violations,
        invariants: InvariantChecks {
            no_panic: true,
            typed_outcome: true, // by construction: Ok or SolverError
            finite_result,
            bounded_attempts: attempts <= MAX_DEVICE_ATTEMPTS + 1,
            accounting: capacity_ok && gating_ok && detection_ok,
            bit_identity: true,     // single-device: nothing to compare
            tenant_isolation: true, // single-session: no co-tenants
        },
    }
}

/// The multi-device ladder: fresh sharded backends up to the attempt
/// budget, then the CPU. A device loss is permanent for its device but
/// not for the group — the next attempt's backend construction filters
/// the lost ordinal and reshards the rows onto the survivors, so losses
/// retry like transients as long as anyone is alive.
fn run_scenario_sharded(sc: &Scenario, data: &ScenarioData) -> ScenarioResult {
    let group = DeviceGroup::new(
        DeviceSpec::gtx_titan(),
        sc.device_count,
        sc.interconnect_spec(),
        &sc.profile(),
    );

    let run = run_with_recovery(
        &[ShardTier::ShardRetry, ShardTier::Cpu],
        &campaign_policy(),
        "host",
        None,
        |e| group.alive_count() > 0 && (e.is_transient() || e.kind() == "device-lost"),
        |tier| match tier {
            ShardTier::Cpu => run_workload(
                &mut CpuBackend::new_sparse(data.x.clone()),
                sc.workload,
                data,
            ),
            _ => run_workload(
                &mut ShardedBackend::try_new_sparse(&group, &data.x)?,
                sc.workload,
                data,
            ),
        },
    );
    let (tier, attempts, result) = ladder_result(run, ShardTier::Cpu);
    let tier = match tier {
        ShardTier::Cpu => "cpu",
        _ => "sharded",
    };

    let faults = group.fault_counts();
    let capacity_ok = (0..group.len()).all(|i| {
        group.device(i).allocated_bytes() <= group.device(i).spec().global_mem_bytes as u64
    });
    // Only the scenario's own class may draw; the integrity layer is off,
    // so no violations can be reported.
    let loss_on = sc.class == FaultClass::DeviceLoss;
    let straggler_on = sc.class == FaultClass::Straggler;
    let gating_ok = faults.kernel_faults == 0
        && faults.alloc_faults == 0
        && faults.transfer_timeouts == 0
        && faults.corruptions == 0
        && faults.pressure_rejections == 0
        && faults.watchdog_timeouts == 0
        && (loss_on || faults.device_losses == 0)
        && (straggler_on || faults.stragglers == 0);
    let detection_ok = (0..group.len()).all(|i| group.device(i).integrity_stats().violations == 0);

    let (outcome, error_kind, finite_result) = match &result {
        Ok(v) => (
            "converged",
            None,
            v.iter().all(|x| x.is_finite()) && !v.is_empty(),
        ),
        Err(e) => ("typed-abort", Some(e.kind().to_string()), true),
    };

    // The sharding-transparency invariant only has a sharded reference
    // implementation for LR-CG; the other solvers exercise it indirectly
    // through the pattern kernels they share with it.
    let bit_identity = if sc.workload == Workload::LrCg {
        check_bit_identity(sc, data)
    } else {
        true
    };

    ScenarioResult {
        scenario: *sc,
        outcome,
        tier,
        error_kind,
        attempts,
        faults,
        integrity_checks: (0..group.len())
            .map(|i| group.device(i).integrity_stats().checks)
            .sum(),
        integrity_violations: (0..group.len())
            .map(|i| group.device(i).integrity_stats().violations)
            .sum(),
        invariants: InvariantChecks {
            no_panic: true,
            typed_outcome: true,
            finite_result,
            bounded_attempts: attempts <= MAX_DEVICE_ATTEMPTS + 1,
            accounting: capacity_ok && gating_ok && detection_ok,
            bit_identity,
            tenant_isolation: true, // single-session: no co-tenants
        },
    }
}

/// The serving tier: run the scenario's workload through a multi-tenant
/// [`serve`] grid with the fault profile pinned to one seed-derived
/// tenant, then re-run the identical grid fault-free and hold invariant
/// 6 — the faulted tenant recovers (every request completes; the ladder
/// may degrade it, never `Failed`) and each co-tenant's outcomes are
/// bit-identical between the two runs: same status, same timing bits,
/// same weight bits, zero faults drawn in their own attempts.
fn run_scenario_serving(sc: &Scenario) -> ScenarioResult {
    let class = sc.serve_class();
    let faulted = (mix64(sc.seed ^ 0x7E11) % sc.tenants as u64) as usize;
    let cfg = ServeConfig::default();
    // Roomy queues and an unbounded quota: admission pressure is the
    // bench suite's concern; this scenario isolates fault blast radius.
    let grid = |faults_on: bool| -> Vec<TenantSpec> {
        (0..sc.tenants)
            .map(|i| {
                let spec = TenantSpec::new(format!("tenant-{i}"), 8, u64::MAX);
                if faults_on && i == faulted {
                    spec.with_faults(sc.profile())
                } else {
                    spec
                }
            })
            .collect()
    };
    // Two staggered requests per tenant so the grid contends for the
    // shared slots; deadlines are generous enough that only a fault
    // blast radius could miss one.
    let requests: Vec<ServeRequest> = (0..sc.tenants * 2)
        .map(|r| {
            let arrival = r as f64 * 3.0;
            ServeRequest::new(r % sc.tenants, class, arrival).with_deadline(arrival + 20_000.0)
        })
        .collect();

    let pair = serve(&grid(true), &requests, &cfg)
        .and_then(|f| serve(&grid(false), &requests, &cfg).map(|c| (f, c)));
    let (faulted_run, reference_run) = match pair {
        Ok(pair) => pair,
        Err(e) => {
            // A config refusal means the grid never ran: the abort is
            // typed, but every serving invariant went unverified.
            return ScenarioResult {
                scenario: *sc,
                outcome: "typed-abort",
                tier: "serve",
                error_kind: Some(e.kind().to_string()),
                attempts: 0,
                faults: FaultCounts::default(),
                integrity_checks: 0,
                integrity_violations: 0,
                invariants: InvariantChecks::failed(),
            };
        }
    };

    let mut faults = FaultCounts::default();
    let mut attempts = 0usize;
    let mut finite_result = true;
    for o in &faulted_run.outcomes {
        faults.kernel_faults += o.faults.kernel_faults;
        faults.alloc_faults += o.faults.alloc_faults;
        faults.transfer_timeouts += o.faults.transfer_timeouts;
        faults.watchdog_timeouts += o.faults.watchdog_timeouts;
        faults.corruptions += o.faults.corruptions;
        faults.pressure_rejections += o.faults.pressure_rejections;
        faults.device_losses += o.faults.device_losses;
        faults.stragglers += o.faults.stragglers;
        if let RequestStatus::Completed { attempts: a, .. } = o.status {
            attempts = attempts.max(a);
            finite_result =
                finite_result && !o.weights.is_empty() && o.weights.iter().all(|x| x.is_finite());
        }
    }

    // Same class gating as the single-device ladder: only the scenario's
    // own knob may draw, and serving profiles never lose devices,
    // straggle, or trip the watchdog.
    let kernel_on = matches!(sc.class, FaultClass::KernelFaults | FaultClass::Mixed);
    let alloc_on = matches!(sc.class, FaultClass::AllocFaults | FaultClass::Mixed);
    let transfer_on = matches!(sc.class, FaultClass::TransferTimeouts | FaultClass::Mixed);
    let corruption_on = matches!(sc.class, FaultClass::Corruption | FaultClass::Mixed);
    let pressure_on = matches!(sc.class, FaultClass::MemoryPressure);
    let gating_ok = (kernel_on || faults.kernel_faults == 0)
        && (alloc_on || faults.alloc_faults == 0)
        && (transfer_on || faults.transfer_timeouts == 0)
        && (corruption_on || faults.corruptions == 0)
        && (pressure_on || faults.pressure_rejections == 0)
        && faults.watchdog_timeouts == 0
        && faults.device_losses == 0
        && faults.stragglers == 0;

    // Invariant 6: the faulted tenant recovers everything it submitted,
    // and each co-tenant observes bit-for-bit the run it would have had
    // without the noisy neighbour.
    let recovered = faulted_run.tenants[faulted].completed
        == faulted_run.tenants[faulted].submitted
        && faulted_run.tenants[faulted].failed == 0;
    let co_clean = faulted_run
        .tenants
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != faulted)
        .all(|(_, t)| t.faults_injected == 0 && t.failed == 0);
    let co_identical = faulted_run
        .outcomes
        .iter()
        .zip(&reference_run.outcomes)
        .filter(|(o, _)| o.tenant != faulted)
        .all(|(a, b)| {
            a.status == b.status
                && a.start_ms.to_bits() == b.start_ms.to_bits()
                && a.completion_ms.to_bits() == b.completion_ms.to_bits()
                && a.latency_ms.to_bits() == b.latency_ms.to_bits()
                && a.weights.len() == b.weights.len()
                && a.weights
                    .iter()
                    .zip(&b.weights)
                    .all(|(x, y)| x.to_bits() == y.to_bits())
        });
    let tenant_isolation = recovered && co_clean && co_identical;

    // Invariant 5, serving form: a completion that stayed on its admitted
    // tier is bit-identical to the fault-free single-session [`clean_run`]
    // of that tier. Cross-tier resumes splice two trajectories through a
    // checkpoint and are excluded by design.
    let mut references: HashMap<ServeTier, Option<Vec<u64>>> = HashMap::new();
    let mut bit_identity = true;
    for o in &faulted_run.outcomes {
        let RequestStatus::Completed {
            tier,
            admitted_tier,
            ..
        } = o.status
        else {
            continue;
        };
        if tier != admitted_tier {
            continue;
        }
        let reference = references.entry(tier).or_insert_with(|| {
            clean_run(class, tier, &cfg)
                .ok()
                .map(|r| r.weights.iter().map(|x| x.to_bits()).collect())
        });
        bit_identity = bit_identity
            && reference.as_ref().is_some_and(|bits| {
                o.weights.len() == bits.len()
                    && o.weights
                        .iter()
                        .zip(bits.iter())
                        .all(|(x, b)| x.to_bits() == *b)
            });
    }

    // With roomy queues, no quota and 20 s of deadline slack, nothing
    // may be refused: every submitted request must complete.
    let all_completed = faulted_run.completed() == requests.len();
    let attempt_bound = (cfg.policy.max_retries + 1) * 3; // 3 tiers

    ScenarioResult {
        scenario: *sc,
        outcome: if all_completed {
            "converged"
        } else {
            "typed-abort"
        },
        tier: "serve",
        error_kind: faulted_run.outcomes.iter().find_map(|o| match &o.status {
            RequestStatus::Rejected { error }
            | RequestStatus::Shed { error }
            | RequestStatus::Failed { error } => Some(error.kind().to_string()),
            RequestStatus::Completed { .. } => None,
        }),
        attempts,
        faults,
        // Integrity stats live inside the serving layer's per-attempt
        // devices; detected corruptions surface in `faults.corruptions`.
        integrity_checks: 0,
        integrity_violations: 0,
        invariants: InvariantChecks {
            no_panic: true,
            typed_outcome: true,
            finite_result,
            bounded_attempts: attempts <= attempt_bound,
            accounting: gating_ok && all_completed,
            bit_identity,
            tenant_isolation,
        },
    }
}

/// Invariant 5: on unfaulted groups, 1-device, N-device and
/// N-device-minus-one runs of the scenario's LR-CG workload must agree
/// bit for bit (the canonical shard reduction makes the result
/// shard-count-invariant).
fn check_bit_identity(sc: &Scenario, data: &ScenarioData) -> bool {
    let solve = |group: &DeviceGroup| -> Option<Vec<f64>> {
        let mut b = ShardedBackend::try_new_sparse(group, &data.x).ok()?;
        run_workload(&mut b, Workload::LrCg, data).ok()
    };
    let clean = FaultProfile::disabled();
    let spec = DeviceSpec::gtx_titan();
    let one = DeviceGroup::new(spec.clone(), 1, sc.interconnect_spec(), &clean);
    let full = DeviceGroup::new(
        spec.clone(),
        sc.device_count,
        sc.interconnect_spec(),
        &clean,
    );
    let degraded = DeviceGroup::new(spec, sc.device_count, sc.interconnect_spec(), &clean);
    // Lose a seed-derived device before solving; construction reshards
    // the rows across the survivors (device_count >= 2, so >= 1 remains).
    degraded.mark_lost((mix64(sc.seed ^ 0x1D) % sc.device_count as u64) as usize);
    match (solve(&one), solve(&full), solve(&degraded)) {
        (Some(a), Some(b), Some(c)) => {
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            bits(&a) == bits(&b) && bits(&b) == bits(&c)
        }
        _ => false,
    }
}

/// Run one scenario under the panic guard.
pub fn run_scenario(sc: &Scenario) -> ScenarioResult {
    let data = ScenarioData::generate(sc);
    match catch_unwind(AssertUnwindSafe(|| run_scenario_inner(sc, &data))) {
        Ok(r) => r,
        Err(_) => ScenarioResult {
            scenario: *sc,
            outcome: "panic",
            tier: "none",
            error_kind: None,
            attempts: 0,
            faults: FaultCounts::default(),
            integrity_checks: 0,
            integrity_violations: 0,
            invariants: InvariantChecks::failed(),
        },
    }
}

/// Campaign shape: how many scenarios off which seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosOptions {
    pub scenarios: usize,
    pub seed: u64,
    /// Restrict the campaign to one fault class (`--class`): derivation
    /// walks the same index sequence but only runs matching scenarios,
    /// so a filtered row replays bit-identically from its seed.
    pub only_class: Option<FaultClass>,
}

impl Default for ChaosOptions {
    fn default() -> Self {
        ChaosOptions {
            scenarios: 200,
            seed: 0xC4A0_55EED,
            only_class: None,
        }
    }
}

/// A finished campaign; serializes to the schema-versioned chaos report.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosReport {
    pub seed: u64,
    pub results: Vec<ScenarioResult>,
}

impl ChaosReport {
    pub fn failures(&self) -> usize {
        self.results.iter().filter(|r| !r.pass()).count()
    }

    pub fn passed(&self) -> bool {
        self.failures() == 0
    }

    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("schema_version", Json::u64(CHAOS_SCHEMA_VERSION)),
            ("campaign_seed", Json::str(format!("{:#018x}", self.seed))),
            ("scenarios", Json::u64(self.results.len() as u64)),
            ("failures", Json::u64(self.failures() as u64)),
            (
                "results",
                Json::Arr(self.results.iter().map(|r| r.to_json()).collect()),
            ),
        ])
    }

    pub fn render(&self) -> String {
        self.to_json().render()
    }

    /// Parse a report. Accepts every schema back to
    /// [`CHAOS_MIN_SCHEMA_VERSION`]: v1 rows load with one device, no
    /// interconnect, zero device-loss/straggler counts and a vacuously
    /// true `bit_identity` invariant.
    pub fn from_json(j: &Json) -> Result<ChaosReport, String> {
        let version = j.field_u64("schema_version")?;
        if !(CHAOS_MIN_SCHEMA_VERSION..=CHAOS_SCHEMA_VERSION).contains(&version) {
            return Err(format!(
                "unsupported chaos schema version {version} (supported: {CHAOS_MIN_SCHEMA_VERSION}..={CHAOS_SCHEMA_VERSION})"
            ));
        }
        let seed = parse_hex_u64(j.field_str("campaign_seed")?)?;
        let rows = j
            .field("results")?
            .as_arr()
            .ok_or("'results' is not an array")?;
        let mut results = Vec::with_capacity(rows.len());
        for (i, row) in rows.iter().enumerate() {
            results.push(ScenarioResult::from_json(row).map_err(|e| format!("results[{i}]: {e}"))?);
        }
        Ok(ChaosReport { seed, results })
    }

    /// Load a report file (see [`ChaosReport::from_json`]).
    pub fn load(path: &str) -> Result<ChaosReport, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let json = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        Self::from_json(&json).map_err(|e| format!("{path}: {e}"))
    }
}

/// Run the whole campaign. `progress` sees each result as it lands
/// (pass `|_| {}` to silence).
pub fn run_campaign(opts: &ChaosOptions, mut progress: impl FnMut(&ScenarioResult)) -> ChaosReport {
    let mut results = Vec::with_capacity(opts.scenarios);
    // With a class filter, walk far enough down the index sequence to
    // collect the quota; the indices recorded in the report stay the
    // unfiltered campaign positions, so replay-by-seed is unaffected.
    let index_budget = opts.scenarios * if opts.only_class.is_some() { 64 } else { 1 };
    for i in 0..index_budget {
        if results.len() == opts.scenarios {
            break;
        }
        let sc = scenario(opts.seed, i);
        if opts.only_class.is_some_and(|c| sc.class != c) {
            continue;
        }
        let r = run_scenario(&sc);
        progress(&r);
        results.push(r);
    }
    ChaosReport {
        seed: opts.seed,
        results,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_derivation_is_pure_and_covers_the_matrix() {
        let opts = ChaosOptions::default();
        let scs: Vec<Scenario> = (0..120).map(|i| scenario(opts.seed, i)).collect();
        let again: Vec<Scenario> = (0..120).map(|i| scenario(opts.seed, i)).collect();
        assert_eq!(scs, again, "derivation must be a pure function");
        for w in Workload::ALL {
            assert!(
                scs.iter().any(|s| s.workload == w),
                "workload {} never drawn in 120 scenarios",
                w.name()
            );
        }
        for c in FaultClass::ALL {
            assert!(
                scs.iter().any(|s| s.class == c),
                "fault class {} never drawn in 120 scenarios",
                c.name()
            );
        }
        // Replay derivation: the scenario seed alone reproduces everything
        // but the campaign index.
        let replayed = Scenario::from_seed(scs[7].index, scs[7].seed);
        assert_eq!(replayed, scs[7]);
    }

    #[test]
    fn smoke_campaign_is_all_green() {
        let opts = ChaosOptions {
            scenarios: 30,
            ..Default::default()
        };
        let report = run_campaign(&opts, |_| {});
        for r in &report.results {
            assert!(
                r.pass(),
                "scenario {} (seed {:#x}, {}/{}) violated an invariant: {:?}",
                r.scenario.index,
                r.scenario.seed,
                r.scenario.workload.name(),
                r.scenario.class.name(),
                r
            );
        }
        assert!(report.passed());
        // The sweep must actually exercise faults, not just clean runs.
        assert!(
            report.results.iter().any(|r| r.attempts > 1),
            "no scenario needed a retry or fallback"
        );
    }

    #[test]
    fn campaign_replays_bit_identically() {
        let opts = ChaosOptions {
            scenarios: 12,
            ..Default::default()
        };
        let a = run_campaign(&opts, |_| {});
        let b = run_campaign(&opts, |_| {});
        assert_eq!(a, b);
        assert_eq!(a.render(), b.render(), "rendered reports must match");
        // And a single scenario replayed from its recorded seed matches
        // its campaign entry.
        let sample = &a.results[5];
        let replay = run_scenario(&Scenario::from_seed(
            sample.scenario.index,
            sample.scenario.seed,
        ));
        assert_eq!(&replay, sample);
    }

    #[test]
    fn device_classes_draw_a_device_axis_and_the_rest_do_not() {
        let scs: Vec<Scenario> = (0..400).map(|i| scenario(0xDE7_1CE, i)).collect();
        let mut saw_multi = false;
        let mut saw_serving = false;
        for sc in &scs {
            if sc.class.multi_device() {
                saw_multi = true;
                assert!(
                    (2..=4).contains(&sc.device_count),
                    "device class drew {} devices",
                    sc.device_count
                );
                assert!(
                    InterconnectSpec::by_name(sc.interconnect).is_some(),
                    "unknown interconnect {}",
                    sc.interconnect
                );
                assert_eq!(sc.tenants, 0, "multi-device scenarios never serve");
            } else {
                assert_eq!(sc.device_count, 1);
                assert_eq!(sc.interconnect, "none");
                if sc.tenants > 0 {
                    saw_serving = true;
                    assert!(
                        (2..=4).contains(&sc.tenants),
                        "serving scenario drew {} tenants",
                        sc.tenants
                    );
                }
            }
        }
        assert!(saw_multi, "no multi-device class drawn in 400 scenarios");
        assert!(saw_serving, "no serving scenario drawn in 400 scenarios");
        assert!(
            scs.iter()
                .any(|s| !s.class.multi_device() && s.tenants == 0),
            "every single-device scenario went serving"
        );
    }

    #[test]
    fn serving_scenarios_hold_tenant_isolation_under_fire() {
        // Find a serving scenario whose faults actually fire, and hold
        // every invariant on it — including invariant 6, which re-runs
        // the grid fault-free and compares co-tenants bit for bit.
        let mut fired = false;
        for i in 0..2000usize {
            let sc = scenario(0x7E4A47, i);
            if sc.tenants < 2 || sc.rate < 0.2 {
                continue;
            }
            let r = run_scenario(&sc);
            assert_eq!(r.tier, "serve");
            assert!(r.pass(), "serving scenario {i} failed: {r:?}");
            assert!(r.invariants.tenant_isolation);
            if r.faults != FaultCounts::default() {
                fired = true;
                assert_eq!(r.outcome, "converged");
                break;
            }
        }
        assert!(fired, "no serving scenario drew a fault in 2000 draws");
    }

    #[test]
    fn sharded_lr_cg_scenarios_hold_the_bit_identity_invariant() {
        // Find one scenario per device class that runs LR-CG sharded, and
        // hold every invariant on it — including invariant 5, which
        // compares 1-device, N-device and N-device-minus-one runs.
        for class in [FaultClass::DeviceLoss, FaultClass::Straggler] {
            let sc = (0..2000usize)
                .map(|i| scenario(0x000B_171D, i))
                .find(|s| s.class == class && s.workload == Workload::LrCg)
                .unwrap_or_else(|| panic!("no {} x lr_cg scenario in 2000 draws", class.name()));
            let r = run_scenario(&sc);
            assert!(
                r.pass(),
                "{} scenario violated an invariant: {r:?}",
                class.name()
            );
            assert!(r.invariants.bit_identity);
            assert!(sc.device_count >= 2);
        }
    }

    #[test]
    fn straggler_scenarios_converge_on_the_sharded_tier() {
        // Stragglers only stretch modeled time; a straggler scenario must
        // converge without ever falling off the device tier.
        let sc = (0..2000usize)
            .map(|i| scenario(0x57A66, i))
            .find(|s| s.class == FaultClass::Straggler)
            .expect("no straggler scenario in 2000 draws");
        let r = run_scenario(&sc);
        assert!(r.pass(), "straggler scenario failed: {r:?}");
        assert_eq!(r.outcome, "converged");
        assert_eq!(r.tier, "sharded");
        assert_eq!(r.attempts, 1);
    }

    #[test]
    fn class_filter_restricts_the_campaign_deterministically() {
        let opts = ChaosOptions {
            scenarios: 3,
            only_class: Some(FaultClass::Straggler),
            ..Default::default()
        };
        let a = run_campaign(&opts, |_| {});
        assert_eq!(a.results.len(), 3);
        assert!(a
            .results
            .iter()
            .all(|r| r.scenario.class == FaultClass::Straggler));
        // Filtered rows keep their unfiltered campaign indices, so each
        // replays from its recorded seed like any other row.
        let sample = &a.results[1];
        assert_eq!(
            Scenario::from_seed(sample.scenario.index, sample.scenario.seed),
            sample.scenario
        );
        assert_eq!(a, run_campaign(&opts, |_| {}));
    }

    #[test]
    fn report_round_trips_through_the_loader() {
        let opts = ChaosOptions {
            scenarios: 8,
            ..Default::default()
        };
        let report = run_campaign(&opts, |_| {});
        let back = ChaosReport::from_json(&Json::parse(&report.render()).unwrap()).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn v1_reports_still_load_with_single_device_defaults() {
        // A hand-written v1 row: no device_count / interconnect /
        // device-loss / straggler / bit_identity fields anywhere.
        let text = r#"{
            "schema_version": 1,
            "campaign_seed": "0x0000000c4a055eed",
            "scenarios": 1,
            "failures": 0,
            "results": [{
                "index": 0,
                "seed": "0x00000000deadbeef",
                "workload": "lr_cg",
                "fault_class": "kernel",
                "rate": 0.02,
                "pressure_after_allocs": null,
                "outcome": "converged",
                "tier": "fused",
                "error_kind": null,
                "attempts": 2,
                "faults": {
                    "kernel": 1,
                    "alloc": 0,
                    "transfer": 0,
                    "watchdog": 0,
                    "corruptions": 0,
                    "pressure_rejections": 0
                },
                "integrity": {"checks": 0, "violations": 0},
                "invariants": {
                    "no_panic": true,
                    "typed_outcome": true,
                    "finite_result": true,
                    "bounded_attempts": true,
                    "accounting": true
                }
            }]
        }"#;
        let report = ChaosReport::from_json(&Json::parse(text).unwrap()).unwrap();
        assert_eq!(report.results.len(), 1);
        let r = &report.results[0];
        assert_eq!(r.scenario.device_count, 1);
        assert_eq!(r.scenario.interconnect, "none");
        assert_eq!(r.scenario.tenants, 0);
        assert_eq!(r.faults.device_losses, 0);
        assert_eq!(r.faults.stragglers, 0);
        assert!(r.invariants.bit_identity);
        assert!(r.invariants.tenant_isolation);
        assert!(r.pass());
        // Unsupported future schemas are rejected, not misread.
        let future = text.replace("\"schema_version\": 1", "\"schema_version\": 99");
        assert!(ChaosReport::from_json(&Json::parse(&future).unwrap()).is_err());
    }

    #[test]
    fn v2_reports_still_load_with_zero_tenant_defaults() {
        // A hand-written v2 row: the multi-device axis is present but the
        // serving axis (tenants / tenant_isolation) does not exist yet.
        let text = r#"{
            "schema_version": 2,
            "campaign_seed": "0x0000000c4a055eed",
            "scenarios": 1,
            "failures": 0,
            "results": [{
                "index": 0,
                "seed": "0x00000000deadbeef",
                "workload": "lr_cg",
                "fault_class": "device-loss",
                "rate": 0.02,
                "pressure_after_allocs": null,
                "device_count": 3,
                "interconnect": "pcie-gen3-x16",
                "outcome": "converged",
                "tier": "sharded",
                "error_kind": null,
                "attempts": 2,
                "faults": {
                    "kernel": 0,
                    "alloc": 0,
                    "transfer": 0,
                    "watchdog": 0,
                    "corruptions": 0,
                    "pressure_rejections": 0,
                    "device_losses": 1,
                    "stragglers": 0
                },
                "integrity": {"checks": 0, "violations": 0},
                "invariants": {
                    "no_panic": true,
                    "typed_outcome": true,
                    "finite_result": true,
                    "bounded_attempts": true,
                    "accounting": true,
                    "bit_identity": true
                }
            }]
        }"#;
        let report = ChaosReport::from_json(&Json::parse(text).unwrap()).unwrap();
        let r = &report.results[0];
        assert_eq!(r.scenario.tenants, 0);
        assert_eq!(r.scenario.device_count, 3);
        assert!(r.invariants.tenant_isolation, "v2 default must be vacuous");
        assert!(r.pass());
    }

    #[test]
    fn corruption_scenarios_detect_every_injected_flip() {
        // Scan seeds for a corruption scenario whose draws actually fire,
        // then hold the detection invariant to an exact count.
        let mut fired = false;
        for i in 0..400usize {
            let sc = scenario(0xDEFEC7, i);
            // The exact-detection count is a single-session property; the
            // serving tier keeps its integrity stats device-internal.
            if sc.class != FaultClass::Corruption || sc.tenants > 0 {
                continue;
            }
            let r = run_scenario(&sc);
            assert!(r.pass(), "corruption scenario {i} failed: {r:?}");
            if r.faults.corruptions > 0 {
                fired = true;
                assert_eq!(r.integrity_violations, r.faults.corruptions);
                break;
            }
        }
        assert!(fired, "no corruption scenario fired in 400 draws");
    }
}
