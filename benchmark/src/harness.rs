//! The measurement loop every workload runs through, and the metrics it
//! derives from what the workload recorded.
//!
//! A run sets its workload up [`SETUPS`] times (each set-up ends with
//! [`WARMUP_OPS`] untimed warm-up ops) and reports the median set-up time;
//! the state of the last set-up then runs closed-loop timed ops — one
//! client, the next op starts when the previous one returns — for the
//! requested number of seconds, and for at least [`MIN_OPS`] ops and the
//! modeled window. An op checks its own outputs outside its timed window.
//! A typed error, a caught panic or a failed check counts the op as
//! failed; it never ends the run.

use crate::span::{self, span, SpanRecord};
use crate::stats::{median, percentile, ratio};
use crate::timed;
use fusedml_gpu_sim::DeviceSpec;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;
/// Untimed ops at the end of every set-up (caches filled, plans made).
pub const WARMUP_OPS: usize = 3;
/// Timed ops a run makes at least, however long they take: enough samples
/// that the host percentiles have ten beyond p90.
pub const MIN_OPS: usize = 100;
/// The modeled and count metrics come from the first this-many timed ops
/// (rounded up to whole cycles), whatever the run length: the simulator's
/// sampled atomic-contention estimate depends on how many atomics a device
/// has run, so a modeled number is a function of the op index, and a fixed
/// window makes it a function of the seed alone.
pub const MODELED_OPS: usize = 20;

/// End-to-end metrics (printed by an untraced run), with their units.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("host_ms_p10", "ms"),
    ("peak_rss_mb", "MiB"),
    ("modeled_cycles_p50", "cycles"),
    ("modeled_cycles_p90", "cycles"),
    ("modeled_speedup", "x"),
    ("modeled_goodput", "1/s"),
];

/// Span layers, in the order the per-layer table lists them.
pub const LAYERS: [&str; 8] = [
    "bench",
    "matrix",
    "blas",
    "gpu_sim",
    "core",
    "ml",
    "ml.backend",
    "runtime",
];

/// Per-layer metrics (printed by a traced run), with their units.
pub const PER_LAYER: [(&str, &str); 44] = [
    ("bench.host_ms_p50", "ms"),
    ("bench.host_ms_p90", "ms"),
    ("bench.ops", "count"),
    ("setup.inputs_ms", "ms"),
    ("setup.state_ms", "ms"),
    ("setup.reference_ms", "ms"),
    ("setup.warmup_ms", "ms"),
    ("check.ms_per_op", "ms"),
    ("bench.self_share", "ratio"),
    ("matrix.self_share", "ratio"),
    ("blas.self_share", "ratio"),
    ("gpu_sim.self_share", "ratio"),
    ("core.self_share", "ratio"),
    ("ml.self_share", "ratio"),
    ("runtime.self_share", "ratio"),
    ("ml.backend.pattern_share", "ratio"),
    ("ml.backend.mv_share", "ratio"),
    ("ml.backend.level1_share", "ratio"),
    ("ml.backend.transfer_share", "ratio"),
    ("ml.backend_calls_per_op", "count"),
    ("gpu_sim.launches_per_op", "count"),
    ("gpu_sim.gld_transactions_per_op", "count"),
    ("gpu_sim.dram_read_bytes_per_op", "B"),
    ("gpu_sim.l2_hit_bytes_per_op", "B"),
    ("gpu_sim.l2_hit_ratio", "ratio"),
    ("gpu_sim.global_atomics_per_op", "count"),
    ("gpu_sim.occupancy", "ratio"),
    ("gpu_sim.pool_hit_ratio", "ratio"),
    ("gpu_sim.devices_attached_per_op", "count"),
    ("gpu_sim.txn_per_host_s", "1/s"),
    ("gpu_sim.host_ms_per_sim_ms", "ratio"),
    ("core.plans_computed_per_op", "count"),
    ("core.plan_cache_hit_ratio", "ratio"),
    ("runtime.stream.h2d_bytes_per_op", "B"),
    ("runtime.stream.residency_hit_ratio", "ratio"),
    ("runtime.stream.bubble_share", "ratio"),
    ("runtime.serve.refused_per_op", "count"),
    ("runtime.serve.deadline_misses_per_op", "count"),
    ("runtime.serve.recoveries_per_op", "count"),
    ("runtime.serve.streamed_admissions_per_op", "count"),
    ("runtime.serve.faults_injected_per_op", "count"),
    ("runtime.serve.slot_utilization", "ratio"),
    ("runtime.serve.queued_share", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

/// How one run is driven.
#[derive(Debug, Clone, Copy)]
pub struct RunOptions {
    pub seed: u64,
    /// Length of the timed loop.
    pub seconds: f64,
    /// Record spans and report the per-layer metrics.
    pub trace: bool,
    /// Multiplies every input's row count (tests and quick local runs).
    pub scale: f64,
}

/// Seed and scale of a run's inputs.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    pub seed: u64,
    pub scale: f64,
}

impl Params {
    /// Scale a base row count, never below 64 rows.
    pub fn rows(&self, base: usize) -> usize {
        ((base as f64 * self.scale).round() as usize).max(64)
    }

    /// `seed + k`, the per-vector seeds of the `fusedml-bench` suite.
    pub fn seed_plus(&self, k: u64) -> u64 {
        self.seed.wrapping_add(k)
    }
}

/// A set-up phase the workload times through [`Harness::phase`].
#[derive(Debug, Clone, Copy)]
pub enum Phase {
    /// Input generation.
    Inputs,
    /// Devices, uploads, backends, streamers, cold plans and compiles.
    State,
    /// Comparator and reference runs the metrics and checks need.
    Reference,
}

impl Phase {
    fn name(self) -> &'static str {
        match self {
            Phase::Inputs => "setup.inputs",
            Phase::State => "setup.state",
            Phase::Reference => "setup.reference",
        }
    }
}

/// The per-op quantities a workload records; the per-layer metrics are
/// sums of these over the measured window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Count {
    /// Modeled device ms of the op on the fused path (serve: makespan).
    ModeledMs,
    /// Modeled ms of the work `modeled_speedup` compares (serve: the
    /// fault-free cost of the completed requests; elsewhere `ModeledMs`)...
    ComparedMs,
    /// ...and of the same work on the workload's comparator.
    ComparatorMs,
    /// Work units completed correctly (serve: by their deadline).
    GoodUnits,
    Launches,
    /// Σ launch sim ms and Σ occupancy × sim ms (time-weighted occupancy).
    LaunchMs,
    OccupancyMs,
    GldTransactions,
    /// Global load + store + texture sectors.
    Transactions,
    DramReadBytes,
    L2ReadBytes,
    GlobalAtomics,
    PoolHits,
    PoolMisses,
    DevicesAttached,
    PlansComputed,
    PlanHits,
    H2dBytes,
    ResidencyHits,
    /// Passes × chunks of the residency leg.
    ResidencySlots,
    BubbleMs,
    Refused,
    DeadlineMisses,
    Recoveries,
    StreamedAdmissions,
    FaultsInjected,
    SlotBusyMs,
    /// Slots × makespan.
    SlotCapacityMs,
    /// Σ (start − arrival) and Σ latency over completed requests.
    QueuedMs,
    LatencyMs,
}

const COUNTS: usize = Count::LatencyMs as usize + 1;

/// What one op did, as the workload measured it.
#[derive(Debug, Clone)]
pub struct OpRecord {
    /// Host wall time of the op's timed window.
    pub host_ms: f64,
    /// Host time spent checking the op's outputs, outside the window.
    pub check_ms: f64,
    /// Samples behind `modeled_cycles_p50`/`p90`, in modeled ms: the op's
    /// modeled time (serve: the epoch's mean request latency).
    pub modeled_samples: Vec<f64>,
    counts: [f64; COUNTS],
}

impl Default for OpRecord {
    fn default() -> Self {
        OpRecord {
            host_ms: 0.0,
            check_ms: 0.0,
            modeled_samples: Vec::new(),
            counts: [0.0; COUNTS],
        }
    }
}

impl OpRecord {
    pub fn add(&mut self, c: Count, v: f64) {
        self.counts[c as usize] += v;
    }

    pub fn get(&self, c: Count) -> f64 {
        self.counts[c as usize]
    }

    /// Fold one kernel launch's modeled time and counters in.
    pub fn add_launch(&mut self, l: &fusedml_gpu_sim::LaunchStats) {
        self.add(Count::Launches, 1.0);
        self.add(Count::LaunchMs, l.sim_ms());
        self.add(Count::OccupancyMs, l.occupancy.occupancy * l.sim_ms());
        self.add_counters(&l.counters);
    }

    pub fn add_counters(&mut self, c: &fusedml_gpu_sim::Counters) {
        self.add(Count::GldTransactions, c.gld_transactions as f64);
        self.add(
            Count::Transactions,
            (c.gld_transactions + c.gst_transactions + c.tex_transactions) as f64,
        );
        self.add(Count::DramReadBytes, c.dram_read_bytes as f64);
        self.add(Count::L2ReadBytes, c.l2_read_bytes as f64);
        self.add(
            Count::GlobalAtomics,
            (c.global_atomics + c.global_atomics_int) as f64,
        );
    }
}

/// Time `f` as the op's timed window, adding its wall time to `host_ms`.
pub fn timed<T>(rec: &mut OpRecord, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    rec.host_ms += ms(t.elapsed());
    out
}

/// Run the op's output check outside the timed window, adding its wall
/// time to `check_ms`.
pub fn check<T>(rec: &mut OpRecord, f: impl FnOnce() -> T) -> T {
    let _s = span("bench", "check");
    let t = Instant::now();
    let out = f();
    rec.check_ms += ms(t.elapsed());
    out
}

/// Relative L2 error check shared by the workloads' output checks.
pub fn check_rel_l2(what: &str, got: &[f64], want: &[f64], tol: f64) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!(
            "{what}: {} values, expected {}",
            got.len(),
            want.len()
        ));
    }
    let err = fusedml_matrix::reference::rel_l2_error(got, want);
    if err <= tol {
        Ok(())
    } else {
        Err(format!("{what}: relative L2 error {err:e} above {tol:e}"))
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// One metric as printed.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything a finished run reports.
#[derive(Debug)]
pub struct Outcome {
    /// Timed ops plus warm-up ops that failed.
    pub attempted: u64,
    pub failed: u64,
    /// Every declared metric, end-to-end first, then per-layer.
    pub metrics: Vec<Metric>,
    /// Self time per layer over every recorded span, in ms.
    pub layer_self_ms: Vec<(&'static str, f64)>,
    pub spans: Vec<SpanRecord>,
    /// The first few failure messages.
    pub failures: Vec<String>,
}

impl Outcome {
    /// The metrics a run prints: end-to-end untraced, per-layer traced.
    pub fn printed(&self, trace: bool) -> Vec<&Metric> {
        let names: Vec<&str> = if trace {
            PER_LAYER.iter().map(|(n, _)| *n).collect()
        } else {
            END_TO_END.iter().map(|(n, _)| *n).collect()
        };
        self.metrics
            .iter()
            .filter(|m| names.contains(&m.name))
            .collect()
    }

    #[cfg(test)]
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// Drives one workload through its set-ups and its timed loop.
pub struct Harness {
    opts: RunOptions,
    setup_start: Instant,
    /// Phases of the set-up in progress: inputs, state, reference, warm-up.
    phases: [f64; 4],
    /// Finished set-ups: (phases in ms, total in s).
    setups: Vec<([f64; 4], f64)>,
    /// Timed ops in order; `None` marks a failed op.
    ops: Vec<Option<OpRecord>>,
    traced: Vec<bool>,
    /// Consecutive ops that make one pass over the distinct inputs.
    cycle: usize,
    warmup_failed: u64,
    failures: Vec<String>,
}

const MAX_FAILURE_MESSAGES: usize = 5;

impl Harness {
    pub fn new(opts: RunOptions) -> Self {
        span::take();
        span::set_enabled(opts.trace);
        Harness {
            opts,
            setup_start: Instant::now(),
            phases: [0.0; 4],
            setups: Vec::new(),
            ops: Vec::new(),
            traced: Vec::new(),
            cycle: 1,
            warmup_failed: 0,
            failures: Vec::new(),
        }
    }

    /// What input generation needs, by value so set-up closures can use
    /// it while the harness times them.
    pub fn params(&self) -> Params {
        Params {
            seed: self.opts.seed,
            scale: self.opts.scale,
        }
    }

    /// Start timing a set-up. The first set-up counts from harness
    /// construction, i.e. from process start.
    pub fn begin_setup(&mut self) {
        if !self.setups.is_empty() {
            self.setup_start = Instant::now();
        }
        self.phases = [0.0; 4];
    }

    /// Time one set-up phase.
    pub fn phase<T>(&mut self, p: Phase, f: impl FnOnce() -> T) -> T {
        let _s = span("bench", p.name());
        let t = Instant::now();
        let out = f();
        self.phases[p as usize] += ms(t.elapsed());
        out
    }

    /// Warm up, close the set-up, and after the last set-up run the timed
    /// loop. `op(i)` runs op `i`; `cycle` is how many consecutive ops make
    /// one pass over the workload's distinct inputs.
    pub fn finish_setup(
        &mut self,
        cycle: usize,
        op: &mut dyn FnMut(usize) -> Result<OpRecord, String>,
    ) {
        self.cycle = cycle.max(1);
        {
            let _s = span("bench", "setup.warmup");
            let t = Instant::now();
            // Each set-up warms up on the next ops of the cycle, so where
            // ops differ (serve-mixed's epochs) the median set-up does not
            // hinge on the cost of the first few.
            let first = self.setups.len() * WARMUP_OPS;
            for i in first..first + WARMUP_OPS {
                if let Err(e) = run_op(op, i) {
                    self.warmup_failed += 1;
                    self.note_failure(format!("warm-up op {i}: {e}"));
                }
            }
            self.phases[3] = ms(t.elapsed());
        }
        let total = self.setup_start.elapsed().as_secs_f64();
        self.setups.push((self.phases, total));
        if self.setups.len() == SETUPS {
            self.timed_loop(op);
        }
    }

    /// Ops the modeled and count metrics are taken over.
    fn window(&self) -> usize {
        MODELED_OPS.div_ceil(self.cycle) * self.cycle
    }

    fn timed_loop(&mut self, op: &mut dyn FnMut(usize) -> Result<OpRecord, String>) {
        let min_ops = self.window().max(MIN_OPS);
        let start = Instant::now();
        let mut i = 0;
        while i < min_ops || start.elapsed().as_secs_f64() < self.opts.seconds {
            // A traced run alternates ops with and without spans; the
            // difference between the two halves is the tracing overhead.
            let traced = self.opts.trace && i % 2 == 1;
            span::set_enabled(traced);
            span::set_op(Some(i as u64));
            let res = {
                let _s = span("bench", "op");
                run_op(op, i)
            };
            span::set_op(None);
            match res {
                Ok(rec) => self.ops.push(Some(rec)),
                Err(e) => {
                    self.note_failure(format!("op {i}: {e}"));
                    self.ops.push(None);
                }
            }
            self.traced.push(traced);
            i += 1;
        }
        span::set_enabled(false);
    }

    fn note_failure(&mut self, msg: String) {
        if self.failures.len() < MAX_FAILURE_MESSAGES {
            self.failures.push(msg);
        }
    }

    /// Derive every metric from the recorded set-ups, ops and spans.
    pub fn finish(self) -> Outcome {
        let spans = span::take();
        let ok: Vec<&OpRecord> = self.ops.iter().flatten().collect();
        let window_len = self.window().min(self.ops.len());
        let window: Vec<&OpRecord> = self.ops[..window_len].iter().flatten().collect();
        let per_op_n = window.len().max(1) as f64;
        let sum = |c: Count| window.iter().map(|r| r.get(c)).sum::<f64>();
        let per_op = |c: Count| sum(c) / per_op_n;
        let host: Vec<f64> = ok.iter().map(|r| r.host_ms).collect();
        let window_host: f64 = window.iter().map(|r| r.host_ms).sum();
        let samples: Vec<f64> = window
            .iter()
            .flat_map(|r| r.modeled_samples.iter().copied())
            .collect();
        let setup_phase =
            |k: usize| median(&self.setups.iter().map(|s| s.0[k]).collect::<Vec<_>>());

        let self_ns = span::self_times_ns(&spans);
        let total_ns = self_ns.iter().sum::<u64>() as f64;
        let share = |pred: &dyn Fn(&SpanRecord) -> bool| {
            let ns: u64 = spans
                .iter()
                .zip(&self_ns)
                .filter(|(s, _)| pred(s))
                .map(|(_, n)| *n)
                .sum();
            ratio(ns as f64, total_ns)
        };
        let layer_share = |layer: &str| share(&|s: &SpanRecord| s.layer == layer);
        let class_share =
            |class: &str| share(&|s: &SpanRecord| s.layer == timed::LAYER && s.name == class);
        let traced_ops = self.traced.iter().filter(|t| **t).count();
        let backend_calls = spans
            .iter()
            .filter(|s| s.layer == timed::LAYER && s.op.is_some())
            .count();
        let host_of = |traced: bool| -> Vec<f64> {
            self.ops
                .iter()
                .zip(&self.traced)
                .filter(|(_, t)| **t == traced)
                .filter_map(|(r, _)| r.as_ref().map(|r| r.host_ms))
                .collect()
        };
        let (with_spans, without) = (host_of(true), host_of(false));
        let overhead = if with_spans.is_empty() || without.is_empty() {
            0.0
        } else {
            median(&with_spans) / median(&without) - 1.0
        };

        let mut values: BTreeMap<&str, f64> = BTreeMap::new();
        let mut put = |name: &'static str, v: f64| {
            values.insert(name, v);
        };
        put(
            "setup_s",
            median(&self.setups.iter().map(|s| s.1).collect::<Vec<_>>()),
        );
        // Contention from other processes on a shared host comes in bursts
        // that slow a run of consecutive ops by up to ~60%; the 10th
        // percentile tracks the uncontended cost, the median the share of
        // contended ops.
        put("host_ms_p10", percentile(&host, 0.1));
        put("peak_rss_mb", crate::host::peak_rss_mib());
        // Modeled time in cycles of the simulated device's clock: every
        // workload simulates the GTX Titan model.
        let cycles_per_ms = DeviceSpec::gtx_titan().clock_ghz * 1e6;
        put(
            "modeled_cycles_p50",
            percentile(&samples, 0.5) * cycles_per_ms,
        );
        put(
            "modeled_cycles_p90",
            percentile(&samples, 0.9) * cycles_per_ms,
        );
        put(
            "modeled_speedup",
            ratio(sum(Count::ComparatorMs), sum(Count::ComparedMs)),
        );
        put(
            "modeled_goodput",
            ratio(sum(Count::GoodUnits), sum(Count::ModeledMs) / 1e3),
        );

        put("bench.host_ms_p50", median(&host));
        put("bench.host_ms_p90", percentile(&host, 0.9));
        put("bench.ops", self.ops.len() as f64);
        put("setup.inputs_ms", setup_phase(0));
        put("setup.state_ms", setup_phase(1));
        put("setup.reference_ms", setup_phase(2));
        put("setup.warmup_ms", setup_phase(3));
        put(
            "check.ms_per_op",
            ratio(ok.iter().map(|r| r.check_ms).sum(), ok.len() as f64),
        );
        put("bench.self_share", layer_share("bench"));
        put("matrix.self_share", layer_share("matrix"));
        put("blas.self_share", layer_share("blas"));
        put("gpu_sim.self_share", layer_share("gpu_sim"));
        put("core.self_share", layer_share("core"));
        put("ml.self_share", layer_share("ml"));
        put("runtime.self_share", layer_share("runtime"));
        put("ml.backend.pattern_share", class_share("pattern"));
        put("ml.backend.mv_share", class_share("mv"));
        put("ml.backend.level1_share", class_share("level1"));
        put("ml.backend.transfer_share", class_share("transfer"));
        put(
            "ml.backend_calls_per_op",
            ratio(backend_calls as f64, traced_ops as f64),
        );
        put("gpu_sim.launches_per_op", per_op(Count::Launches));
        put(
            "gpu_sim.gld_transactions_per_op",
            per_op(Count::GldTransactions),
        );
        put(
            "gpu_sim.dram_read_bytes_per_op",
            per_op(Count::DramReadBytes),
        );
        put("gpu_sim.l2_hit_bytes_per_op", per_op(Count::L2ReadBytes));
        put(
            "gpu_sim.l2_hit_ratio",
            ratio(
                sum(Count::L2ReadBytes),
                sum(Count::L2ReadBytes) + sum(Count::DramReadBytes),
            ),
        );
        put(
            "gpu_sim.global_atomics_per_op",
            per_op(Count::GlobalAtomics),
        );
        put(
            "gpu_sim.occupancy",
            ratio(sum(Count::OccupancyMs), sum(Count::LaunchMs)),
        );
        put(
            "gpu_sim.pool_hit_ratio",
            ratio(
                sum(Count::PoolHits),
                sum(Count::PoolHits) + sum(Count::PoolMisses),
            ),
        );
        put(
            "gpu_sim.devices_attached_per_op",
            per_op(Count::DevicesAttached),
        );
        put(
            "gpu_sim.txn_per_host_s",
            ratio(sum(Count::Transactions), window_host / 1e3),
        );
        put(
            "gpu_sim.host_ms_per_sim_ms",
            ratio(window_host, sum(Count::ModeledMs)),
        );
        put("core.plans_computed_per_op", per_op(Count::PlansComputed));
        put(
            "core.plan_cache_hit_ratio",
            ratio(
                sum(Count::PlanHits),
                sum(Count::PlanHits) + sum(Count::PlansComputed),
            ),
        );
        put("runtime.stream.h2d_bytes_per_op", per_op(Count::H2dBytes));
        put(
            "runtime.stream.residency_hit_ratio",
            ratio(sum(Count::ResidencyHits), sum(Count::ResidencySlots)),
        );
        put(
            "runtime.stream.bubble_share",
            ratio(sum(Count::BubbleMs), sum(Count::ModeledMs)),
        );
        put("runtime.serve.refused_per_op", per_op(Count::Refused));
        put(
            "runtime.serve.deadline_misses_per_op",
            per_op(Count::DeadlineMisses),
        );
        put("runtime.serve.recoveries_per_op", per_op(Count::Recoveries));
        put(
            "runtime.serve.streamed_admissions_per_op",
            per_op(Count::StreamedAdmissions),
        );
        put(
            "runtime.serve.faults_injected_per_op",
            per_op(Count::FaultsInjected),
        );
        put(
            "runtime.serve.slot_utilization",
            ratio(sum(Count::SlotBusyMs), sum(Count::SlotCapacityMs)),
        );
        put(
            "runtime.serve.queued_share",
            ratio(sum(Count::QueuedMs), sum(Count::LatencyMs)),
        );
        put("trace.overhead_ratio", overhead);

        let metrics = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|&(name, unit)| Metric {
                name,
                unit,
                value: values.get(name).copied().unwrap_or(f64::NAN),
            })
            .collect();
        let layer_self_ms = LAYERS
            .iter()
            .map(|&layer| {
                let ns: u64 = spans
                    .iter()
                    .zip(&self_ns)
                    .filter(|(s, _)| s.layer == layer)
                    .map(|(_, n)| *n)
                    .sum();
                (layer, ns as f64 / 1e6)
            })
            .collect();
        let failed = self.warmup_failed + self.ops.iter().filter(|r| r.is_none()).count() as u64;
        Outcome {
            attempted: self.ops.len() as u64 + self.warmup_failed,
            failed,
            metrics,
            layer_self_ms,
            spans,
            failures: self.failures,
        }
    }
}

/// Run one op, turning a panic into a failure message.
fn run_op(
    op: &mut dyn FnMut(usize) -> Result<OpRecord, String>,
    i: usize,
) -> Result<OpRecord, String> {
    match catch_unwind(AssertUnwindSafe(|| op(i))) {
        Ok(res) => res,
        Err(payload) => Err(format!(
            "panicked: {}",
            payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("(non-string payload)")
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts() -> RunOptions {
        RunOptions {
            seed: 1,
            seconds: 0.0,
            trace: false,
            scale: 1.0,
        }
    }

    #[test]
    fn metric_names_are_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(
                !name.is_empty()
                    && name.len() <= 64
                    && name.starts_with(|c: char| c.is_ascii_alphanumeric())
                    && name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')),
                "bad metric name {name:?}"
            );
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {unit:?} of {name}"
            );
            assert!(seen.insert(*name), "duplicate metric {name}");
        }
    }

    #[test]
    fn failures_are_counted_and_never_end_the_run() {
        let mut h = Harness::new(RunOptions {
            seconds: 0.0,
            ..opts()
        });
        let mut calls = 0usize;
        let mut op = |i: usize| -> Result<OpRecord, String> {
            calls += 1;
            // Warm-ups pass; then a typed error, a panic, a good op.
            match (calls > SETUPS * WARMUP_OPS, i % 3) {
                (true, 0) => Err("typed error".to_string()),
                (true, 1) => panic!("boom"),
                _ => Ok(OpRecord {
                    host_ms: 1.0,
                    modeled_samples: vec![2.0],
                    ..OpRecord::default()
                }),
            }
        };
        for _ in 0..SETUPS {
            h.begin_setup();
            h.finish_setup(3, &mut op);
        }
        let out = h.finish();
        let failed = (0..MIN_OPS).filter(|i| i % 3 != 2).count();
        assert_eq!((out.attempted, out.failed), (MIN_OPS as u64, failed as u64));
        assert_eq!(out.failures.len(), MAX_FAILURE_MESSAGES);
        assert!(out.failures[1].contains("boom"), "{:?}", out.failures);
        assert_eq!(out.metric("host_ms_p10"), Some(1.0));
        let cycles_per_ms = DeviceSpec::gtx_titan().clock_ghz * 1e6;
        assert_eq!(out.metric("modeled_cycles_p90"), Some(2.0 * cycles_per_ms));
    }
}
