//! Continuous-benchmarking subsystem: a deterministic workload matrix,
//! a schema-versioned machine-readable report (`BENCH_fusion.json`), and
//! one regression gate that diffs any two reports by a table of rules.
//!
//! Entry points:
//! * [`suite::run_suite`] — run the matrix, get a [`report::BenchReport`];
//! * [`gate::gate`] — diff candidate vs. baseline by one of the rule
//!   tables ([`BENCH_RULES`], [`PLANS_RULES`], [`STREAM_RULES`],
//!   [`SERVE_RULES`]);
//! * [`trace_export::chrome_trace`] — Chrome trace-event export of a
//!   [`fusedml_trace`] event stream (`fusedml-bench trace`);
//! * [`chaos::run_campaign`] — the deterministic fault-injection sweep
//!   behind `fusedml-bench chaos` / `chaos replay`;
//! * [`cpu::run_cpu_bench`] — the *measured* (real wall-clock) CPU
//!   fused-vs-unfused benchmark behind `fusedml-bench cpu`;
//! * [`stream::stream_report`] — the copy-engine streaming ladder behind
//!   `fusedml-bench stream`, with its own invariants;
//! * [`serve::serve_bench_report`] — the multi-tenant serving load
//!   generator behind `fusedml-bench serve`, with its own invariants;
//! * the `fusedml-bench` binary — `run` / `compare` / `list` / `plans` /
//!   `trace` / `hostperf` / `chaos` / `cpu` / `stream` / `serve` CLI.
//!
//! The JSON layer is hand-rolled ([`json`]) so the subsystem has zero
//! dependencies beyond the workspace: reports must round-trip in every
//! build environment, including offline ones where third-party serializers
//! are stubbed out.

pub mod chaos;
pub mod cpu;
pub mod gate;
pub mod hostperf;
pub mod json;
pub mod plans;
pub mod report;
pub mod serve;
pub mod stream;
pub mod suite;
pub mod trace_export;

pub use chaos::{
    run_campaign, run_scenario, ChaosOptions, ChaosReport, FaultClass, Scenario, ScenarioResult,
    Workload, CHAOS_MIN_SCHEMA_VERSION, CHAOS_SCHEMA_VERSION,
};
pub use cpu::{run_cpu_bench, CpuBenchOptions, CPU_SCHEMA_VERSION, SIMD_REL_L2_TOL};
pub use gate::{
    gate, Check, Finding, Rule, Severity, Verdict, BENCH_RULES, BENCH_WALL, PLANS_RULES,
    SERVE_RULES, STREAM_RULES,
};
pub use hostperf::{hostperf_summary, hostperf_table, hostperf_totals, HostPerfTotals};
pub use json::Json;
pub use plans::{plan_report, PLANS_SCHEMA_VERSION};
pub use report::{
    write_file, BenchReport, ConfigFingerprint, HostPerf, VariantMetrics, WorkloadResult,
    SCHEMA_VERSION,
};
pub use serve::{serve_bench_report, serve_invariants, ServeBenchOptions, SERVE_SCHEMA_VERSION};
pub use stream::{stream_invariants, stream_report, STREAM_DEFAULT_PASSES, STREAM_SCHEMA_VERSION};
pub use suite::{run_suite, workload_ids, Mode, SuiteOptions};
pub use trace_export::{chrome_trace, metrics_summary, DEVICE_PID, HOST_PID};
