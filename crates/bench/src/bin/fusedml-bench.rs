//! `fusedml-bench` — continuous benchmarking CLI.
//!
//! ```text
//! fusedml-bench run --quick                      # suite -> BENCH_fusion.json
//! fusedml-bench run --quick --out results/x.json
//! fusedml-bench compare baseline.json cand.json  # exit 1 on regression
//! fusedml-bench compare a.json b.json --exact --ignore-wall
//! fusedml-bench list --quick                     # workload ids, no run
//! fusedml-bench trace --quick --out trace.json   # traced LR-CG -> Chrome trace
//! fusedml-bench stream --quick --check results/baselines/STREAM_fusion.json
//! fusedml-bench serve --out SERVE_fusion.json
//! fusedml-bench serve --check results/baselines/SERVE_fusion.json
//! ```
//!
//! `compare` and every `--check` run one gate (`regress::gate`) with the
//! report's rule table; `compare --exact` zeroes its tolerances.
//!
//! Exit codes (the `repro` convention): 0 = ok / no regression,
//! 1 = regression detected (a config fingerprint mismatch included) or a
//! runtime/I-O failure, 2 = unknown subcommand, unknown flag, or other
//! usage error.

// CLI failures must go through `die`/`fail`, never a panic or a bare
// unwrap/expect — the exit-code contract above depends on it.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic))]

use fusedml_bench::regress::{
    chrome_trace, gate, hostperf_summary, hostperf_table, hostperf_totals, metrics_summary,
    plan_report, run_campaign, run_cpu_bench, run_scenario, run_suite, serve_bench_report,
    serve_invariants, stream_invariants, stream_report, workload_ids, write_file, BenchReport,
    ChaosOptions, CpuBenchOptions, FaultClass, Json, Mode, Rule, Scenario, ServeBenchOptions,
    SuiteOptions, BENCH_RULES, BENCH_WALL, PLANS_RULES, SERVE_RULES, STREAM_DEFAULT_PASSES,
    STREAM_RULES,
};
use fusedml_gpu_sim::{DeviceSpec, Gpu};
use fusedml_matrix::gen::{random_vector, uniform_sparse};
use fusedml_matrix::reference;
use fusedml_runtime::{
    run_device, DataSet, EngineKind, SessionConfig, SparseStreamer, StreamConfig, TransferModel,
};
use std::time::Instant;

fn main() {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("run") => cmd_run(args.collect()),
        Some("compare") => cmd_compare(args.collect()),
        Some("list") => cmd_list(args.collect()),
        Some("plans") => cmd_plans(args.collect()),
        Some("trace") => cmd_trace(args.collect()),
        Some("hostperf") => cmd_hostperf(args.collect()),
        Some("chaos") => cmd_chaos(args.collect()),
        Some("cpu") => cmd_cpu(args.collect()),
        Some("stream") => cmd_stream(args.collect()),
        Some("serve") => cmd_serve(args.collect()),
        Some(other) => die(&format!("unknown subcommand '{other}'\n{USAGE}")),
        None => die(USAGE),
    }
}

const USAGE: &str = "usage:
  fusedml-bench run [--quick|--full] [--scale f] [--seed u64] [--device titan|k20]
                [--out PATH] [--no-plan-cache]
  fusedml-bench compare <baseline.json> <candidate.json> [--exact] [--ignore-wall]
  fusedml-bench list [--quick|--full] [--scale f]
  fusedml-bench plans [--quick|--full] [--scale f] [--seed u64] [--device titan|k20]
                [--out PATH] [--check GOLDEN.json]
  fusedml-bench trace [--quick|--full] [--scale f] [--seed u64] [--device titan|k20]
                [--out PATH] [--summary-out PATH]
  fusedml-bench hostperf [--from REPORT.json] [--out SUMMARY.json]
                [--quick|--full] [--scale f] [--seed u64] [--device titan|k20]
  fusedml-bench chaos [--scenarios N] [--seed u64] [--out PATH] [--class NAME]
  fusedml-bench chaos replay --seed u64
  fusedml-bench cpu [--quick|--full] [--scale f] [--seed u64] [--repeats N]
                [--threads LIST] [--out PATH]
  fusedml-bench stream [--quick|--full] [--scale f] [--seed u64] [--device titan|k20]
                [--passes N] [--out PATH] [--check BASELINE.json]
  fusedml-bench serve [--tenants N] [--requests N] [--slots N] [--seed u64]
                [--device titan|k20] [--out PATH] [--check BASELINE.json]";

/// Parse the suite-shaping flags shared by `run` and `list`.
fn parse_suite_opts(args: &[String]) -> (SuiteOptions, Vec<String>) {
    let mut opts = SuiteOptions::quick();
    let mut rest = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => opts.mode = Mode::Quick,
            "--full" => opts.mode = Mode::Full,
            "--scale" => {
                opts.scale = next_f64(&mut it, "--scale");
                if !(opts.scale > 0.0 && opts.scale <= 1.0) {
                    die("--scale must be in (0, 1]");
                }
            }
            "--seed" => {
                opts.seed = next_arg(&mut it, "--seed")
                    .parse()
                    .unwrap_or_else(|_| die("--seed needs an unsigned integer"));
            }
            "--device" => {
                opts.device = match next_arg(&mut it, "--device").as_str() {
                    "titan" => DeviceSpec::gtx_titan().into(),
                    "k20" => DeviceSpec::tesla_k20().into(),
                    other => die(&format!("--device must be 'titan' or 'k20', got '{other}'")),
                };
            }
            _ => rest.push(a.clone()),
        }
    }
    (opts, rest)
}

fn cmd_run(args: Vec<String>) {
    let (opts, rest) = parse_suite_opts(&args);
    let mut out = "BENCH_fusion.json".to_string();
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => out = next_arg(&mut it, "--out"),
            // CI's bit-identity check: a cache-off run must produce the
            // same modeled metrics as a cache-on run (only the host block
            // may differ). Executors created after this call inherit it.
            "--no-plan-cache" => fusedml_core::set_plan_cache_enabled(false),
            other => die(&format!("unknown flag '{other}' for run\n{USAGE}")),
        }
    }

    eprintln!(
        "running {} suite on {} (scale {}, seed {:#x})",
        opts.mode.as_str(),
        opts.device.name,
        opts.scale,
        opts.seed
    );
    let t0 = Instant::now();
    let report = run_suite(&opts, |id| eprintln!("  {id}"))
        .unwrap_or_else(|e| fail(&format!("benchmark suite: {e}")));
    report.save(&out).unwrap_or_else(|e| fail(&e));
    eprintln!(
        "wrote {} ({} workloads, {:.1?})",
        out,
        report.workloads.len(),
        t0.elapsed()
    );
    for w in &report.workloads {
        eprintln!(
            "  {:<32} fused {:>10.3} ms  baseline {:>10.3} ms  speedup {:>6.2}x",
            w.id, w.fused.modeled_ms, w.baseline.modeled_ms, w.speedup
        );
    }
}

fn cmd_compare(args: Vec<String>) {
    let (mut exact, mut ignore_wall) = (false, false);
    let mut paths = Vec::new();
    for a in &args {
        match a.as_str() {
            "--exact" => exact = true,
            "--ignore-wall" => ignore_wall = true,
            flag if flag.starts_with("--") => {
                die(&format!("unknown flag '{flag}' for compare\n{USAGE}"))
            }
            path => paths.push(path.to_string()),
        }
    }
    let [base_path, cand_path] = paths.as_slice() else {
        die(&format!(
            "compare needs exactly two report paths, got {}\n{USAGE}",
            paths.len()
        ));
    };

    let base = BenchReport::load(base_path).unwrap_or_else(|e| fail(&e));
    let cand = BenchReport::load(cand_path).unwrap_or_else(|e| fail(&e));
    eprintln!(
        "baseline:  {} @ {}\ncandidate: {} @ {}",
        base_path, base.git_sha, cand_path, cand.git_sha
    );
    let rules: Vec<Rule> = BENCH_RULES
        .iter()
        .filter(|r| !(ignore_wall && r.path == BENCH_WALL))
        .copied()
        .collect();
    let verdict = gate(&rules, &base.to_json(), &cand.to_json(), exact);
    print!("{}", verdict.render());
    if !verdict.passed() {
        std::process::exit(1);
    }
}

fn cmd_list(args: Vec<String>) {
    let (opts, rest) = parse_suite_opts(&args);
    if let Some(flag) = rest.first() {
        die(&format!("unknown flag '{flag}' for list\n{USAGE}"));
    }
    for id in workload_ids(&opts) {
        println!("{id}");
    }
}

/// Compile the fusion plan for every DAG-executed bench workload and dump
/// it as deterministic JSON — the CI plan-regression gate. `--check`
/// diffs the fresh dump against a committed golden and exits 1 on drift.
fn cmd_plans(args: Vec<String>) {
    let (opts, rest) = parse_suite_opts(&args);
    let mut out: Option<String> = None;
    let mut check: Option<String> = None;
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => out = Some(next_arg(&mut it, "--out")),
            "--check" => check = Some(next_arg(&mut it, "--check")),
            other => die(&format!("unknown flag '{other}' for plans\n{USAGE}")),
        }
    }

    let report = plan_report(&opts).unwrap_or_else(|e| fail(&e));
    let text = report.render();

    if let Some(path) = &out {
        write_file(path, &text).unwrap_or_else(|e| fail(&e));
        eprintln!("wrote {path}");
    }
    if let Some(path) = &check {
        check_against("plans", path, &report, PLANS_RULES);
    }
    if out.is_none() && check.is_none() {
        println!("{text}");
    }
}

/// Run one end-to-end LR-CG session with tracing on and export the event
/// stream as a Chrome trace-event file (Perfetto-loadable) plus a flat
/// metrics summary. The workload routes through the runtime session so
/// the trace covers every instrumented layer: kernel launches on the
/// simulated device track, memory-manager transfers on the PCIe track,
/// and solver iterations / session phases on the host track.
fn cmd_trace(args: Vec<String>) {
    let (opts, rest) = parse_suite_opts(&args);
    let mut out = "trace_lr_cg.json".to_string();
    let mut summary_out: Option<String> = None;
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => out = next_arg(&mut it, "--out"),
            "--summary-out" => summary_out = Some(next_arg(&mut it, "--summary-out")),
            other => die(&format!("unknown flag '{other}' for trace\n{USAGE}")),
        }
    }

    // Mirror the suite's LR-CG/CSR workload shape for the chosen mode.
    let (base_rows, cols, iters) = match opts.mode {
        Mode::Quick => (6_000usize, 512usize, 3usize),
        Mode::Full => (25_000, 1024, 8),
    };
    let rows = ((base_rows as f64 * opts.scale).round() as usize).max(64);
    eprintln!(
        "tracing lr_cg/csr/{rows}x{cols} ({} iterations) on {}",
        iters, opts.device.name
    );

    let x = uniform_sparse(rows, cols, 0.01, opts.seed);
    let w_true = random_vector(cols, opts.seed + 10);
    let labels = reference::csr_mv(&x, &w_true);

    fusedml_trace::enable();
    // A short streamed segment on its own device: its flow events link
    // each chunk's host-side iteration arrow through the PCIe transfer
    // to the kernel span, and the smoke check below requires them.
    {
        let stream_gpu = Gpu::new(opts.device.clone());
        let cfg = StreamConfig::fixed(rows.div_ceil(4), 2).with_residency(x.size_bytes());
        let mut s = SparseStreamer::try_new(&stream_gpu, &x, TransferModel::native(), cfg)
            .unwrap_or_else(|e| fail(&format!("streamed trace segment: {e}")));
        let y = random_vector(cols, opts.seed + 20);
        for _ in 0..2 {
            let mut w = vec![0.0; cols];
            s.try_pattern_host(fusedml_core::PatternSpec::xtxy(), None, &y, None, &mut w)
                .unwrap_or_else(|e| fail(&format!("streamed trace segment: {e}")));
        }
        s.release();
    }
    let data = DataSet::Sparse(x);
    let gpu = Gpu::new(opts.device.clone());
    let report = run_device(
        &gpu,
        &data,
        &labels,
        &SessionConfig::native(EngineKind::Fused, iters),
    )
    .unwrap_or_else(|e| fail(&format!("traced session: {e}")));
    fusedml_trace::disable();
    let events = fusedml_trace::take();
    let dropped = fusedml_trace::dropped_events();

    let doc = chrome_trace(&events);
    let text = doc.render();
    // The export must survive our own zero-dependency parser: a cheap
    // structural guarantee before anyone feeds the file to Perfetto.
    let back = Json::parse(&text)
        .unwrap_or_else(|e| fail(&format!("trace export does not round-trip: {e}")));
    if back != doc {
        fail("trace export does not round-trip: parsed tree differs");
    }

    write_file(&out, &text).unwrap_or_else(|e| fail(&e));

    let summary = metrics_summary(&events, dropped);
    if let Some(path) = &summary_out {
        write_file(path, &summary.render()).unwrap_or_else(|e| fail(&e));
    }

    let categories: Vec<&str> = match summary.field("by_category") {
        Ok(Json::Obj(m)) => m.keys().map(String::as_str).collect(),
        _ => Vec::new(),
    };
    eprintln!(
        "wrote {} ({} events, {} dropped; layers: {})",
        out,
        events.len(),
        dropped,
        categories.join(", ")
    );
    eprintln!(
        "session totals: kernel {:.3} ms, transfer {:.3} ms, {} launches",
        report.kernel_ms, report.transfer_ms, report.launches
    );
    for layer in ["kernel", "solver", "session", "stream"] {
        if !categories.contains(&layer) {
            fail(&format!("trace is missing the '{layer}' layer"));
        }
    }
    // The streamed segment must contribute linkable flow events
    // (iteration -> chunk transfer -> kernel); an export with none would
    // silently drop the cross-layer arrows in Perfetto.
    let flows = summary
        .field_u64("flows")
        .unwrap_or_else(|e| fail(&format!("trace summary: {e}")));
    if flows == 0 {
        fail("trace has no flow events linking iterations to transfers and kernels");
    }
    eprintln!("flow events: {flows}");
}

/// Render the host-overhead view: plan-cache and buffer-pool traffic plus
/// host milliseconds per solver iteration, per workload and in aggregate.
/// Reads an existing report with `--from`, otherwise runs the suite.
fn cmd_hostperf(args: Vec<String>) {
    let (opts, rest) = parse_suite_opts(&args);
    let mut from: Option<String> = None;
    let mut out: Option<String> = None;
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--from" => from = Some(next_arg(&mut it, "--from")),
            "--out" => out = Some(next_arg(&mut it, "--out")),
            other => die(&format!("unknown flag '{other}' for hostperf\n{USAGE}")),
        }
    }

    let report = match &from {
        Some(path) => BenchReport::load(path).unwrap_or_else(|e| fail(&e)),
        None => {
            eprintln!(
                "running {} suite on {} (scale {}, seed {:#x})",
                opts.mode.as_str(),
                opts.device.name,
                opts.scale,
                opts.seed
            );
            run_suite(&opts, |id| eprintln!("  {id}"))
                .unwrap_or_else(|e| fail(&format!("benchmark suite: {e}")))
        }
    };

    hostperf_table(&report).print();

    if let Some(path) = &out {
        write_file(path, &hostperf_summary(&report).render()).unwrap_or_else(|e| fail(&e));
        eprintln!("wrote {path}");
    }

    let totals = hostperf_totals(&report);
    if totals.pool_hits + totals.pool_misses == 0 {
        eprintln!("no host activity recorded (v1 report or kernel-only matrix)");
    }
}

/// Chaos campaign / replay. A campaign sweeps derived fault scenarios and
/// writes the schema-versioned report; exit 1 if any invariant failed.
/// `chaos replay --seed <s>` re-derives one scenario from its seed (as
/// recorded in a report), runs it twice, and proves the two outcomes are
/// bit-identical.
fn cmd_chaos(args: Vec<String>) {
    if args.first().map(String::as_str) == Some("replay") {
        let mut seed: Option<u64> = None;
        let mut it = args[1..].iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--seed" => seed = Some(parse_seed(&next_arg(&mut it, "--seed"))),
                other => die(&format!("unknown flag '{other}' for chaos replay\n{USAGE}")),
            }
        }
        let Some(seed) = seed else {
            die(&format!("chaos replay needs --seed\n{USAGE}"));
        };
        let sc = Scenario::from_seed(0, seed);
        eprintln!(
            "replaying scenario {:#018x}: {} under {} faults (rate {}, {} device{}{})",
            seed,
            sc.workload.name(),
            sc.class.name(),
            sc.rate,
            sc.device_count,
            if sc.device_count == 1 { "" } else { "s" },
            if sc.device_count == 1 {
                String::new()
            } else {
                format!(" over {}", sc.interconnect)
            }
        );
        let first = run_scenario(&sc);
        let second = run_scenario(&sc);
        print!("{}", first.to_json().render());
        if first != second {
            eprintln!("replay diverged: two runs of the same seed disagree");
            std::process::exit(1);
        }
        eprintln!("replay is bit-identical");
        if !first.pass() {
            std::process::exit(1);
        }
        return;
    }

    let mut opts = ChaosOptions::default();
    let mut out = "CHAOS_fusion.json".to_string();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scenarios" => {
                opts.scenarios = next_arg(&mut it, "--scenarios")
                    .parse()
                    .unwrap_or_else(|_| die("--scenarios needs an unsigned integer"));
            }
            "--seed" => opts.seed = parse_seed(&next_arg(&mut it, "--seed")),
            "--out" => out = next_arg(&mut it, "--out"),
            "--class" => {
                opts.only_class = Some(
                    FaultClass::from_name(&next_arg(&mut it, "--class"))
                        .unwrap_or_else(|e| die(&format!("{e}\n{USAGE}"))),
                );
            }
            other => die(&format!("unknown flag '{other}' for chaos\n{USAGE}")),
        }
    }

    eprintln!(
        "chaos campaign: {} scenarios, seed {:#x}{}",
        opts.scenarios,
        opts.seed,
        opts.only_class
            .map(|c| format!(", class {}", c.name()))
            .unwrap_or_default()
    );
    let report = run_campaign(&opts, |r| {
        eprintln!(
            "  [{:>4}] {:<7} {:<11} rate {:<5} x{} -> {} on {} ({} attempt{}){}",
            r.scenario.index,
            r.scenario.workload.name(),
            r.scenario.class.name(),
            r.scenario.rate,
            r.scenario.device_count,
            r.outcome,
            r.tier,
            r.attempts,
            if r.attempts == 1 { "" } else { "s" },
            if r.pass() { "" } else { "  INVARIANT VIOLATED" }
        );
    });
    write_file(&out, &report.render()).unwrap_or_else(|e| fail(&e));
    eprintln!(
        "wrote {} ({} scenarios, {} failure{})",
        out,
        report.results.len(),
        report.failures(),
        if report.failures() == 1 { "" } else { "s" }
    );
    if !report.passed() {
        std::process::exit(1);
    }
}

/// The measured CPU benchmark: real wall-clock fused-vs-unfused through
/// the `KernelExecutor` backends (scalar / AVX2 / multithreaded fused),
/// with the analytical roofline's predicted-vs-measured ratio per kernel.
/// Numerical equivalence between executors is verified before timing and
/// exits 1 on violation; wall-clock numbers themselves are never gated.
fn cmd_cpu(args: Vec<String>) {
    let (suite, rest) = parse_suite_opts(&args);
    let mut opts = CpuBenchOptions {
        mode: suite.mode,
        scale: suite.scale,
        seed: suite.seed,
        ..CpuBenchOptions::default()
    };
    let mut out = "CPU_fusion.json".to_string();
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => out = next_arg(&mut it, "--out"),
            "--repeats" => {
                opts.repeats = next_arg(&mut it, "--repeats")
                    .parse()
                    .unwrap_or_else(|_| die("--repeats needs an unsigned integer"));
            }
            "--threads" => {
                opts.threads = next_arg(&mut it, "--threads")
                    .split(',')
                    .map(|t| {
                        t.trim()
                            .parse()
                            .unwrap_or_else(|_| die("--threads needs a comma-separated list"))
                    })
                    .collect();
            }
            other => die(&format!("unknown flag '{other}' for cpu\n{USAGE}")),
        }
    }
    if opts.repeats == 0 {
        die("--repeats must be >= 1");
    }

    eprintln!(
        "measured cpu bench: {} mode, scale {}, seed {:#x}, {} repeats",
        opts.mode.as_str(),
        opts.scale,
        opts.seed,
        opts.repeats
    );
    let report = run_cpu_bench(&opts).unwrap_or_else(|e| fail(&e));

    if let Ok(host) = report.field("host") {
        eprintln!(
            "host: active executor '{}', avx2 detected: {}, forced scalar: {}",
            host.field_str("active_executor").unwrap_or("?"),
            host.get("avx2_detected")
                .is_some_and(|v| *v == Json::Bool(true)),
            host.get("forced_scalar")
                .is_some_and(|v| *v == Json::Bool(true)),
        );
    }
    for wl in report
        .field("workloads")
        .ok()
        .and_then(|w| w.as_arr())
        .unwrap_or(&[])
    {
        let id = wl.field_str("id").unwrap_or("?");
        let unfused_ms = wl
            .field("unfused")
            .and_then(|u| u.field_f64("measured_ms"))
            .unwrap_or(f64::NAN);
        eprintln!("  {id:<28} unfused {unfused_ms:>9.3} ms");
        for leg in wl
            .field("fused")
            .ok()
            .and_then(|l| l.as_arr())
            .unwrap_or(&[])
        {
            eprintln!(
                "    fused {:<10} x{:<2} {:>9.3} ms  speedup {:>5.2}x  pred/meas {:>5.2}",
                leg.field_str("executor").unwrap_or("?"),
                leg.field_u64("threads").unwrap_or(0),
                leg.field_f64("measured_ms").unwrap_or(f64::NAN),
                leg.field_f64("speedup_vs_unfused").unwrap_or(f64::NAN),
                leg.field_f64("predicted_over_measured").unwrap_or(f64::NAN),
            );
        }
    }

    write_file(&out, &report.render()).unwrap_or_else(|e| fail(&e));
    eprintln!("wrote {out}");
}

/// The copy-engine streaming ladder: per workload, run the multi-pass
/// chunked pattern job at depth 1 (serial), depth 2 (the legacy double
/// buffer), depth 3 over two queues with full residency, and the
/// cost-model-searched configuration; write the schema-versioned report
/// and gate it. The model-level invariants (depth 1 == serial model;
/// pipelined residency strictly below double-buffer on wall AND H2D
/// bytes) are enforced on every run, baseline or not; `--check` also
/// gates against a committed baseline by `STREAM_RULES`.
fn cmd_stream(args: Vec<String>) {
    let (opts, rest) = parse_suite_opts(&args);
    let mut passes = STREAM_DEFAULT_PASSES;
    let mut out: Option<String> = None;
    let mut check: Option<String> = None;
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--passes" => {
                passes = next_arg(&mut it, "--passes")
                    .parse()
                    .unwrap_or_else(|_| die("--passes needs an unsigned integer"));
            }
            "--out" => out = Some(next_arg(&mut it, "--out")),
            "--check" => check = Some(next_arg(&mut it, "--check")),
            other => die(&format!("unknown flag '{other}' for stream\n{USAGE}")),
        }
    }
    if passes < 2 {
        die("--passes must be >= 2 (one cold pass, at least one warm)");
    }

    eprintln!(
        "stream bench: {} mode on {} (scale {}, seed {:#x}, {} passes)",
        opts.mode.as_str(),
        opts.device.name,
        opts.scale,
        opts.seed,
        passes
    );
    let report = stream_report(&opts, passes).unwrap_or_else(|e| fail(&e));
    for wl in report
        .field("workloads")
        .ok()
        .and_then(|w| w.as_arr())
        .unwrap_or(&[])
    {
        eprintln!("  {}", wl.field_str("id").unwrap_or("?"));
        for leg in wl
            .field("legs")
            .ok()
            .and_then(|l| l.as_arr())
            .unwrap_or(&[])
        {
            eprintln!(
                "    {:<18} depth {} x{}q  wall {:>9.3} ms  h2d {:>11} B  hit rate {:>5.2}  bubble {:>8.3} ms",
                leg.field_str("name").unwrap_or("?"),
                leg.field_u64("depth").unwrap_or(0),
                leg.field_u64("queues").unwrap_or(0),
                leg.field_f64("modeled_wall_ms").unwrap_or(f64::NAN),
                leg.field_u64("h2d_bytes").unwrap_or(0),
                leg.field_f64("residency_hit_rate").unwrap_or(f64::NAN),
                leg.field_f64("bubble_ms").unwrap_or(f64::NAN),
            );
        }
    }

    let violations = stream_invariants(&report);
    for v in &violations {
        eprintln!("stream invariant violated: {v}");
    }

    if let Some(path) = &out {
        write_file(path, &report.render()).unwrap_or_else(|e| fail(&e));
        eprintln!("wrote {path}");
    }
    if !violations.is_empty() {
        std::process::exit(1);
    }
    if let Some(path) = &check {
        check_against("stream", path, &report, STREAM_RULES);
    }
    if out.is_none() && check.is_none() {
        println!("{}", report.render());
    }
}

/// The multi-tenant serving bench: run the seeded tenant grid and mixed
/// arrival process through the runtime's serving layer, write the
/// schema-versioned `SERVE_fusion.json` and gate it. The structural
/// invariants (request accounting, no ladder exhaustion, latency
/// monotonicity, fault containment) are enforced on every run, baseline
/// or not; `--check` also gates against a committed baseline by
/// `SERVE_RULES`.
fn cmd_serve(args: Vec<String>) {
    let mut opts = ServeBenchOptions::default();
    let mut out: Option<String> = None;
    let mut check: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--tenants" => {
                opts.tenants = next_arg(&mut it, "--tenants")
                    .parse()
                    .unwrap_or_else(|_| die("--tenants needs an unsigned integer"));
            }
            "--requests" => {
                opts.requests = next_arg(&mut it, "--requests")
                    .parse()
                    .unwrap_or_else(|_| die("--requests needs an unsigned integer"));
            }
            "--slots" => {
                opts.slots = next_arg(&mut it, "--slots")
                    .parse()
                    .unwrap_or_else(|_| die("--slots needs an unsigned integer"));
            }
            "--seed" => opts.seed = parse_seed(&next_arg(&mut it, "--seed")),
            "--device" => {
                opts.device = match next_arg(&mut it, "--device").as_str() {
                    "titan" => DeviceSpec::gtx_titan().into(),
                    "k20" => DeviceSpec::tesla_k20().into(),
                    other => die(&format!("--device must be 'titan' or 'k20', got '{other}'")),
                };
            }
            "--out" => out = Some(next_arg(&mut it, "--out")),
            "--check" => check = Some(next_arg(&mut it, "--check")),
            other => die(&format!("unknown flag '{other}' for serve\n{USAGE}")),
        }
    }
    if opts.tenants < 3 {
        die("--tenants must be >= 3 (the grid needs its chaotic, bursty and metered tenants)");
    }
    if opts.requests == 0 || opts.slots == 0 {
        die("--requests and --slots must be >= 1");
    }

    eprintln!(
        "serve bench: {} tenants x {} requests on {} slots ({}, seed {:#x})",
        opts.tenants, opts.requests, opts.slots, opts.device.name, opts.seed
    );
    let report = serve_bench_report(&opts).unwrap_or_else(|e| fail(&e));
    if let Ok(totals) = report.field("totals") {
        eprintln!(
            "  completed {} / {}  rejected {}+{}  shed {}  recoveries {}  deadline misses {}",
            totals.field_u64("completed").unwrap_or(0),
            totals.field_u64("submitted").unwrap_or(0),
            totals.field_u64("rejected_queue").unwrap_or(0),
            totals.field_u64("rejected_quota").unwrap_or(0),
            totals.field_u64("shed").unwrap_or(0),
            totals.field_u64("recoveries").unwrap_or(0),
            totals.field_u64("deadline_misses").unwrap_or(0),
        );
    }
    if let Ok(lat) = report.field("latency_ms") {
        eprintln!(
            "  latency p50 {:>8.3} ms  p99 {:>8.3} ms  p999 {:>8.3} ms  throughput {:>8.1} req/s",
            lat.field_f64("p50").unwrap_or(f64::NAN),
            lat.field_f64("p99").unwrap_or(f64::NAN),
            lat.field_f64("p999").unwrap_or(f64::NAN),
            report.field_f64("throughput_rps").unwrap_or(f64::NAN),
        );
    }
    for t in report
        .field("tenants")
        .ok()
        .and_then(|t| t.as_arr())
        .unwrap_or(&[])
    {
        eprintln!(
            "  {:<10} completed {:>3}/{:<3}  recoveries {:>2}  faults {:>3}  max depth {}",
            t.field_str("name").unwrap_or("?"),
            t.field_u64("completed").unwrap_or(0),
            t.field_u64("submitted").unwrap_or(0),
            t.field_u64("recoveries").unwrap_or(0),
            t.field_u64("faults_injected").unwrap_or(0),
            t.field_u64("max_queue_depth").unwrap_or(0),
        );
    }

    let violations = serve_invariants(&report);
    for v in &violations {
        eprintln!("serve invariant violated: {v}");
    }

    if let Some(path) = &out {
        write_file(path, &report.render()).unwrap_or_else(|e| fail(&e));
        eprintln!("wrote {path}");
    }
    if !violations.is_empty() {
        std::process::exit(1);
    }
    if let Some(path) = &check {
        check_against("serve", path, &report, SERVE_RULES);
    }
    if out.is_none() && check.is_none() {
        println!("{}", report.render());
    }
}

/// Gate a fresh `report` against the committed file at `path` by `rules`:
/// list every regression and exit 1, or print the pass line. `cmd`, the
/// subcommand, words the messages; `plans` calls its file a golden.
fn check_against(cmd: &str, path: &str, report: &Json, rules: &[Rule]) {
    let golden = cmd == "plans";
    let file = if golden { "golden" } else { "baseline" };
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| fail(&format!("cannot read {file} {path}: {e}")));
    let committed =
        Json::parse(&text).unwrap_or_else(|e| fail(&format!("{file} {path} does not parse: {e}")));
    let verdict = gate(rules, &committed, report, false);
    let n = verdict.regressions().count();
    if n == 0 {
        if golden {
            eprintln!("plans match {path}");
        } else {
            eprintln!("{cmd} metrics within tolerance of {path}");
        }
        return;
    }
    for f in verdict.regressions() {
        if golden {
            eprintln!("plan drift: {f}");
        } else {
            eprintln!("{cmd} regression: {f}");
        }
    }
    let (noun, prep) = if golden {
        ("divergence", "from")
    } else {
        ("regression", "against")
    };
    eprintln!(
        "{n} {noun}{} {prep} {path}; if the change is intended, regenerate the {file} with \
         `fusedml-bench {cmd} --out {path}`",
        if n == 1 { "" } else { "s" }
    );
    std::process::exit(1);
}

/// Seeds print as hex in reports; accept both hex and decimal back.
fn parse_seed(s: &str) -> u64 {
    let parsed = match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse(),
    };
    parsed.unwrap_or_else(|_| die("--seed needs an unsigned integer (decimal or 0x hex)"))
}

fn next_arg(it: &mut std::slice::Iter<'_, String>, flag: &str) -> String {
    it.next()
        .cloned()
        .unwrap_or_else(|| die(&format!("{flag} needs a value")))
}

fn next_f64(it: &mut std::slice::Iter<'_, String>, flag: &str) -> f64 {
    next_arg(it, flag)
        .parse()
        .unwrap_or_else(|_| die(&format!("{flag} needs a number")))
}

/// Usage error: unknown subcommand/flag, missing or malformed value.
fn die(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

/// Runtime failure (I/O, parse, planning): the generic failure exit,
/// distinct from usage errors per the `repro` exit-code convention.
fn fail(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(1);
}
