//! `benchmark` — the repository benchmark declared in `BENCHMARK.json`.
//!
//! ```text
//! benchmark [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
//!           [--scale F] [--out FILE] [--trace-out FILE]
//! benchmark compare A.json B.json [--spec BENCHMARK.json]
//! ```
//!
//! A single workload runs in this process and prints every metric by name
//! with its unit, then one JSON line: `{"correct", "attempted", "failed",
//! "metrics"}`. `--workload all` (the default) runs each workload in a
//! fresh child process, one at a time, so peak memory and process-global
//! state are per workload. See `README.md` next to this crate.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod compare;
mod harness;
mod host;
mod span;
mod stats;
mod timed;
mod workloads;

use fusedml_bench::regress::json::Json;
use harness::{Outcome, RunOptions};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str = "usage: benchmark [--workload NAME|all] [--seed N] [--seconds S] \
[--trace 0|1] [--scale F] [--out FILE] [--trace-out FILE]\n       \
benchmark compare A.json B.json [--spec BENCHMARK.json]";

const DEFAULT_SEED: u64 = 0x5EED;
const DEFAULT_SECONDS: f64 = 10.0;

/// Where results and span files go unless a path is given.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

#[derive(Debug, Clone)]
struct Args {
    workload: String,
    run: RunOptions,
    out: Option<PathBuf>,
    trace_out: Option<PathBuf>,
    /// The CPU this process runs on (see [`host::pin_to_one_cpu`]).
    pinned: Option<usize>,
}

fn parse_seed(s: &str) -> Result<u64, String> {
    let parsed = match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse(),
    };
    parsed.map_err(|_| format!("--seed: {s:?} is not a 64-bit integer"))
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: "all".to_string(),
        run: RunOptions {
            seed: DEFAULT_SEED,
            seconds: DEFAULT_SECONDS,
            trace: false,
            scale: 1.0,
        },
        out: None,
        trace_out: None,
        pinned: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => a.workload = value()?,
            "--seed" => a.run.seed = parse_seed(&value()?)?,
            "--seconds" => {
                let v = value()?;
                a.run.seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("--seconds: {v:?} is not a non-negative number"))?;
            }
            "--trace" => {
                a.run.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: expected 0 or 1, got {other:?}")),
                }
            }
            "--scale" => {
                let v = value()?;
                a.run.scale = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && *s <= 1.0)
                    .ok_or_else(|| format!("--scale: {v:?} is not in (0, 1]"))?;
            }
            "--out" => a.out = Some(PathBuf::from(value()?)),
            "--trace-out" => a.trace_out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if a.workload != "all" && !workloads::NAMES.contains(&a.workload.as_str()) {
        return Err(format!(
            "unknown workload {:?} (expected all or one of {})",
            a.workload,
            workloads::NAMES.join(", ")
        ));
    }
    Ok(a)
}

/// One JSON document on one line.
fn compact(j: &Json) -> String {
    j.render().lines().map(str::trim_start).collect()
}

/// The result line of one workload run.
fn result_json(o: &Outcome, trace: bool) -> Json {
    let metrics = o
        .printed(trace)
        .into_iter()
        .map(|m| {
            (
                m.name,
                Json::obj(vec![
                    ("value", Json::num(m.value)),
                    ("unit", Json::str(m.unit)),
                ]),
            )
        })
        .collect();
    Json::obj(vec![
        ("correct", Json::Bool(o.failed == 0)),
        ("attempted", Json::u64(o.attempted)),
        ("failed", Json::u64(o.failed)),
        ("metrics", Json::obj(metrics)),
    ])
}

/// The document `--out` writes and `compare` reads.
fn result_file(a: &Args, workloads: Vec<(&str, Json)>) -> Json {
    Json::obj(vec![
        ("seed", Json::str(format!("{:#x}", a.run.seed))),
        ("seconds", Json::num(a.run.seconds)),
        ("scale", Json::num(a.run.scale)),
        ("trace", Json::Bool(a.run.trace)),
        ("host", host::fingerprint(a.pinned)),
        ("workloads", Json::obj(workloads)),
    ])
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn run_one(a: &Args) -> Result<(), String> {
    let outcome = workloads::run(&a.workload, a.run)?;
    println!(
        "workload {}  seed {:#x}  attempted {}  failed {}",
        a.workload, a.run.seed, outcome.attempted, outcome.failed
    );
    println!("host {}", compact(&host::fingerprint(a.pinned)));
    for f in &outcome.failures {
        eprintln!("benchmark: {}: {f}", a.workload);
    }
    if a.run.trace {
        let path = a
            .trace_out
            .clone()
            .unwrap_or_else(|| out_dir().join(format!("trace-{}.json", a.workload)));
        write_file(&path, &compact(&span::chrome_trace(&outcome.spans)))?;
        println!(
            "spans: {} written to {}",
            outcome.spans.len(),
            path.display()
        );
        println!("self time per layer (set-ups and traced ops):");
        for (layer, ms) in &outcome.layer_self_ms {
            println!("  {layer:<12} {ms:>12.3} ms");
        }
    }
    for m in outcome.printed(a.run.trace) {
        println!("  {:<44} {:>18} {}", m.name, m.value, m.unit);
    }
    let line = result_json(&outcome, a.run.trace);
    if let Some(path) = &a.out {
        write_file(
            path,
            &result_file(a, vec![(&a.workload, line.clone())]).render(),
        )?;
    }
    println!("{}", compact(&line));
    Ok(())
}

/// Run every workload in its own child process, one at a time.
fn run_all(a: &Args) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark: {e}"))?;
    let mut results = Vec::new();
    for name in workloads::NAMES {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", name])
            .args(["--seed", &a.run.seed.to_string()])
            .args(["--seconds", &a.run.seconds.to_string()])
            .args(["--trace", if a.run.trace { "1" } else { "0" }])
            .args(["--scale", &a.run.scale.to_string()]);
        let out = cmd
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("{name}: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        print!("{stdout}");
        if !out.status.success() {
            return Err(format!("{name}: child exited with {}", out.status));
        }
        let last = stdout.lines().last().unwrap_or_default();
        let json = Json::parse(last).map_err(|e| format!("{name}: result line: {e}"))?;
        results.push((name, json));
    }
    let path = a
        .out
        .clone()
        .unwrap_or_else(|| out_dir().join(format!("result-{:#x}.json", a.run.seed)));
    let doc = result_file(a, results);
    write_file(&path, &doc.render())?;
    println!("result written to {}", path.display());
    println!("{}", compact(&doc));
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return compare::main(&args[1..]);
    }
    host::fix_mmap_threshold();
    let pinned = host::pin_to_one_cpu();
    let a = match parse_args(&args) {
        Ok(a) => Args { pinned, ..a },
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let res = if a.workload == "all" {
        run_all(&a)
    } else {
        run_one(&a)
    };
    match res {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
