//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro all                 # every experiment at the default scale (0.25)
//! repro fig3 table5         # a subset
//! repro fig2 --scale 0.05   # quick run
//! repro all --json results  # also dump JSON rows per experiment
//! repro fig3 --trace        # also export a Chrome trace of the run
//! ```
//!
//! Exit codes: 0 on success, 1 on usage or I/O failure or a failed
//! experiment (a device or solver error), 2 when an
//! experiment name is unknown (so scripts can tell a typo from a broken
//! run).

// Failures exit through `die` with a worded message, never a panic or a
// bare unwrap/expect.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic))]

use fusedml_bench::experiments::{self, Ctx, ExperimentResult};
use fusedml_bench::regress::{chrome_trace, Json};
use fusedml_gpu_sim::DeviceSpec;
use std::time::Instant;

const ALL: &[&str] = &[
    "table1", "table2", "fig2", "fig3", "fig4", "fig5", "fig6", "table4", "table5", "table6",
];

/// Extension experiments beyond the paper (run by name, not by `all`).
const EXTENSIONS: &[&str] = &["ell"];

/// Unknown experiment names get their own exit code, distinct from the
/// generic failure exit (1).
const EXIT_UNKNOWN_EXPERIMENT: i32 = 2;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = 0.25f64;
    let mut json_dir: Option<String> = None;
    let mut device = DeviceSpec::gtx_titan();
    let mut trace_out: Option<String> = None;
    let mut wanted: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => {
                scale = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--scale needs a number in (0, 1]"));
            }
            "--device" => {
                device = match it.next().as_deref() {
                    Some("titan") => DeviceSpec::gtx_titan(),
                    Some("k20") => DeviceSpec::tesla_k20(),
                    other => die(&format!("--device must be 'titan' or 'k20', got {other:?}")),
                };
            }
            "--json" => {
                json_dir = Some(it.next().unwrap_or_else(|| die("--json needs a directory")));
            }
            "--trace" => {
                trace_out.get_or_insert_with(|| "repro_trace.json".to_string());
            }
            "--trace-out" => {
                trace_out = Some(it.next().unwrap_or_else(|| die("--trace-out needs a path")));
            }
            "all" => wanted.extend(ALL.iter().map(|s| s.to_string())),
            other if ALL.contains(&other) || EXTENSIONS.contains(&other) => {
                wanted.push(other.to_string())
            }
            other if other.starts_with('-') => {
                die(&format!("unknown flag '{other}'"));
            }
            other => die_unknown(&format!(
                "unknown experiment '{other}'; available: {}, extensions: {}, or 'all'",
                ALL.join(", "),
                EXTENSIONS.join(", ")
            )),
        }
    }
    if wanted.is_empty() {
        die(&format!("usage: repro <experiment...|all> [--scale f] [--json dir] [--device titan|k20] [--trace] [--trace-out PATH]\navailable: {}", ALL.join(", ")));
    }
    wanted.dedup();

    let ctx = Ctx::with_device(scale, device);
    println!(
        "device: {} | workload scale: {scale} (1.0 = paper sizes)\n",
        ctx.gpu.spec().name
    );

    if trace_out.is_some() {
        fusedml_trace::enable();
    }

    for name in &wanted {
        let t0 = Instant::now();
        let table = run_one(&ctx, name).unwrap_or_else(|e| die(&format!("{name} failed: {e}")));
        table.print();
        println!("  ({} regenerated in {:.1?})\n", name, t0.elapsed());
        if let Some(dir) = &json_dir {
            std::fs::create_dir_all(dir)
                .unwrap_or_else(|e| die(&format!("cannot create json dir {dir}: {e}")));
            let path = format!("{dir}/{name}.json");
            let text = table.to_json().render();
            std::fs::write(&path, text)
                .unwrap_or_else(|e| die(&format!("cannot write {path}: {e}")));
            println!("  wrote {path}\n");
        }
    }

    if let Some(out) = &trace_out {
        export_trace(out);
    }
}

/// Export the accumulated event stream as the same Chrome trace-event
/// document `fusedml-bench trace` writes (Perfetto-loadable), with the
/// same round-trip validation through the zero-dependency JSON parser.
fn export_trace(out: &str) {
    fusedml_trace::disable();
    let events = fusedml_trace::take();
    let dropped = fusedml_trace::dropped_events();

    let doc = chrome_trace(&events);
    let text = doc.render();
    let back = Json::parse(&text)
        .unwrap_or_else(|e| die(&format!("trace export does not round-trip: {e}")));
    if back != doc {
        die("trace export does not round-trip: parsed tree differs");
    }

    if let Some(dir) = std::path::Path::new(out).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)
                .unwrap_or_else(|e| die(&format!("cannot create {}: {e}", dir.display())));
        }
    }
    std::fs::write(out, &text).unwrap_or_else(|e| die(&format!("cannot write {out}: {e}")));
    eprintln!("wrote {out} ({} events, {dropped} dropped)", events.len());
}

fn run_one(ctx: &Ctx, name: &str) -> ExperimentResult {
    match name {
        "table1" => experiments::table1::run(ctx),
        "table2" => experiments::table2::run(ctx),
        "fig2" => experiments::fig2::run(ctx),
        "fig3" => experiments::fig3::run(ctx),
        "fig4" => experiments::fig4::run(ctx),
        "fig5" => experiments::fig5::run(ctx),
        "fig6" => experiments::fig6::run(ctx),
        "table4" => experiments::table4::run(ctx),
        "table5" => experiments::table5::run(ctx),
        "table6" => experiments::table6::run(ctx),
        "ell" => experiments::ext_ell::run(ctx),
        other => die_unknown(&format!("unknown experiment {other}")),
    }
}

/// Generic failure: bad usage, bad flag value, I/O error, a failed
/// experiment.
fn die(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(1);
}

/// A typo in an experiment name (see the module docs on exit codes).
fn die_unknown(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(EXIT_UNKNOWN_EXPERIMENT);
}
