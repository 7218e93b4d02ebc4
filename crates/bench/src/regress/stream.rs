//! `fusedml-bench stream` — the copy-engine streaming benchmark and its
//! CI regression gate.
//!
//! For each streaming workload the bench runs the same multi-pass
//! chunked pattern job under a ladder of configurations ("legs"):
//!
//! * `serial` — depth 1, no residency: every chunk transfer completes
//!   before its kernel starts. The pipeline model must collapse to the
//!   serial model here, and CI checks that it does.
//! * `double_buffer` — depth 2, no residency: the legacy
//!   `max(transfer, prev_kernel)` regime, kept as the comparison point.
//! * `pipeline3_resident` — depth 3 over two copy-engine queues with a
//!   residency budget covering the whole matrix: after the cold pass,
//!   chunks are served from device memory. This leg must *strictly*
//!   lower both the modeled wall and the H2D byte traffic relative to
//!   `double_buffer` — that gap is the point of the whole subsystem,
//!   and [`stream_invariants`] fails the run if it ever closes.
//! * `auto_resident` — the cost-model search picks chunk size and depth
//!   (once, when the leg's streamer is built), with the same residency
//!   budget. Informative and gated like any other leg.
//!
//! Every metric in the report is modeled (simulated device time, copy
//! engine counters), so the dump is deterministic for a fixed
//! fingerprint; [`STREAM_RULES`](super::STREAM_RULES) gate a candidate
//! against the committed baseline. Legacy reports that predate the
//! pipeline fields (`depth`, `bubble_ms`, `residency_hits`, ...) still
//! load: the reader applies the double-buffer defaults, mirroring the
//! serde defaults on the runtime's `StreamReport`.

use super::json::Json;
use super::suite::SuiteOptions;
use fusedml_core::PatternSpec;
use fusedml_gpu_sim::Gpu;
use fusedml_matrix::gen::{powerlaw_sparse, random_vector, uniform_sparse};
use fusedml_matrix::CsrMatrix;
use fusedml_runtime::{SparseStreamer, StreamConfig, TransferModel};

/// Bumped when the report's structure changes incompatibly.
pub const STREAM_SCHEMA_VERSION: u64 = 1;

/// Solver passes per leg. Pass 0 streams cold; the rest replay the same
/// access pattern, which is what gives residency something to serve.
pub const STREAM_DEFAULT_PASSES: usize = 3;

/// One streaming workload: a synthetic matrix plus the fixed chunking
/// shared by the non-auto legs so their schedules are comparable.
struct StreamWorkload {
    id: String,
    x: CsrMatrix,
    rows_per_chunk: usize,
}

fn workloads(opts: &SuiteOptions) -> Vec<StreamWorkload> {
    let scaled = |base: usize| ((base as f64 * opts.scale).round() as usize).max(64);
    let mut specs: Vec<(&str, usize, usize, bool)> = vec![
        ("uniform", scaled(6_000), 512, false),
        ("powerlaw", scaled(6_000), 512, true),
    ];
    if opts.mode == super::suite::Mode::Full {
        specs.push(("uniform", scaled(20_000), 1024, false));
    }
    specs
        .into_iter()
        .map(|(dist, rows, cols, powerlaw)| {
            let x = if powerlaw {
                powerlaw_sparse(rows, cols, 10.0, 0.8, opts.seed)
            } else {
                uniform_sparse(rows, cols, 0.01, opts.seed)
            };
            StreamWorkload {
                id: format!("stream/{dist}/{rows}x{cols}"),
                x,
                // Eight chunks: enough in flight for depth 3 over two
                // queues to pipeline, small enough to stay quick.
                rows_per_chunk: rows.div_ceil(8),
            }
        })
        .collect()
}

/// The configuration ladder for one workload.
fn legs(rows_per_chunk: usize, matrix_bytes: u64) -> Vec<(&'static str, StreamConfig)> {
    vec![
        ("serial", StreamConfig::fixed(rows_per_chunk, 1)),
        ("double_buffer", StreamConfig::fixed(rows_per_chunk, 2)),
        (
            "pipeline3_resident",
            StreamConfig::fixed(rows_per_chunk, 3)
                .with_queues(2)
                .with_residency(matrix_bytes),
        ),
        (
            "auto_resident",
            StreamConfig::auto().with_residency(matrix_bytes),
        ),
    ]
}

/// Run one leg on a fresh device. A shared device would let the
/// simulator's warm-across-launches L2 model leak one leg's cache state
/// into the next, making kernel costs depend on leg order.
fn run_leg(
    opts: &SuiteOptions,
    wl: &StreamWorkload,
    name: &str,
    cfg: StreamConfig,
    passes: usize,
) -> Result<Json, String> {
    let gpu = Gpu::new(opts.device.clone());
    let mut s = SparseStreamer::try_new(&gpu, &wl.x, TransferModel::native(), cfg)
        .map_err(|e| format!("{}/{name}: {e}", wl.id))?;
    let y = random_vector(wl.x.cols(), opts.seed ^ 0x57EA);

    let (mut wall, mut serial, mut kernel, mut transfer, mut bubble) = (0.0, 0.0, 0.0, 0.0, 0.0);
    for _ in 0..passes {
        let mut w = vec![0.0; wl.x.cols()];
        let r = s
            .try_pattern_host(PatternSpec::xtxy(), None, &y, None, &mut w)
            .map_err(|e| format!("{}/{name}: {e}", wl.id))?;
        wall += r.overlapped_ms;
        serial += r.serial_ms;
        kernel += r.kernel_ms;
        transfer += r.transfer_ms;
        bubble += r.bubble_ms;
    }

    let copy = s.copy_stats();
    let chunks = s.chunk_count();
    let hits = s.residency_hits_total();
    let hit_rate = hits as f64 / (passes * chunks) as f64;
    Ok(Json::obj(vec![
        ("name", Json::str(name)),
        ("depth", Json::u64(s.depth() as u64)),
        ("queues", Json::u64(cfg.queues as u64)),
        ("rows_per_chunk", Json::u64(s.rows_per_chunk() as u64)),
        ("chunks", Json::u64(chunks as u64)),
        ("resident_bytes_cap", Json::u64(cfg.resident_bytes_cap)),
        ("modeled_wall_ms", Json::num(wall)),
        ("serial_ms", Json::num(serial)),
        ("kernel_ms", Json::num(kernel)),
        ("transfer_ms", Json::num(transfer)),
        ("bubble_ms", Json::num(bubble)),
        ("h2d_bytes", Json::u64(copy.bytes)),
        ("h2d_transfers", Json::u64(copy.transfers)),
        ("residency_hits", Json::u64(hits)),
        ("residency_hit_rate", Json::num(hit_rate)),
        ("launches", Json::u64(s.launch_count() as u64)),
    ]))
}

/// Run the streaming matrix and assemble the schema-versioned report.
/// Everything in it is modeled, so two runs of one fingerprint are
/// byte-identical.
pub fn stream_report(opts: &SuiteOptions, passes: usize) -> Result<Json, String> {
    if passes < 2 {
        return Err("stream bench needs at least 2 passes (one cold, one warm)".to_string());
    }
    let mut out = Vec::new();
    for wl in workloads(opts) {
        let bytes = wl.x.size_bytes();
        let mut leg_docs = Vec::new();
        for (name, cfg) in legs(wl.rows_per_chunk, bytes) {
            leg_docs.push(run_leg(opts, &wl, name, cfg, passes)?);
        }
        out.push(Json::obj(vec![
            ("id", Json::str(wl.id.clone())),
            ("rows", Json::u64(wl.x.rows() as u64)),
            ("cols", Json::u64(wl.x.cols() as u64)),
            ("nnz", Json::u64(wl.x.nnz() as u64)),
            ("matrix_bytes", Json::u64(bytes)),
            ("legs", Json::Arr(leg_docs)),
        ]));
    }
    Ok(Json::obj(vec![
        ("schema_version", Json::u64(STREAM_SCHEMA_VERSION)),
        ("fingerprint", opts.fingerprint().to_json()),
        ("passes", Json::u64(passes as u64)),
        ("workloads", Json::Arr(out)),
    ]))
}

/// The modeled metrics of one leg, read with legacy defaults: reports
/// written before the pipeline fields existed describe the
/// double-buffer regime, so a missing `depth` reads as 2 and the
/// missing residency/bubble counters read as zero — the same defaults
/// the runtime's `StreamReport` deserializer applies.
struct LegMetrics {
    depth: u64,
    wall: f64,
    serial: f64,
    bytes: u64,
    bubble: f64,
    hits: u64,
}

fn leg_metrics(leg: &Json) -> Result<LegMetrics, String> {
    Ok(LegMetrics {
        depth: leg.field_u64("depth").unwrap_or(2),
        wall: leg.field_f64("modeled_wall_ms")?,
        serial: leg.field_f64("serial_ms")?,
        bytes: leg.field_u64("h2d_bytes")?,
        bubble: leg.field_f64("bubble_ms").unwrap_or(0.0),
        hits: leg.field_u64("residency_hits").unwrap_or(0),
    })
}

fn find_leg<'a>(wl: &'a Json, name: &str) -> Option<&'a Json> {
    wl.get("legs")?
        .as_arr()?
        .iter()
        .find(|l| l.get("name").and_then(Json::as_str) == Some(name))
}

/// The model-level guarantees CI holds every run to, baseline or not:
/// the depth-1 leg must match the serial model, and the pipelined
/// residency leg must strictly beat double-buffer re-streaming on both
/// modeled wall and H2D traffic. Returns one message per violation.
pub fn stream_invariants(report: &Json) -> Vec<String> {
    let mut bad = Vec::new();
    let Some(wls) = report.get("workloads").and_then(Json::as_arr) else {
        return vec!["report has no workloads array".to_string()];
    };
    for wl in wls {
        let id = wl.field_str("id").unwrap_or("?").to_string();
        let get = |name: &str| -> Result<LegMetrics, String> {
            find_leg(wl, name)
                .ok_or_else(|| format!("{id}: missing leg '{name}'"))
                .and_then(leg_metrics)
        };
        let (serial, double, pipe) = match (
            get("serial"),
            get("double_buffer"),
            get("pipeline3_resident"),
        ) {
            (Ok(s), Ok(d), Ok(p)) => (s, d, p),
            (s, d, p) => {
                for r in [s, d, p] {
                    if let Err(e) = r {
                        bad.push(e);
                    }
                }
                continue;
            }
        };
        if serial.depth != 1 || (serial.wall - serial.serial).abs() > 1e-9 * serial.serial.max(1.0)
        {
            bad.push(format!(
                "{id}: depth-1 leg diverges from the serial model ({} vs {})",
                serial.wall, serial.serial
            ));
        }
        if pipe.wall >= double.wall {
            bad.push(format!(
                "{id}: pipelined residency wall {} does not beat double-buffer {}",
                pipe.wall, double.wall
            ));
        }
        if pipe.bytes >= double.bytes {
            bad.push(format!(
                "{id}: pipelined residency moved {} H2D bytes, double-buffer {}",
                pipe.bytes, double.bytes
            ));
        }
        if pipe.hits == 0 {
            bad.push(format!(
                "{id}: residency leg never hit device-resident data"
            ));
        }
        if double.bubble < 0.0 || pipe.bubble < 0.0 {
            bad.push(format!("{id}: negative pipeline bubble time"));
        }
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regress::{gate, Severity, STREAM_RULES};

    fn tiny_opts() -> SuiteOptions {
        let mut opts = SuiteOptions::quick();
        // ~600 rows keeps the three-pass ladder fast while leaving eight
        // real chunks per workload.
        opts.scale = 0.1;
        opts
    }

    #[test]
    fn report_is_deterministic_and_passes_its_own_invariants() {
        let opts = tiny_opts();
        let a = stream_report(&opts, STREAM_DEFAULT_PASSES).unwrap();
        let b = stream_report(&opts, STREAM_DEFAULT_PASSES).unwrap();
        assert_eq!(
            a.render(),
            b.render(),
            "stream report must be deterministic"
        );
        assert_eq!(stream_invariants(&a), Vec::<String>::new());

        // The report round-trips through the zero-dependency parser.
        assert_eq!(Json::parse(&a.render()).unwrap(), a);

        // Spot-check the headline gap on every workload: the residency
        // leg re-uses the matrix instead of re-streaming it each pass.
        for wl in a.field("workloads").unwrap().as_arr().unwrap() {
            let double = leg_metrics(find_leg(wl, "double_buffer").unwrap()).unwrap();
            let pipe = leg_metrics(find_leg(wl, "pipeline3_resident").unwrap()).unwrap();
            let matrix_bytes = wl.field_u64("matrix_bytes").unwrap();
            assert!(
                pipe.bytes < matrix_bytes * 2,
                "residency leg must stream the matrix roughly once, moved {} of {}",
                pipe.bytes,
                matrix_bytes
            );
            assert!(
                double.bytes > matrix_bytes * 2,
                "double-buffer must re-stream"
            );
        }
        assert!(gate(STREAM_RULES, &a, &b, false).findings.is_empty());
    }

    #[test]
    fn gate_flags_wall_and_byte_regressions_and_structural_drift() {
        let opts = tiny_opts();
        let base = stream_report(&opts, 2).unwrap();

        // Inflate the first workload's first leg by 10% wall and bytes.
        let mut cand = base.clone();
        let (mut id, mut first, mut last) = (String::new(), String::new(), String::new());
        if let Json::Obj(m) = &mut cand {
            if let Some(Json::Arr(wls)) = m.get_mut("workloads") {
                if let Some(Json::Obj(w)) = wls.first_mut() {
                    id = w["id"].as_str().unwrap().to_string();
                    if let Some(Json::Arr(legs)) = w.get_mut("legs") {
                        if let Some(Json::Obj(leg)) = legs.first_mut() {
                            first = leg["name"].as_str().unwrap().to_string();
                            let wall = leg["modeled_wall_ms"].as_f64().unwrap();
                            leg.insert("modeled_wall_ms".into(), Json::num(wall * 1.10));
                            let bytes = leg["h2d_bytes"].as_u64().unwrap();
                            leg.insert("h2d_bytes".into(), Json::u64(bytes + bytes / 10));
                        }
                    }
                    // And drop the last leg entirely.
                    if let Some(Json::Arr(legs)) = w.get_mut("legs") {
                        last = legs.pop().unwrap().field_str("name").unwrap().to_string();
                    }
                }
            }
        }
        let leg = |name: &str| format!("workloads[{id}].legs[{name}]");
        let bad = gate(STREAM_RULES, &base, &cand, false);
        let regressed = |path: String| bad.at(&path) == Some(Severity::Regression);
        assert!(
            regressed(leg(&first) + ".modeled_wall_ms"),
            "{}",
            bad.render()
        );
        assert!(regressed(leg(&first) + ".h2d_bytes"), "{}", bad.render());
        assert!(regressed(leg(&last)), "{}", bad.render());

        // Improvements never fail: swap roles so the candidate is faster.
        // The leg it gained is only a note.
        let swapped = gate(STREAM_RULES, &cand, &base, false);
        assert!(swapped.passed(), "{}", swapped.render());
        assert_eq!(swapped.at(&leg(&last)), Some(Severity::Note));
    }

    #[test]
    fn legacy_double_buffer_report_reads_with_defaults() {
        // A report leg written before the pipeline fields existed: no
        // depth, no bubble, no residency counters. It must read as the
        // double-buffer regime, and gating it against a modern candidate
        // must work on the shared fields.
        let legacy_leg = Json::obj(vec![
            ("name", Json::str("double_buffer")),
            ("modeled_wall_ms", Json::num(4.0)),
            ("serial_ms", Json::num(6.0)),
            ("h2d_bytes", Json::u64(1_000_000)),
        ]);
        let m = leg_metrics(&legacy_leg).unwrap();
        assert_eq!(m.depth, 2);
        assert_eq!(m.bubble, 0.0);
        assert_eq!(m.hits, 0);

        let wrap = |leg: Json| {
            Json::obj(vec![
                ("schema_version", Json::u64(STREAM_SCHEMA_VERSION)),
                ("fingerprint", Json::obj(vec![("device", Json::str("d"))])),
                ("passes", Json::u64(2)),
                (
                    "workloads",
                    Json::Arr(vec![Json::obj(vec![
                        ("id", Json::str("stream/legacy/1x1")),
                        ("legs", Json::Arr(vec![leg])),
                    ])]),
                ),
            ])
        };
        let legacy = wrap(legacy_leg);
        let modern_leg = Json::obj(vec![
            ("name", Json::str("double_buffer")),
            ("depth", Json::u64(2)),
            ("modeled_wall_ms", Json::num(4.4)),
            ("serial_ms", Json::num(6.0)),
            ("bubble_ms", Json::num(0.5)),
            ("h2d_bytes", Json::u64(1_000_000)),
            ("residency_hits", Json::u64(0)),
        ]);
        let modern = wrap(modern_leg);
        let bad = gate(STREAM_RULES, &legacy, &modern, false);
        assert_eq!(
            bad.at("workloads[stream/legacy/1x1].legs[double_buffer].modeled_wall_ms"),
            Some(Severity::Regression),
            "legacy baseline must still gate the shared metrics: {}",
            bad.render()
        );
    }

    #[test]
    fn invariants_catch_a_cooked_report() {
        let opts = tiny_opts();
        let mut report = stream_report(&opts, 2).unwrap();
        if let Json::Obj(m) = &mut report {
            if let Some(Json::Arr(wls)) = m.get_mut("workloads") {
                if let Some(Json::Obj(w)) = wls.first_mut() {
                    if let Some(Json::Arr(legs)) = w.get_mut("legs") {
                        for leg in legs.iter_mut() {
                            if leg.get("name").and_then(Json::as_str) == Some("pipeline3_resident")
                            {
                                if let Json::Obj(l) = leg {
                                    l.insert("modeled_wall_ms".into(), Json::num(1e9));
                                    l.insert("residency_hits".into(), Json::u64(0));
                                }
                            }
                        }
                    }
                }
            }
        }
        let bad = stream_invariants(&report);
        assert!(bad.iter().any(|b| b.contains("does not beat")), "{bad:?}");
        assert!(bad.iter().any(|b| b.contains("never hit")), "{bad:?}");
    }
}
