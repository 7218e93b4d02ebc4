//! End-to-end acceptance test for the tracing subsystem: a traced LR-CG
//! session must emit spans from at least three layers (kernel launches,
//! solver iterations, runtime session phases) and the Chrome trace-event
//! export must round-trip through the zero-dependency JSON parser.
//!
//! One test only: the trace collector is process-global, so concurrent
//! tests in this binary would interleave their event streams.

use fusedml_bench::regress::{chrome_trace, metrics_summary, Json, DEVICE_PID, HOST_PID};
use fusedml_gpu_sim::{DeviceSpec, Gpu};
use fusedml_matrix::gen::{random_vector, uniform_sparse};
use fusedml_matrix::reference;
use fusedml_runtime::{run_device, DataSet, EngineKind, SessionConfig};
use std::collections::BTreeSet;

#[test]
fn end_to_end_trace_covers_three_layers_and_roundtrips() {
    let x = uniform_sparse(600, 64, 0.05, 7);
    let w_true = random_vector(64, 17);
    let labels = reference::csr_mv(&x, &w_true);
    let data = DataSet::Sparse(x);

    fusedml_trace::enable();
    let gpu = Gpu::new(DeviceSpec::gtx_titan());
    run_device(
        &gpu,
        &data,
        &labels,
        &SessionConfig::native(EngineKind::Fused, 3),
    )
    .unwrap();
    fusedml_trace::disable();
    let events = fusedml_trace::take();
    let dropped = fusedml_trace::dropped_events();
    assert!(!events.is_empty(), "traced run recorded no events");

    // Layer coverage: simulator kernel launches, solver iterations, and
    // runtime session phases must all appear (the memory manager rides
    // along as a fourth).
    let categories: BTreeSet<&str> = events.iter().map(|e| e.cat.as_str()).collect();
    for layer in ["kernel", "solver", "session", "mem"] {
        assert!(categories.contains(layer), "missing layer '{layer}'");
    }

    // The export must survive a render/parse cycle bit-exactly.
    let doc = chrome_trace(&events);
    let text = doc.render();
    let back = Json::parse(&text).expect("export must parse");
    assert_eq!(back, doc, "render/parse round-trip changed the document");

    // Spot-check the Chrome layout on the parsed tree: kernel spans are
    // complete events on the device process, solver iteration spans are
    // on the host process, and every event references a named thread.
    let evs = back
        .field("traceEvents")
        .expect("traceEvents")
        .as_arr()
        .expect("array")
        .to_vec();
    let named_tids: BTreeSet<(u64, u64)> = evs
        .iter()
        .filter(|e| e.get("name").and_then(Json::as_str) == Some("thread_name"))
        .map(|e| {
            (
                e.field_u64("pid").expect("pid"),
                e.field_u64("tid").expect("tid"),
            )
        })
        .collect();

    let mut kernel_spans = 0usize;
    let mut solver_spans = 0usize;
    let mut session_spans = 0usize;
    for e in &evs {
        let ph = e.field_str("ph").expect("ph");
        if ph == "M" {
            continue;
        }
        let pid = e.field_u64("pid").expect("pid");
        let tid = e.field_u64("tid").expect("tid");
        assert!(
            named_tids.contains(&(pid, tid)),
            "event on unnamed thread {pid}/{tid}"
        );
        let cat = e.field_str("cat").expect("cat");
        match (cat, ph) {
            ("kernel", "X") => {
                assert_eq!(pid, DEVICE_PID, "kernel spans belong on the device process");
                assert!(e.field_f64("dur").expect("dur") > 0.0);
                kernel_spans += 1;
            }
            ("solver", "X") => {
                assert_eq!(pid, HOST_PID, "solver spans belong on the host process");
                solver_spans += 1;
            }
            ("session", "X") => {
                assert_eq!(pid, HOST_PID);
                session_spans += 1;
            }
            _ => {}
        }
    }
    assert!(kernel_spans > 0, "no kernel launch spans");
    assert!(solver_spans >= 3, "expected one span per CG iteration");
    // run_device + phase.upload + phase.solve.
    assert!(session_spans >= 3, "expected session phase spans");

    // The metrics summary agrees with the raw stream.
    let summary = metrics_summary(&events, dropped);
    assert_eq!(summary.field_u64("events").unwrap(), events.len() as u64);
    assert!(
        summary
            .field("sim_ms_by_track")
            .unwrap()
            .field_f64("device")
            .unwrap()
            > 0.0,
        "device track accumulated no simulated time"
    );
}
