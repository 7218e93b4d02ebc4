//! End-to-end: the paper's Listing 1 runs verbatim through the script
//! frontend, produces the same weights as the hand-written LR-CG, and the
//! fused engine transparently dispatches one fused kernel per iteration.

use fusedml_gpu_sim::{DeviceSpec, FaultProfile, Gpu};
use fusedml_matrix::gen::{random_vector, uniform_sparse};
use fusedml_matrix::reference;
use fusedml_ml::{try_lr_cg, CpuBackend, LrCgOptions};
use fusedml_script::{EngineMode, Interpreter, Value, LISTING_1};

fn problem() -> (fusedml_matrix::CsrMatrix, Vec<f64>) {
    let x = uniform_sparse(400, 60, 0.15, 7);
    let w_true = random_vector(60, 8);
    let labels = reference::csr_mv(&x, &w_true);
    (x, labels)
}

fn script_weights(
    interp: &mut Interpreter,
    x: &fusedml_matrix::CsrMatrix,
    labels: &[f64],
) -> Vec<f64> {
    interp.bind_sparse("V", x.clone());
    interp.bind_vector("y", labels.to_vec());
    interp.run(LISTING_1).expect("listing 1 runs");
    match &interp.outputs()["w"] {
        Value::Vector(w) => (**w).clone(),
        other => panic!("expected vector output, got {other:?}"),
    }
}

#[test]
fn listing1_host_matches_handwritten_lr_cg() {
    let (x, labels) = problem();
    let mut interp = Interpreter::host_only();
    let w_script = script_weights(&mut interp, &x, &labels);

    let mut backend = CpuBackend::new_sparse(x.clone());
    let opts = LrCgOptions {
        eps: 0.001,
        tolerance: 1e-6,
        max_iterations: 100,
    };
    let r = try_lr_cg(&mut backend, &labels, opts).unwrap();
    assert!(
        reference::rel_l2_error(&w_script, &r.weights) < 1e-8,
        "script vs handwritten: {}",
        reference::rel_l2_error(&w_script, &r.weights)
    );
}

#[test]
fn listing1_fused_gpu_matches_host() {
    let (x, labels) = problem();
    let gpu = Gpu::with_host_threads(DeviceSpec::gtx_titan(), 1);

    let mut host = Interpreter::host_only();
    let w_host = script_weights(&mut host, &x, &labels);

    let mut fused = Interpreter::on_gpu(&gpu, EngineMode::FusedGpu);
    let w_fused = script_weights(&mut fused, &x, &labels);

    assert!(reference::rel_l2_error(&w_fused, &w_host) < 1e-7);
    // One fused evaluation per CG iteration plus the init t(V)%*%y.
    assert!(fused.stats.fused_evals >= 10, "{:?}", fused.stats);
    assert!(fused.stats.sim_ms > 0.0);
}

#[test]
fn fused_engine_beats_baseline_engine() {
    let (x, labels) = {
        let x = uniform_sparse(5000, 400, 0.02, 9);
        let w_true = random_vector(400, 10);
        let labels = reference::csr_mv(&x, &w_true);
        (x, labels)
    };
    let gpu = Gpu::with_host_threads(DeviceSpec::gtx_titan(), 1);

    let mut fused = Interpreter::on_gpu(&gpu, EngineMode::FusedGpu);
    let w_fused = script_weights(&mut fused, &x, &labels);

    gpu.flush_caches();
    let mut base = Interpreter::on_gpu(&gpu, EngineMode::BaselineGpu);
    let w_base = script_weights(&mut base, &x, &labels);

    assert!(reference::rel_l2_error(&w_fused, &w_base) < 1e-7);
    assert_eq!(base.stats.fused_evals, 0, "baseline must not fuse");
    assert!(fused.stats.fused_evals > 0);
    assert!(
        fused.stats.sim_ms < base.stats.sim_ms,
        "fused {} ms vs baseline {} ms",
        fused.stats.sim_ms,
        base.stats.sim_ms
    );
    assert!(fused.stats.launches < base.stats.launches);
}

#[test]
fn hits_script_runs_on_all_engines() {
    // HITS as a DML script: the X^T(Xy) instantiation.
    let src = r#"
        A = read("A");
        a = read("a0");
        i = 0;
        while (i < 10) {
            a = t(A) %*% (A %*% a);
            norm = sum(a * a) ^ 0.5;
            a = a / norm;
            i = i + 1;
        }
        write(a, "authorities");
    "#;
    let graph = uniform_sparse(200, 200, 0.05, 11);
    let a0 = vec![1.0 / (200f64).sqrt(); 200];
    let gpu = Gpu::with_host_threads(DeviceSpec::gtx_titan(), 1);

    let run = |interp: &mut Interpreter| -> Vec<f64> {
        interp.bind_sparse("A", graph.clone());
        interp.bind_vector("a0", a0.clone());
        interp.run(src).unwrap();
        match &interp.outputs()["authorities"] {
            Value::Vector(v) => (**v).clone(),
            other => panic!("{other:?}"),
        }
    };

    let mut host = Interpreter::host_only();
    let w_host = run(&mut host);
    let mut fused = Interpreter::on_gpu(&gpu, EngineMode::FusedGpu);
    let w_fused = run(&mut fused);
    let mut base = Interpreter::on_gpu(&gpu, EngineMode::BaselineGpu);
    let w_base = run(&mut base);

    assert!(reference::rel_l2_error(&w_fused, &w_host) < 1e-8);
    assert!(reference::rel_l2_error(&w_base, &w_host) < 1e-8);
    assert_eq!(fused.stats.fused_evals, 10);
    // Unit norm.
    let n: f64 = w_host.iter().map(|v| v * v).sum();
    assert!((n - 1.0).abs() < 1e-9);
}

#[test]
fn dense_matrices_work_through_scripts() {
    let x = fusedml_matrix::gen::dense_random(300, 28, 12);
    let w_true = random_vector(28, 13);
    let labels = reference::dense_mv(&x, &w_true);
    let gpu = Gpu::with_host_threads(DeviceSpec::gtx_titan(), 1);

    let mut fused = Interpreter::on_gpu(&gpu, EngineMode::FusedGpu);
    fused.bind_dense("V", x.clone());
    fused.bind_vector("y", labels.clone());
    fused.run(LISTING_1).unwrap();
    let Value::Vector(w) = &fused.outputs()["w"] else {
        panic!()
    };
    assert!(
        reference::rel_l2_error(w, &w_true) < 1e-3,
        "err {}",
        reference::rel_l2_error(w, &w_true)
    );
    assert!(fused.stats.fused_evals > 0);
}

#[test]
fn runaway_loop_is_stopped() {
    let mut interp = Interpreter::host_only();
    interp.max_statements = 1000;
    let err = interp
        .run("i = 0\nwhile (1 > 0) { i = i + 1 }")
        .unwrap_err();
    assert!(err.message.contains("budget"));
}

#[test]
fn a_device_fault_is_a_script_error() {
    // Listing 1's first fused evaluation launches a kernel; its first
    // device step of all uploads `V`.
    let (x, labels) = problem();
    for (faults, device_error) in [
        (
            FaultProfile::seeded(1).with_kernel_fault_rate(1.0),
            "injected transient fault",
        ),
        (
            FaultProfile::seeded(1).with_alloc_fault_rate(1.0),
            "failed (injected fault",
        ),
    ] {
        let gpu = Gpu::with_host_threads(DeviceSpec::gtx_titan(), 1).with_fault_profile(faults);
        let mut interp = Interpreter::on_gpu(&gpu, EngineMode::FusedGpu);
        interp.bind_sparse("V", x.clone());
        interp.bind_vector("y", labels.clone());
        let err = interp.run(LISTING_1).unwrap_err();
        assert!(err.message.starts_with("device error: "), "{err}");
        assert!(err.message.contains(device_error), "{err}");
        assert!(err.line > 0, "{err}");
    }
}

#[test]
fn type_errors_carry_line_numbers() {
    let mut interp = Interpreter::host_only();
    interp.bind_vector("y", vec![1.0, 2.0]);
    let err = interp.run("y = read(\"y\")\nz = y %*% 3").unwrap_err();
    assert_eq!(err.line, 2);
    assert!(err.message.contains("%*%"));
}
