//! CLI contract tests for `fusedml-bench`: the exit-code convention
//! shared with `repro` (0 = ok, 1 = regression or runtime failure,
//! 2 = unknown subcommand/flag) and the `plans` dump/check round-trip
//! behind the CI plan-regression gate.

use fusedml_bench::regress::Json;
use std::process::Command;

fn bench() -> Command {
    Command::new(env!("CARGO_BIN_EXE_fusedml-bench"))
}

fn tmp(name: &str) -> String {
    std::env::temp_dir()
        .join(format!("fusedml_bench_cli_{}_{name}", std::process::id()))
        .display()
        .to_string()
}

#[test]
fn unknown_subcommand_exits_2() {
    let out = bench()
        .arg("frobnicate")
        .output()
        .expect("bench binary must run");
    assert_eq!(
        out.status.code(),
        Some(2),
        "unknown subcommand must exit 2, got {:?}",
        out.status
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown subcommand 'frobnicate'"),
        "stderr should name the bad subcommand: {stderr}"
    );
    assert!(
        stderr.contains("usage:"),
        "stderr should show usage: {stderr}"
    );
}

#[test]
fn unknown_flag_exits_2() {
    for argv in [
        vec!["list", "--bogus"],
        vec!["plans", "--frobnicate"],
        vec!["compare", "--bogus", "a.json", "b.json"],
    ] {
        let out = bench().args(&argv).output().expect("bench binary must run");
        assert_eq!(
            out.status.code(),
            Some(2),
            "{argv:?} must exit 2, got {:?}",
            out.status
        );
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("unknown flag"),
            "{argv:?} stderr should name the bad flag"
        );
    }
}

#[test]
fn runtime_failures_exit_1_not_2() {
    // A missing report file is an I/O failure, not a usage error.
    let out = bench()
        .args(["compare", "/nonexistent/a.json", "/nonexistent/b.json"])
        .output()
        .expect("bench binary must run");
    assert_eq!(
        out.status.code(),
        Some(1),
        "missing input files must exit 1, got {:?}",
        out.status
    );

    // So is a missing golden for the plan gate.
    let out = bench()
        .args([
            "plans",
            "--quick",
            "--scale",
            "0.02",
            "--check",
            "/nonexistent/golden.json",
        ])
        .output()
        .expect("bench binary must run");
    assert_eq!(out.status.code(), Some(1));
}

#[test]
fn plans_gate_passes_against_its_own_dump_and_fails_on_drift() {
    let golden = tmp("golden.json");
    let out = bench()
        .args(["plans", "--quick", "--scale", "0.02", "--out", &golden])
        .output()
        .expect("bench binary must run");
    assert!(out.status.success(), "dump failed: {:?}", out.status);

    // Same config re-checked against the dump: clean gate.
    let out = bench()
        .args(["plans", "--quick", "--scale", "0.02", "--check", &golden])
        .output()
        .expect("bench binary must run");
    assert_eq!(out.status.code(), Some(0), "self-check must pass");
    assert!(String::from_utf8_lossy(&out.stderr).contains("plans match"));

    // A different seed changes the dataset (nnz), so the shapes — and
    // therefore the plans dump — drift, and the gate must fail.
    let out = bench()
        .args([
            "plans", "--quick", "--scale", "0.02", "--seed", "99", "--check", &golden,
        ])
        .output()
        .expect("bench binary must run");
    assert_eq!(out.status.code(), Some(1), "drift must exit 1");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("plan drift"),
        "stderr should list the drifting paths: {stderr}"
    );
    assert!(
        stderr.contains("regenerate the golden"),
        "stderr should say how to accept the change: {stderr}"
    );

    std::fs::remove_file(&golden).ok();
}

#[test]
fn cpu_bench_writes_schema_versioned_report() {
    let out_path = tmp("cpu.json");
    let out = bench()
        .args([
            "cpu",
            "--quick",
            "--scale",
            "0.02",
            "--repeats",
            "1",
            "--threads",
            "1,2",
            "--out",
            &out_path,
        ])
        .output()
        .expect("bench binary must run");
    assert_eq!(
        out.status.code(),
        Some(0),
        "cpu bench must pass its equivalence gate: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("active executor"),
        "stderr should report the dispatched executor: {stderr}"
    );
    assert!(
        stderr.contains("unfused") && stderr.contains("fused"),
        "stderr should show the fused-vs-unfused table: {stderr}"
    );

    let text = std::fs::read_to_string(&out_path).expect("report must be written");
    let report = fusedml_bench::regress::Json::parse(&text).expect("report must parse");
    assert_eq!(
        report.field_u64("schema_version").unwrap(),
        fusedml_bench::regress::CPU_SCHEMA_VERSION
    );
    assert_eq!(report.field_str("kind").unwrap(), "cpu-bench");
    assert_eq!(
        report.field("workloads").unwrap().as_arr().unwrap().len(),
        2,
        "one sparse and one dense workload"
    );

    std::fs::remove_file(&out_path).ok();
}

#[test]
fn cpu_bench_forced_scalar_reports_scalar_only() {
    let out_path = tmp("cpu_scalar.json");
    let out = bench()
        .args([
            "cpu",
            "--quick",
            "--scale",
            "0.02",
            "--repeats",
            "1",
            "--threads",
            "1",
            "--out",
            &out_path,
        ])
        .env("FUSEDML_FORCE_SCALAR", "1")
        .output()
        .expect("bench binary must run");
    assert_eq!(
        out.status.code(),
        Some(0),
        "forced-scalar cpu bench must pass: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let text = std::fs::read_to_string(&out_path).expect("report must be written");
    let report = fusedml_bench::regress::Json::parse(&text).expect("report must parse");
    let host = report.field("host").unwrap();
    assert_eq!(host.field_str("active_executor").unwrap(), "scalar");
    assert_eq!(
        host.field("forced_scalar").unwrap(),
        &fusedml_bench::regress::Json::Bool(true)
    );
    for wl in report.field("workloads").unwrap().as_arr().unwrap() {
        for leg in wl.field("fused").unwrap().as_arr().unwrap() {
            assert!(
                leg.field_str("executor").unwrap().starts_with("scalar"),
                "forced-scalar run must not time SIMD legs"
            );
        }
    }

    std::fs::remove_file(&out_path).ok();
}

#[test]
fn cpu_bench_zero_repeats_is_a_usage_error() {
    let out = bench()
        .args(["cpu", "--repeats", "0"])
        .output()
        .expect("bench binary must run");
    assert_eq!(
        out.status.code(),
        Some(2),
        "zero repeats is a usage error, got {:?}",
        out.status
    );
    assert!(String::from_utf8_lossy(&out.stderr).contains("--repeats"));
}

#[test]
fn plans_dump_is_byte_deterministic() {
    let run = || {
        let out = bench()
            .args(["plans", "--quick", "--scale", "0.02"])
            .output()
            .expect("bench binary must run");
        assert!(out.status.success());
        out.stdout
    };
    assert_eq!(
        run(),
        run(),
        "two dumps of one config must be byte-identical"
    );
}

/// Rewrite the JSON report at `path` in place.
fn doctor(path: &str, edit: impl FnOnce(&mut std::collections::BTreeMap<String, Json>)) {
    let text = std::fs::read_to_string(path).expect("report must be written");
    let mut doc = Json::parse(&text).expect("report must parse");
    let Json::Obj(m) = &mut doc else {
        panic!("report is an object")
    };
    edit(m);
    std::fs::write(path, doc.render()).expect("doctored report must be written");
}

/// The first entry of the array `key` in a report object.
fn first_entry<'a>(
    m: &'a mut std::collections::BTreeMap<String, Json>,
    key: &str,
) -> &'a mut std::collections::BTreeMap<String, Json> {
    match m.get_mut(key) {
        Some(Json::Arr(items)) => match items.first_mut() {
            Some(Json::Obj(e)) => e,
            _ => panic!("{key} has no object entry"),
        },
        _ => panic!("{key} is not an array"),
    }
}

fn scale(field: &mut Json, by: f64) {
    *field = Json::num(field.as_f64().expect("a number") * by);
}

/// Run `argv` and assert its exit code and that stderr names each needle.
fn expect_exit(argv: &[&str], code: i32, needles: &[&str]) {
    let out = bench().args(argv).output().expect("bench binary must run");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(code), "{argv:?}: {stderr}");
    for needle in needles {
        assert!(
            stderr.contains(needle),
            "{argv:?} stderr lacks {needle:?}: {stderr}"
        );
    }
}

#[test]
fn stream_and_serve_gates_pass_on_their_own_output_and_fail_when_doctored() {
    let stream = tmp("stream.json");
    let stream_cmd = |flag: &'static str| {
        [
            "stream",
            "--quick",
            "--scale",
            "0.1",
            "--passes",
            "2",
            flag,
            stream.as_str(),
        ]
    };
    expect_exit(&stream_cmd("--out"), 0, &["wrote"]);
    expect_exit(
        &stream_cmd("--check"),
        0,
        &["stream metrics within tolerance"],
    );
    // A baseline twice as fast on one leg makes the fresh run a regression.
    doctor(&stream, |m| {
        let leg = first_entry(first_entry(m, "workloads"), "legs");
        scale(leg.get_mut("modeled_wall_ms").unwrap(), 0.5);
    });
    expect_exit(
        &stream_cmd("--check"),
        1,
        &["stream regression", "regenerate the baseline"],
    );

    let serve = tmp("serve.json");
    let serve_cmd = |flag: &'static str| ["serve", "--requests", "24", flag, serve.as_str()];
    expect_exit(&serve_cmd("--out"), 0, &["wrote"]);
    expect_exit(
        &serve_cmd("--check"),
        0,
        &["serve metrics within tolerance"],
    );
    doctor(&serve, |m| {
        let Some(Json::Obj(lat)) = m.get_mut("latency_ms") else {
            panic!("latency_ms is an object")
        };
        scale(lat.get_mut("p50").unwrap(), 0.5);
    });
    expect_exit(
        &serve_cmd("--check"),
        1,
        &["serve regression", "regenerate the baseline"],
    );

    std::fs::remove_file(&stream).ok();
    std::fs::remove_file(&serve).ok();
}

#[test]
fn compare_fails_on_a_doctored_report_and_a_fingerprint_mismatch() {
    let committed = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/baselines/BENCH_fusion.json"
    );
    expect_exit(&["compare", committed, committed], 0, &["baseline:"]);

    let slower = tmp("bench_slower.json");
    std::fs::copy(committed, &slower).unwrap();
    doctor(&slower, |m| {
        let Some(Json::Obj(fused)) = first_entry(m, "workloads").get_mut("fused") else {
            panic!("fused is an object")
        };
        scale(fused.get_mut("modeled_ms").unwrap(), 2.0);
    });
    let out = bench()
        .args(["compare", committed, &slower, "--ignore-wall"])
        .output()
        .expect("bench binary must run");
    assert_eq!(
        out.status.code(),
        Some(1),
        "a 2x modeled slowdown must fail"
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("REGRESSION"));

    let other = tmp("bench_other_seed.json");
    std::fs::copy(committed, &other).unwrap();
    doctor(&other, |m| {
        let Some(Json::Obj(fp)) = m.get_mut("fingerprint") else {
            panic!("fingerprint is an object")
        };
        fp.insert("seed".into(), Json::num(7.0));
    });
    let out = bench()
        .args(["compare", committed, &other, "--ignore-wall"])
        .output()
        .expect("bench binary must run");
    assert_eq!(
        out.status.code(),
        Some(1),
        "a fingerprint mismatch is a regression"
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("fingerprint.seed"));

    std::fs::remove_file(&slower).ok();
    std::fs::remove_file(&other).ok();
}

#[test]
fn removed_tolerance_flags_are_unknown() {
    let compare = ["compare", "a.json", "b.json"];
    let cases = [
        (&compare[..], "--modeled-tol"),
        (&compare, "--counter-tol"),
        (&compare, "--speedup-tol"),
        (&compare, "--wall-tol"),
        (&["stream", "--quick"], "--wall-tol"),
        (&["stream", "--quick"], "--counter-tol"),
        (&["serve"], "--latency-tol"),
        (&["serve"], "--throughput-tol"),
    ];
    for (cmd, flag) in cases {
        let argv: Vec<&str> = cmd.iter().copied().chain([flag, "0"]).collect();
        expect_exit(&argv, 2, &["unknown flag"]);
    }
}
