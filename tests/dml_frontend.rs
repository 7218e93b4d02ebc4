//! The DML frontend's pinned numbers: modeled time, launch counts,
//! evaluation counts and output bits of Listing 1 and the HITS script in
//! `FusedGpu` mode, and the Table-1 forms of Equation 1 as single fused
//! evaluations that match the host reference.
//!
//! Every case runs on a fresh one-worker GTX Titan, so the numbers do not
//! depend on the host's core count or on the order the cases run in.
//!
//! Beyond the pins: the cases whose behaviour the DAG lowering changed
//! (a scalar added to a product, a product over a second matrix, more
//! operands than one DAG binds, products over an empty matrix), typed
//! errors for `matrix()` sizes and for nesting past `parse`'s bound, and a
//! seeded fuzz loop over mutated scripts and random expressions.

use fusedml_gpu_sim::{DeviceSpec, Gpu};
use fusedml_matrix::gen::{dense_random, random_vector, uniform_sparse};
use fusedml_matrix::{reference, CsrMatrix, DenseMatrix};
use fusedml_script::parse;
use fusedml_script::{EngineMode, Interpreter, RunStats, Value, LISTING_1};

fn titan() -> Gpu {
    Gpu::with_host_threads(DeviceSpec::gtx_titan(), 1)
}

/// 64-bit FNV-1a over the little-endian bytes of each element's bits.
fn digest(v: &[f64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for x in v {
        for b in x.to_bits().to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn output(interp: &Interpreter, name: &str) -> Vec<f64> {
    match &interp.outputs()[name] {
        Value::Vector(v) => (**v).clone(),
        other => panic!("expected a vector for '{name}', got {other:?}"),
    }
}

/// Runs Listing 1 in `FusedGpu` mode on `bind`'s inputs.
fn listing1(bind: impl FnOnce(&mut Interpreter)) -> (RunStats, u64) {
    let gpu = titan();
    let mut interp = Interpreter::on_gpu(&gpu, EngineMode::FusedGpu);
    bind(&mut interp);
    interp.run(LISTING_1).expect("listing 1 runs");
    let w = output(&interp, "w");
    (interp.stats.clone(), digest(&w))
}

fn sparse_listing1(x: CsrMatrix, w_true: Vec<f64>) -> (RunStats, u64) {
    let labels = reference::csr_mv(&x, &w_true);
    listing1(|i| {
        i.bind_sparse("V", x);
        i.bind_vector("y", labels);
    })
}

#[test]
fn listing1_on_the_listing_problem_is_pinned() {
    let (stats, d) = sparse_listing1(uniform_sparse(400, 60, 0.15, 7), random_vector(60, 8));
    assert_eq!(stats.sim_ms, 0.5509700000000001, "{stats:?}");
    assert_eq!(stats.launches, 59, "{stats:?}");
    assert_eq!(stats.fused_evals, 15, "{stats:?}");
    assert_eq!(stats.matmul_evals, 0, "{stats:?}");
    assert_eq!(d, 0x7b4c_ba9e_eaa4_8e9f);
}

#[test]
fn listing1_on_a_larger_sparse_matrix_is_pinned() {
    let (stats, d) = sparse_listing1(uniform_sparse(5000, 400, 0.02, 9), random_vector(400, 8));
    assert_eq!(stats.sim_ms, 0.4811022222222222, "{stats:?}");
    assert_eq!(stats.launches, 51, "{stats:?}");
    assert_eq!(stats.fused_evals, 13, "{stats:?}");
    assert_eq!(stats.matmul_evals, 0, "{stats:?}");
    assert_eq!(d, 0x10a9_46e2_4e91_0d63);
}

#[test]
fn listing1_on_dense_input_is_pinned() {
    let x = dense_random(300, 28, 12);
    let labels = reference::dense_mv(&x, &random_vector(28, 13));
    let (stats, d) = listing1(|i| {
        i.bind_dense("V", x);
        i.bind_vector("y", labels);
    });
    assert_eq!(stats.sim_ms, 0.8472255555555555, "{stats:?}");
    assert_eq!(stats.launches, 48, "{stats:?}");
    // Which evaluations count as fused depends on the plan the dense
    // `-(t(V) %*% y)` gets; their total does not.
    assert_eq!(stats.fused_evals + stats.matmul_evals, 12, "{stats:?}");
    assert_eq!(d, 0x3d47_3c1c_5601_7352);
}

#[test]
fn the_hits_script_is_pinned() {
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
    let gpu = titan();
    let mut interp = Interpreter::on_gpu(&gpu, EngineMode::FusedGpu);
    interp.bind_sparse("A", uniform_sparse(200, 200, 0.05, 11));
    interp.bind_vector("a0", vec![1.0 / (200f64).sqrt(); 200]);
    interp.run(src).unwrap();
    let stats = &interp.stats;
    assert_eq!(stats.sim_ms, 0.33197777777777776, "{stats:?}");
    assert_eq!(stats.launches, 30, "{stats:?}");
    assert_eq!(stats.fused_evals, 10, "{stats:?}");
    assert_eq!(stats.matmul_evals, 0, "{stats:?}");
    assert_eq!(
        digest(&output(&interp, "authorities")),
        0x7314_4fde_cada_55a0
    );
}

/// Runs `w = <expr>` over a sparse 40×12 `X` (plus `y`, `z` of length 12,
/// `v`, `r` of length 40 and scalars `a`, `b`) on `interp`.
fn run_form(interp: &mut Interpreter, expr: &str) -> Vec<f64> {
    interp.bind_sparse("X", uniform_sparse(40, 12, 0.3, 31));
    interp.bind_vector("y", random_vector(12, 32));
    interp.bind_vector("z", random_vector(12, 33));
    interp.bind_vector("v", random_vector(40, 34));
    interp.bind_vector("r", random_vector(40, 35));
    let src = format!(
        "X = read(\"X\"); y = read(\"y\"); z = read(\"z\"); v = read(\"v\"); r = read(\"r\")\n\
         a = 1.5; b = -0.25\n\
         w = {expr}\n\
         write(w, \"w\")"
    );
    interp.run(&src).unwrap_or_else(|e| panic!("`{expr}`: {e}"));
    output(interp, "w")
}

#[test]
fn every_table1_form_is_one_fused_evaluation() {
    for expr in [
        "3 * (t(X) %*% r)",
        "t(X) %*% (X %*% y)",
        "t(X) %*% (v * (X %*% y))",
        "t(X) %*% (X %*% y) + b * z",
        "a * (t(X) %*% (v * (X %*% y))) + b * z",
        "-(t(X) %*% r)",
        "t(X) %*% (X %*% y) - b * z",
        "b * z + t(X) %*% (X %*% y)",
    ] {
        let w_host = run_form(&mut Interpreter::host_only(), expr);
        let gpu = titan();
        let mut fused = Interpreter::on_gpu(&gpu, EngineMode::FusedGpu);
        let w = run_form(&mut fused, expr);
        let stats = &fused.stats;
        assert_eq!(stats.fused_evals, 1, "`{expr}`: {stats:?}");
        assert_eq!(stats.matmul_evals, 0, "`{expr}`: {stats:?}");
        assert_eq!(stats.launches, 2, "`{expr}`: {stats:?}");
        let err = reference::rel_l2_error(&w, &w_host);
        assert!(err < 1e-12, "`{expr}`: {err:e} from the host reference");
    }
}

/// Runs `w = <expr>` over sparse 40×12 matrices `X` and `B` and vectors
/// `y`, `c` of length 12.
fn run_pair(interp: &mut Interpreter, expr: &str) -> Vec<f64> {
    interp.bind_sparse("X", uniform_sparse(40, 12, 0.3, 31));
    interp.bind_sparse("B", uniform_sparse(40, 12, 0.3, 36));
    interp.bind_vector("y", random_vector(12, 32));
    interp.bind_vector("c", random_vector(12, 37));
    let src = format!(
        "X = read(\"X\"); B = read(\"B\"); y = read(\"y\"); c = read(\"c\")\n\
         w = {expr}\n\
         write(w, \"w\")"
    );
    interp.run(&src).unwrap_or_else(|e| panic!("`{expr}`: {e}"));
    output(interp, "w")
}

#[test]
fn a_scalar_added_to_a_product_runs_after_the_product() {
    let expr = "t(X) %*% (X %*% c) + 1";
    let w_host = run_pair(&mut Interpreter::host_only(), expr);
    let gpu = titan();
    let mut fused = Interpreter::on_gpu(&gpu, EngineMode::FusedGpu);
    let w = run_pair(&mut fused, expr);
    assert!(reference::rel_l2_error(&w, &w_host) < 1e-12);
    assert_eq!(fused.stats.fused_evals, 1, "{:?}", fused.stats);
}

#[test]
fn a_product_over_a_second_matrix_runs_as_its_own_dag() {
    let expr = "t(X) %*% (B %*% y)";
    let w_host = run_pair(&mut Interpreter::host_only(), expr);
    let gpu = titan();
    let mut fused = Interpreter::on_gpu(&gpu, EngineMode::FusedGpu);
    let w = run_pair(&mut fused, expr);
    assert!(reference::rel_l2_error(&w, &w_host) < 1e-12);
    let stats = &fused.stats;
    assert_eq!(stats.fused_evals, 0, "{stats:?}");
    assert_eq!(stats.matmul_evals, 2, "{stats:?}");
    assert_eq!(stats.launches, 3, "{stats:?}");
    // One SpMV and one XtY kernel, whichever plan groups them.
    assert_eq!(stats.sim_ms, 0.015584222222222223, "{stats:?}");
}

#[test]
fn matrix_sizes_that_no_vector_has_are_errors() {
    // 1e300 and 1e19 doubles exceed `isize::MAX` bytes on any host.
    for (rows, cols) in [
        ("1e300", "1"),
        ("1e19", "1"),
        ("-1", "1"),
        ("0/0", "1"),
        ("1/0", "1"),
        ("2.5", "1"),
        ("1", "2.5"),
    ] {
        let err = Interpreter::host_only()
            .run(&format!("z = matrix(0, rows={rows}, cols={cols})"))
            .unwrap_err();
        assert!(
            err.message.starts_with("matrix(): "),
            "rows={rows}, cols={cols}: {err}"
        );
    }
    let mut host = Interpreter::host_only();
    host.run("z = matrix(2, rows=3, cols=1)\nwrite(sum(z), \"s\")")
        .unwrap();
    assert_eq!(host.outputs()["s"].as_scalar(), Some(6.0));
}

#[test]
fn operands_past_one_dags_slots_run_as_their_own_dags() {
    // 255 scalar or vector operands: more than one DAG binds of either.
    for tail in [" * 2".repeat(254), " + y".repeat(254)] {
        let expr = format!("t(X) %*% (X %*% y){tail}");
        let w_host = run_form(&mut Interpreter::host_only(), &expr);
        let gpu = titan();
        let mut fused = Interpreter::on_gpu(&gpu, EngineMode::FusedGpu);
        let w = run_form(&mut fused, &expr);
        let err = reference::rel_l2_error(&w, &w_host);
        assert!(err < 1e-9, "`{}`: {err:e}", &tail[..4]);
        assert_eq!(fused.stats.fused_evals, 1, "{:?}", fused.stats);
    }
}

#[test]
fn products_over_an_empty_matrix_agree_across_modes() {
    let src = "X = read(\"X\"); u = read(\"u\"); y = read(\"y\")\n\
               w = t(X) %*% (u * (X %*% y)) + y\n\
               write(w, \"w\")";
    for (rows, cols) in [(0, 5), (5, 0)] {
        for dense in [false, true] {
            let run = |mut interp: Interpreter| {
                if dense {
                    interp.bind_dense("X", DenseMatrix::zeros(rows, cols));
                } else {
                    interp.bind_sparse("X", CsrMatrix::empty(rows, cols));
                }
                interp.bind_vector("u", random_vector(rows, 61));
                interp.bind_vector("y", random_vector(cols, 62));
                interp
                    .run(src)
                    .unwrap_or_else(|e| panic!("{rows}x{cols}: {e}"));
                let w = output(&interp, "w");
                (
                    w.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    interp.stats,
                )
            };
            let (w_host, _) = run(Interpreter::host_only());
            assert_eq!(w_host.len(), cols);
            for mode in [EngineMode::FusedGpu, EngineMode::BaselineGpu] {
                let gpu = titan();
                let (w, stats) = run(Interpreter::on_gpu(&gpu, mode));
                let case = format!("{rows}x{cols} dense={dense} {mode:?}");
                assert_eq!(w, w_host, "{case}");
                assert_eq!(stats.launches, 0, "{case}: {stats:?}");
            }
        }
    }
}

/// `w = -(-( … -(t(X) %*% r) … ))` with `n` negations.
fn nested_negations(n: usize) -> String {
    format!(
        "X = read(\"X\"); r = read(\"r\")\nw = {}t(X) %*% r{}\nwrite(w, \"w\")",
        "-(".repeat(n),
        ")".repeat(n)
    )
}

#[test]
fn parse_bounds_the_nesting_depth() {
    let deep = [
        format!("x = {}1{}", "(".repeat(5000), ")".repeat(5000)),
        format!("x = {}1", "-".repeat(100_000)),
        format!("x = 1{}", "+1".repeat(99_999)),
    ];
    for src in &deep {
        let err = parse(src).unwrap_err();
        assert!(err.message.contains("nested deeper"), "{err}");
        assert!(Interpreter::host_only().run(src).is_err());
    }
    assert!(parse(&nested_negations(256)).is_err());

    // 255 negations around a product fit, and evaluate in every engine.
    let src = nested_negations(255);
    let bind = |i: &mut Interpreter| {
        i.bind_sparse("X", uniform_sparse(40, 12, 0.3, 31));
        i.bind_vector("r", random_vector(40, 35));
    };
    let mut host = Interpreter::host_only();
    bind(&mut host);
    host.run(&src).unwrap();
    let gpu = titan();
    let mut fused = Interpreter::on_gpu(&gpu, EngineMode::FusedGpu);
    bind(&mut fused);
    fused.run(&src).unwrap();
    let (w_host, w) = (output(&host, "w"), output(&fused, "w"));
    assert!(reference::rel_l2_error(&w, &w_host) < 1e-12);
    assert_eq!(fused.stats.fused_evals, 1, "{:?}", fused.stats);
}

/// SplitMix64, as in `dag_fusion_properties.rs`.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<'a>(&mut self, xs: &[&'a str]) -> &'a str {
        xs[self.below(xs.len())]
    }
}

const HITS: &str = r#"
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

/// A script's tokens, which rejoin space-separated into the same program:
/// comments dropped; strings, numbers, names and `%*%` kept whole.
fn tokens(src: &str) -> Vec<String> {
    let word = |c: char| c.is_alphanumeric() || c == '.' || c == '_';
    let mut out = Vec::new();
    for line in src.lines() {
        let mut chars = line.chars().peekable();
        while let Some(c) = chars.next() {
            if c == '#' {
                break;
            }
            if c.is_whitespace() {
                continue;
            }
            let mut t = c.to_string();
            if word(c) {
                while let Some(d) = chars.next_if(|&d| word(d)) {
                    t.push(d);
                }
            } else if c == '"' {
                for d in chars.by_ref() {
                    t.push(d);
                    if d == '"' {
                        break;
                    }
                }
            } else if c == '%' {
                t.extend(chars.by_ref().take(2));
            } else if let Some(d) = chars.next_if_eq(&'=') {
                t.push(d);
            }
            out.push(t);
        }
    }
    out
}

/// One to three token deletions, duplications, swaps or replacements.
fn mutate(tokens: &[String], rng: &mut Rng) -> String {
    const VOCAB: &[&str] = &[
        "(", ")", "{", "}", ";", ",", "=", "-", "+", "*", "/", "^", "%*%", "!", "<", "==", "&",
        "t", "sum", "matrix", "read", "write", "while", "if", "else", "0", "1", "2.5", "1e300",
        "\"V\"", "V", "y", "p", "q", "A", "a", "i",
    ];
    let mut t = tokens.to_vec();
    for _ in 0..1 + rng.below(3) {
        if t.is_empty() {
            break;
        }
        let i = rng.below(t.len());
        match rng.below(4) {
            0 => {
                t.remove(i);
            }
            1 => t.insert(i, t[i].clone()),
            2 => {
                let j = rng.below(t.len());
                t.swap(i, j);
            }
            _ => t[i] = rng.pick(VOCAB).to_string(),
        }
    }
    t.join(" ")
}

#[derive(Clone, Copy)]
enum Kind {
    Scalar,
    /// A vector of length 5, the matrices' column count.
    Cols,
    /// A vector of length 12, their row count.
    Rows,
}

/// A random expression of the `kind` asked for, at most `depth` (≤ 4)
/// operators deep; one operand in twelve has a random kind instead, so
/// that some expressions misfit.
fn expression(rng: &mut Rng, kind: Kind, depth: usize) -> String {
    let kind = match rng.below(12) {
        0 => [Kind::Scalar, Kind::Cols, Kind::Rows][rng.below(3)],
        _ => kind,
    };
    // Leaves grow likelier with depth; the top is never one.
    if depth == 0 || rng.below(5) < 4 - depth {
        let names: &[&str] = match kind {
            Kind::Scalar => &["a", "b", "2", "0.5"],
            Kind::Cols => &["y", "z"],
            Kind::Rows => &["u", "q"],
        };
        return rng.pick(names).to_string();
    }
    let d = depth - 1;
    let (l, op, r) = match (kind, rng.below(7)) {
        (Kind::Scalar, 0..=2) => {
            let k = [Kind::Cols, Kind::Rows][rng.below(2)];
            let p = expression(rng, k, d);
            (format!("t({p})"), "%*%", expression(rng, k, d))
        }
        (Kind::Scalar, _) => (
            expression(rng, kind, d),
            rng.pick(&["+", "-", "*"]),
            expression(rng, kind, d),
        ),
        // Through the 0×5 `E` or the 5×0 `F`: products over no elements.
        (Kind::Cols, 0) => {
            let (outer, inner) = [("t(E)", "E"), ("F", "t(F)")][rng.below(2)];
            let y = expression(rng, Kind::Cols, d);
            (outer.to_string(), "%*%", format!("{inner} %*% ({y})"))
        }
        (Kind::Cols, 1..=2) => (
            rng.pick(&["t(X)", "t(B)"]).to_string(),
            "%*%",
            expression(rng, Kind::Rows, d),
        ),
        (Kind::Rows, 0) => (
            rng.pick(&["X", "B"]).to_string(),
            "%*%",
            expression(rng, Kind::Cols, d),
        ),
        (Kind::Rows, 1..=2) => (
            rng.pick(&["S", "t(S)"]).to_string(),
            "%*%",
            expression(rng, Kind::Rows, d),
        ),
        (_, 3) => (
            expression(rng, kind, d),
            rng.pick(&["+", "-", "*"]),
            expression(rng, kind, d),
        ),
        (_, 4) => (
            expression(rng, Kind::Scalar, d),
            "*",
            expression(rng, kind, d),
        ),
        (_, 5) => (
            expression(rng, kind, d),
            rng.pick(&["+", "-"]),
            expression(rng, Kind::Scalar, d),
        ),
        _ => return format!("-({})", expression(rng, kind, d)),
    };
    format!("({l}) {op} ({r})")
}

fn numbers(v: &Value) -> Option<Vec<f64>> {
    match v {
        Value::Scalar(s) => Some(vec![*s]),
        Value::Vector(v) => Some(v.to_vec()),
        _ => None,
    }
}

#[test]
fn the_dml_frontend_survives_mutated_scripts_and_agrees_with_the_host() {
    const MUTATIONS: usize = 10_000;
    const EXPRESSIONS: usize = 50_000;
    let gpu = titan();
    let mut rng = Rng(0x5eed_d31f);

    // (a) Token-level mutations of Listing 1 and HITS: every run returns
    // `Ok` or a typed error, never a panic.
    let bind = |i: &mut Interpreter| {
        i.max_statements = 200;
        i.bind_sparse("V", uniform_sparse(30, 8, 0.3, 41));
        i.bind_vector("y", random_vector(30, 42));
        i.bind_sparse("A", uniform_sparse(20, 20, 0.2, 43));
        i.bind_vector("a0", random_vector(20, 44));
    };
    let scripts = [tokens(LISTING_1), tokens(HITS)];
    let mut panicked = Vec::new();
    for case in 0..MUTATIONS {
        let src = mutate(&scripts[case % 2], &mut rng);
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = parse(&src);
            let mut host = Interpreter::host_only();
            bind(&mut host);
            let _ = host.run(&src);
            let mut fused = Interpreter::on_gpu(&gpu, EngineMode::FusedGpu);
            bind(&mut fused);
            let _ = fused.run(&src);
        }));
        if run.is_err() {
            panicked.push(src);
        }
    }
    assert!(panicked.is_empty(), "panicked on {panicked:#?}");

    // (b) Random expressions over a 12×5 sparse `X`, a 12×5 dense `B`, a
    // 12×12 sparse `S`, a 0×5 sparse `E` and a 5×0 dense `F`: both engines
    // succeed and agree, or both fail. The error is relative, with the norm
    // floored at 1 so that an exact cancellation on the host compares
    // absolutely.
    let bind = |i: &mut Interpreter| {
        i.bind_sparse("X", uniform_sparse(12, 5, 0.5, 51));
        i.bind_dense("B", dense_random(12, 5, 52));
        i.bind_sparse("S", uniform_sparse(12, 12, 0.4, 53));
        i.bind_sparse("E", CsrMatrix::empty(0, 5));
        i.bind_dense("F", DenseMatrix::zeros(5, 0));
        i.bind_vector("y", random_vector(5, 54));
        i.bind_vector("z", random_vector(5, 55));
        i.bind_vector("u", random_vector(12, 56));
        i.bind_vector("q", random_vector(12, 57));
    };
    let (mut agreed, mut fused_evals) = (0, 0);
    for _ in 0..EXPRESSIONS {
        let kind = [Kind::Scalar, Kind::Cols, Kind::Rows][rng.below(3)];
        let expr = expression(&mut rng, kind, 4);
        let src = format!(
            "X = read(\"X\"); B = read(\"B\"); S = read(\"S\"); E = read(\"E\"); F = read(\"F\")\n\
             y = read(\"y\"); z = read(\"z\"); u = read(\"u\"); q = read(\"q\"); a = 0.75; b = -1.25\n\
             w = {expr}\n\
             write(w, \"w\")"
        );
        let mut host = Interpreter::host_only();
        bind(&mut host);
        let mut fused = Interpreter::on_gpu(&gpu, EngineMode::FusedGpu);
        bind(&mut fused);
        match (host.run(&src), fused.run(&src)) {
            (Ok(()), Ok(())) => {
                let want = numbers(&host.outputs()["w"]).expect("a number");
                let got = numbers(&fused.outputs()["w"]).expect("a number");
                assert_eq!(got.len(), want.len(), "`{expr}`");
                let diff: f64 = got.iter().zip(&want).map(|(g, w)| (g - w) * (g - w)).sum();
                let norm: f64 = want.iter().map(|w| w * w).sum();
                assert!(
                    diff.sqrt() <= 1e-9 * norm.sqrt().max(1.0),
                    "`{expr}`: {got:?} vs host {want:?}"
                );
                agreed += 1;
                fused_evals += fused.stats.fused_evals;
            }
            (Err(_), Err(_)) => {}
            (host, fused) => panic!("`{expr}`: host {host:?}, FusedGpu {fused:?}"),
        }
    }
    assert!(agreed > EXPRESSIONS / 3, "only {agreed} expressions ran");
    assert!(
        fused_evals > EXPRESSIONS / 20,
        "only {fused_evals} fused evaluations"
    );
}
