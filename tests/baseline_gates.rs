//! Every committed baseline under `results/baselines/` against its gate
//! table: gated against itself it is clean, every rule names at least
//! one value in it (a rule that matches nothing gates nothing), and
//! pushing that value past its tolerance is reported at its path while a
//! change within tolerance passes.

use fusedml_bench::regress::{
    gate, Check, Json, Rule, Severity, BENCH_RULES, PLANS_RULES, SERVE_RULES, STREAM_RULES,
};

const TABLES: &[(&str, &[Rule])] = &[
    ("BENCH_fusion.json", BENCH_RULES),
    ("PLANS_fusion.json", PLANS_RULES),
    ("SERVE_fusion.json", SERVE_RULES),
    ("STREAM_fusion.json", STREAM_RULES),
];

fn join(path: &str, key: &str) -> String {
    if path.is_empty() {
        key.to_string()
    } else {
        format!("{path}.{key}")
    }
}

/// Replace the first value the rule segments `segs` name in `doc` by
/// `change(value)` and return its path as the gate reports it. An exact
/// rule on a subtree names the subtree's first leaf. `None` when the
/// rule names nothing.
fn doctor(
    segs: &[&str],
    exact: bool,
    doc: &mut Json,
    path: String,
    change: &dyn Fn(&Json) -> Json,
) -> Option<String> {
    let Some((&seg, rest)) = segs.split_first() else {
        if exact && matches!(doc, Json::Obj(_) | Json::Arr(_)) {
            return doctor(&["*"], exact, doc, path, change);
        }
        *doc = change(doc);
        return Some(path);
    };
    match doc {
        Json::Obj(m) if seg == "*" => m
            .iter_mut()
            .find_map(|(k, v)| doctor(rest, exact, v, join(&path, k), change)),
        Json::Arr(items) if seg == "*" => items.iter_mut().enumerate().find_map(|(i, v)| {
            let key = ["id", "name"]
                .iter()
                .find_map(|f| v.get(f)?.as_str())
                .map_or_else(|| i.to_string(), str::to_string);
            doctor(rest, exact, v, format!("{path}[{key}]"), change)
        }),
        Json::Obj(m) if rest.is_empty() && seg.contains('+') => {
            // A sum: move the whole change onto its first part.
            let parts: Vec<&str> = seg.split('+').collect();
            let sum = parts
                .iter()
                .map(|p| m.get(*p)?.as_f64())
                .sum::<Option<f64>>()?;
            let target = change(&Json::Num(sum)).as_f64()?;
            let first = m.get_mut(parts[0])?;
            *first = Json::Num(first.as_f64()? + target - sum);
            Some(join(&path, seg))
        }
        Json::Obj(m) => doctor(rest, exact, m.get_mut(seg)?, join(&path, seg), change),
        _ => None,
    }
}

/// A tolerance rule's value moved past its tolerance, or kept within it
/// (a change in the good direction when the tolerance is zero); any
/// other rule's value changed.
fn moved(check: Check, v: &Json, past: bool) -> Json {
    let x = || v.as_f64().expect("a tolerance rule names a number");
    Json::Num(match (check, past) {
        (Check::Lower(t), true) => x() * (1.0 + t) * 2.0 + 1.0,
        (Check::Lower(t), false) if t > 0.0 => x() * (1.0 + t / 2.0),
        (Check::Lower(_), false) => x() / 2.0,
        (Check::Higher(t), true) => x() / ((1.0 + t) * 2.0),
        (Check::Higher(t), false) if t > 0.0 => x() / (1.0 + t / 2.0),
        (Check::Higher(_), false) => x() * 2.0,
        _ => {
            return match v {
                Json::Num(x) => Json::Num(x + 1.0),
                Json::Str(s) => Json::Str(format!("{s}~")),
                Json::Bool(b) => Json::Bool(!b),
                _ => Json::Num(1.0),
            }
        }
    })
}

#[test]
fn every_committed_baseline_has_a_table_that_gates_it() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/results/baselines");
    let mut files: Vec<String> = std::fs::read_dir(dir)
        .expect("results/baselines must exist")
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    files.sort();
    let tabled: Vec<&str> = TABLES.iter().map(|(f, _)| *f).collect();
    assert_eq!(files, tabled, "every committed baseline needs a rule table");

    for (file, rules) in TABLES {
        let text = std::fs::read_to_string(format!("{dir}/{file}")).unwrap();
        let base = Json::parse(&text).unwrap();
        for exact in [false, true] {
            let v = gate(rules, &base, &base, exact);
            assert!(v.findings.is_empty(), "{file} vs itself:\n{}", v.render());
        }

        for rule in rules.iter() {
            let segs: Vec<&str> = rule.path.split('.').collect();
            let exact = rule.check == Check::Exact;
            let mut cand = base.clone();
            let path = doctor(&segs, exact, &mut cand, String::new(), &|v| {
                moved(rule.check, v, true)
            })
            .unwrap_or_else(|| panic!("{file}: rule {} names no value", rule.path));
            let v = gate(rules, &base, &cand, false);
            let want = if rule.check == Check::Note {
                Severity::Note
            } else {
                Severity::Regression
            };
            assert_eq!(
                v.at(&path),
                Some(want),
                "{file}: rule {} pushed at {path}:\n{}",
                rule.path,
                v.render()
            );
            assert_eq!(v.passed(), want != Severity::Regression);

            if let Check::Lower(_) | Check::Higher(_) = rule.check {
                let mut cand = base.clone();
                doctor(&segs, exact, &mut cand, String::new(), &|v| {
                    moved(rule.check, v, false)
                });
                let v = gate(rules, &base, &cand, false);
                assert!(
                    v.passed(),
                    "{file}: rule {} within tolerance at {path}:\n{}",
                    rule.path,
                    v.render()
                );
            }
        }
    }
}
