//! The one regression gate behind `fusedml-bench compare` and the
//! `plans`, `stream` and `serve` `--check` paths.
//!
//! Every report is a [`Json`] tree, so a gate is a table of [`Rule`]s
//! and one walk that applies them to a baseline and a candidate. A
//! rule's path is dotted:
//!
//! * `*` matches any object key or array element;
//! * array elements are addressed by their `id` or `name` string field,
//!   or by index when they have neither, so rows match across reports by
//!   identity, not position;
//! * a last segment `a+b` gates the sum of the sibling values `a` and
//!   `b`.
//!
//! The semantics are the same in every table:
//!
//! * a regression is `worse > better * (1 + tol)`, so a lower-is-better
//!   value rising from 0 fails at any tolerance;
//! * a gated value missing from either report fails, and so does a
//!   keyed entry missing from the candidate;
//! * an entry new in the candidate is a note, or a regression under an
//!   exact rule or an exact gate;
//! * an exact rule on a subtree compares every value in it and the entry
//!   order of every array in it;
//! * a note rule reports a difference and never fails.
//!
//! Findings carry the concrete path, e.g.
//! `workloads[lr_cg/csr/6000x512].fused.modeled_ms`.

use super::json::Json;
use std::fmt;

/// How a rule judges the values its path names.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Check {
    /// Lower is better: fails when `cand > base * (1 + tol)`.
    Lower(f64),
    /// Higher is better: fails when `base > cand * (1 + tol)`.
    Higher(f64),
    /// Must be equal, presence included; on a subtree, every value in it.
    Exact,
    /// A difference is reported and never fails.
    Note,
}

/// One line of a gate table: a dotted path and the check on what it names.
#[derive(Debug, Clone, Copy)]
pub struct Rule {
    pub path: &'static str,
    pub check: Check,
}

const fn rule(path: &'static str, check: Check) -> Rule {
    Rule { path, check }
}

/// Modeled time and deterministic counters: tight, to absorb intended
/// cost-model tweaks without letting real regressions through.
const MODELED_TOL: f64 = 0.02;

/// Path of the host wall-clock rule in [`BENCH_RULES`], the rule
/// `compare --ignore-wall` drops: wall time only compares between two
/// reports from one host.
pub const BENCH_WALL: &str = "workloads.*.*.wall_ms";

/// `BENCH_fusion.json`, gated by `fusedml-bench compare`. The `*` after
/// a workload matches its `fused` and `baseline` variants. Each
/// variant's `host` block is never gated: it legitimately differs
/// between cache-on and cache-off runs of one commit, and CI's
/// bit-identity check compares such a pair.
pub const BENCH_RULES: &[Rule] = &[
    rule("schema_version", Check::Note),
    rule("fingerprint", Check::Exact),
    rule("workloads.*.speedup", Check::Higher(0.05)),
    rule("workloads.*.*.modeled_ms", Check::Lower(MODELED_TOL)),
    rule(
        "workloads.*.*.dram_read_bytes+dram_write_bytes",
        Check::Lower(MODELED_TOL),
    ),
    rule(
        "workloads.*.*.gld_transactions+gst_transactions",
        Check::Lower(MODELED_TOL),
    ),
    rule("workloads.*.*.global_atomic_ops", Check::Lower(MODELED_TOL)),
    rule("workloads.*.*.launches", Check::Lower(MODELED_TOL)),
    // Scheduler noise and CPU differences: loose.
    rule(BENCH_WALL, Check::Lower(3.0)),
];

/// `STREAM_fusion.json`, gated by `fusedml-bench stream --check`.
pub const STREAM_RULES: &[Rule] = &[
    rule("schema_version", Check::Exact),
    rule("fingerprint", Check::Exact),
    rule("passes", Check::Exact),
    rule(
        "workloads.*.legs.*.modeled_wall_ms",
        Check::Lower(MODELED_TOL),
    ),
    rule("workloads.*.legs.*.h2d_bytes", Check::Lower(MODELED_TOL)),
];

/// `SERVE_fusion.json`, gated by `fusedml-bench serve --check`. The
/// admission counters are deterministic, so they gate exactly.
pub const SERVE_RULES: &[Rule] = &[
    rule("schema_version", Check::Exact),
    rule("fingerprint", Check::Exact),
    rule("latency_ms.p50", Check::Lower(MODELED_TOL)),
    rule("latency_ms.p99", Check::Lower(MODELED_TOL)),
    rule("latency_ms.p999", Check::Lower(MODELED_TOL)),
    rule("throughput_rps", Check::Higher(MODELED_TOL)),
    rule("totals.completed", Check::Higher(0.0)),
    rule("totals.rejected_queue", Check::Lower(0.0)),
    rule("totals.rejected_quota", Check::Lower(0.0)),
    rule("totals.shed", Check::Lower(0.0)),
    rule("totals.failed", Check::Lower(0.0)),
    rule("totals.deadline_misses", Check::Lower(0.0)),
    rule("tenants.*.completed", Check::Higher(0.0)),
];

/// `PLANS_fusion.json`, gated by `fusedml-bench plans --check`: a
/// golden, so every value must match and every array keeps its order.
pub const PLANS_RULES: &[Rule] = &[rule("*", Check::Exact)];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Beyond tolerance in the bad direction: fails the gate.
    Regression,
    /// Beyond tolerance in the good direction: reported, never fails.
    Improvement,
    /// Reported, never fails: a note rule's difference, or an entry new
    /// in the candidate.
    Note,
}

/// One reported difference.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Concrete path of the value or entry.
    pub path: String,
    /// The baseline's value in brief, or `(missing)`.
    pub base: String,
    /// The candidate's value in brief, or `(missing)`.
    pub cand: String,
    pub severity: Severity,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {} -> {}", self.path, self.base, self.cand)?;
        match (self.base.parse::<f64>(), self.cand.parse::<f64>()) {
            (Ok(b), Ok(c)) if b != 0.0 => write!(f, " ({:+.1}%)", (c - b) / b * 100.0),
            _ => Ok(()),
        }
    }
}

/// Everything one gate run found.
#[derive(Debug, Clone, Default)]
pub struct Verdict {
    pub findings: Vec<Finding>,
    /// Values the rules compared.
    pub compared: usize,
}

impl Verdict {
    pub fn regressions(&self) -> impl Iterator<Item = &Finding> {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Regression)
    }

    pub fn passed(&self) -> bool {
        self.regressions().next().is_none()
    }

    /// The severity of the finding at `path`, if there is one.
    pub fn at(&self, path: &str) -> Option<Severity> {
        self.findings
            .iter()
            .find(|f| f.path == path)
            .map(|f| f.severity)
    }

    /// One line per finding plus a summary (what `compare` prints).
    pub fn render(&self) -> String {
        let count = |s| self.findings.iter().filter(|f| f.severity == s).count();
        let mut out = String::new();
        for f in &self.findings {
            let tag = match f.severity {
                Severity::Regression => "REGRESSION",
                Severity::Improvement => "improvement",
                Severity::Note => "note",
            };
            out.push_str(&format!("{tag:>11}  {f}\n"));
        }
        out.push_str(&format!(
            "{} values compared, {} regression(s), {} improvement(s), {} note(s)\n",
            self.compared,
            count(Severity::Regression),
            count(Severity::Improvement),
            count(Severity::Note)
        ));
        out
    }
}

/// Gate `cand` against `base` with `rules`. `exact` zeroes every
/// tolerance and makes an entry new in the candidate a regression.
pub fn gate(rules: &[Rule], base: &Json, cand: &Json, exact: bool) -> Verdict {
    let mut walk = Walk {
        exact,
        verdict: Verdict::default(),
    };
    for r in rules {
        let segs: Vec<&str> = r.path.split('.').collect();
        walk.visit(r.check, &segs, String::new(), base, cand);
    }
    walk.verdict
}

struct Walk {
    exact: bool,
    verdict: Verdict,
}

impl Walk {
    fn visit(&mut self, check: Check, segs: &[&str], path: String, b: &Json, c: &Json) {
        let Some((&seg, rest)) = segs.split_first() else {
            return self.leaf(check, path, b, c);
        };
        if seg == "*" {
            let (bs, cs) = (entries(&path, b), entries(&path, c));
            for (p, bv) in &bs {
                let cv = cs.iter().find(|(q, _)| q == p).map(|(_, v)| *v);
                self.pair(check, rest, p.clone(), Some(*bv), cv);
            }
            for (p, cv) in &cs {
                if !bs.iter().any(|(q, _)| q == p) && selects(rest, cv) {
                    let severity = match check {
                        Check::Exact => Severity::Regression,
                        Check::Lower(_) | Check::Higher(_) if self.exact => Severity::Regression,
                        _ => Severity::Note,
                    };
                    self.push(p.clone(), MISSING.into(), brief(cv), severity);
                }
            }
            if check == Check::Exact && b.as_arr().is_some() && c.as_arr().is_some() {
                let order = |es: &[(String, &Json)]| -> String {
                    es.iter().map(|(p, _)| &p[path.len()..]).collect()
                };
                let (bo, co) = (order(&bs), order(&cs));
                if bo != co {
                    self.push(path, bo, co, Severity::Regression);
                }
            }
        } else if rest.is_empty() && seg.contains('+') {
            let sum = |j: &Json| {
                seg.split('+')
                    .map(|k| j.get(k)?.as_f64())
                    .sum::<Option<f64>>()
                    .map(Json::Num)
            };
            let (bs, cs) = (sum(b), sum(c));
            self.pair(check, rest, join(&path, seg), bs.as_ref(), cs.as_ref());
        } else {
            self.pair(check, rest, join(&path, seg), b.get(seg), c.get(seg));
        }
    }

    /// Descend into a value that may be absent on one side. A one-sided
    /// value only counts when the rest of the rule names something in it;
    /// then it cannot be compared, which fails unless the rule is a note.
    fn pair(
        &mut self,
        check: Check,
        rest: &[&str],
        path: String,
        b: Option<&Json>,
        c: Option<&Json>,
    ) {
        let severity = if check == Check::Note {
            Severity::Note
        } else {
            Severity::Regression
        };
        match (b, c) {
            (Some(b), Some(c)) => self.visit(check, rest, path, b, c),
            (Some(b), None) if selects(rest, b) => {
                self.push(path, brief(b), MISSING.into(), severity)
            }
            (None, Some(c)) if selects(rest, c) => {
                self.push(path, MISSING.into(), brief(c), severity)
            }
            _ => {}
        }
    }

    fn leaf(&mut self, check: Check, path: String, b: &Json, c: &Json) {
        let container = |j: &Json| matches!(j, Json::Obj(_) | Json::Arr(_));
        if check == Check::Exact && container(b) && container(c) {
            return self.visit(check, &["*"], path, b, c);
        }
        self.verdict.compared += 1;
        let tol = |t: f64| if self.exact { 0.0 } else { t };
        let severity = match (check, b.as_f64(), c.as_f64()) {
            (Check::Lower(t), Some(x), Some(y)) => judge(y, x, tol(t)),
            (Check::Higher(t), Some(x), Some(y)) => judge(x, y, tol(t)),
            _ if b == c => None,
            (Check::Note, ..) => Some(Severity::Note),
            _ => Some(Severity::Regression),
        };
        if let Some(s) = severity {
            self.push(path, brief(b), brief(c), s);
        }
    }

    /// Several rules can reach one missing entry; report it once.
    fn push(&mut self, path: String, base: String, cand: String, severity: Severity) {
        if self.verdict.findings.iter().all(|f| f.path != path) {
            self.verdict.findings.push(Finding {
                path,
                base,
                cand,
                severity,
            });
        }
    }
}

/// `up` is the side whose growth is bad, `down` the other.
fn judge(up: f64, down: f64, tol: f64) -> Option<Severity> {
    if up > down * (1.0 + tol) {
        Some(Severity::Regression)
    } else if down > up * (1.0 + tol) {
        Some(Severity::Improvement)
    } else {
        None
    }
}

/// Whether the rule segments `segs` name at least one value in `j`.
fn selects(segs: &[&str], j: &Json) -> bool {
    match segs.split_first() {
        None => true,
        Some((&"*", rest)) => entries("", j).iter().any(|(_, v)| selects(rest, v)),
        Some((seg, [])) if seg.contains('+') => seg.split('+').any(|k| j.get(k).is_some()),
        Some((seg, rest)) => j.get(seg).is_some_and(|v| selects(rest, v)),
    }
}

/// The children of an object or array with their concrete paths.
fn entries<'a>(path: &str, j: &'a Json) -> Vec<(String, &'a Json)> {
    match j {
        Json::Obj(m) => m.iter().map(|(k, v)| (join(path, k), v)).collect(),
        Json::Arr(items) => items
            .iter()
            .enumerate()
            .map(|(i, v)| {
                let key = ["id", "name"]
                    .iter()
                    .find_map(|f| v.get(f)?.as_str())
                    .map_or_else(|| i.to_string(), str::to_string);
                (format!("{path}[{key}]"), v)
            })
            .collect(),
        _ => Vec::new(),
    }
}

fn join(path: &str, key: &str) -> String {
    if path.is_empty() {
        key.to_string()
    } else {
        format!("{path}.{key}")
    }
}

const MISSING: &str = "(missing)";

fn brief(j: &Json) -> String {
    match j {
        Json::Arr(items) => format!("[{} entries]", items.len()),
        Json::Obj(_) => "{...}".to_string(),
        _ => j.render().trim_end().to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regress::report::{
        BenchReport, ConfigFingerprint, HostPerf, VariantMetrics, WorkloadResult, SCHEMA_VERSION,
    };
    use fusedml_gpu_sim::Counters;

    const W: &str = "workloads[w/csr/1x1]";

    fn variant(ms: f64, dram: u64) -> VariantMetrics {
        let mut c = Counters::new();
        c.dram_read_bytes = dram;
        c.gld_transactions = dram / 32;
        VariantMetrics::new(ms, 0.837, ms * 2.0, 3, 0.5, &c)
    }

    fn report(fused_ms: f64, base_ms: f64) -> BenchReport {
        let fused = variant(fused_ms, 100_000);
        let baseline = variant(base_ms, 300_000);
        BenchReport {
            schema_version: SCHEMA_VERSION,
            git_sha: "test".into(),
            fingerprint: ConfigFingerprint {
                device: "dev".into(),
                clock_ghz: 0.837,
                scale: 1.0,
                seed: 1,
                mode: "quick".into(),
            },
            workloads: vec![WorkloadResult {
                id: "w/csr/1x1".into(),
                algorithm: "w".into(),
                format: "csr".into(),
                rows: 1,
                cols: 1,
                nnz: 1,
                iterations: 0,
                speedup: base_ms / fused_ms,
                fused,
                baseline,
            }],
        }
    }

    fn bench(base: &BenchReport, cand: &BenchReport) -> Verdict {
        gate(BENCH_RULES, &base.to_json(), &cand.to_json(), false)
    }

    #[test]
    fn self_compare_is_clean() {
        let r = report(1.0, 3.0);
        let v = bench(&r, &r);
        assert!(v.findings.is_empty(), "{}", v.render());
        assert!(v.compared > 0);
    }

    #[test]
    fn modeled_slowdown_is_a_regression() {
        let base = report(1.0, 3.0);
        let cand = report(1.1, 3.0); // 10% fused modeled-time regression
        let v = bench(&base, &cand);
        assert!(!v.passed());
        assert_eq!(
            v.at(&format!("{W}.fused.modeled_ms")),
            Some(Severity::Regression)
        );
        // The derived speedup drop is flagged too.
        assert_eq!(v.at(&format!("{W}.speedup")), Some(Severity::Regression));
    }

    #[test]
    fn speedup_gain_is_an_improvement_not_a_failure() {
        let base = report(1.0, 3.0);
        let cand = report(0.8, 3.0);
        let v = bench(&base, &cand);
        assert!(v.passed(), "{}", v.render());
        assert_eq!(v.at(&format!("{W}.speedup")), Some(Severity::Improvement));
    }

    #[test]
    fn schema_version_skew_is_a_note_not_an_error() {
        let mut base = report(1.0, 3.0);
        base.schema_version = 1; // committed baseline predates the bump
        let v = bench(&base, &report(1.0, 3.0));
        assert!(v.passed(), "{}", v.render());
        assert_eq!(v.at("schema_version"), Some(Severity::Note));
    }

    #[test]
    fn host_metrics_never_gate() {
        let base = report(1.0, 3.0);
        let mut cand = report(1.0, 3.0);
        for w in &mut cand.workloads {
            // A cache-off rerun: many more plans computed, no pool reuse.
            w.fused.host = HostPerf {
                plans_computed: 500,
                plan_cache_hits: 0,
                pool_hits: 0,
                pool_misses: 4000,
                pool_bytes_recycled: 0,
                host_ms_per_iter: 9.0,
            };
        }
        let v = gate(BENCH_RULES, &base.to_json(), &cand.to_json(), true);
        assert!(v.findings.is_empty(), "{}", v.render());
    }

    #[test]
    fn fingerprint_mismatch_is_a_regression() {
        let base = report(1.0, 3.0);
        let mut cand = report(1.0, 3.0);
        cand.fingerprint.scale = 0.5;
        let v = bench(&base, &cand);
        assert_eq!(v.at("fingerprint.scale"), Some(Severity::Regression));
    }

    #[test]
    fn missing_workload_fails_the_gate() {
        let base = report(1.0, 3.0);
        let mut cand = report(1.0, 3.0);
        cand.workloads.clear();
        let v = bench(&base, &cand);
        assert_eq!(v.at(W), Some(Severity::Regression));
        // Reported once, not once per rule that reaches it.
        assert_eq!(v.findings.len(), 1, "{}", v.render());
    }

    #[test]
    fn new_workload_is_a_note_unless_exact() {
        let base = report(1.0, 3.0);
        let mut cand = report(1.0, 3.0);
        let mut extra = cand.workloads[0].clone();
        extra.id = "w/csr/2x2".into();
        cand.workloads.push(extra);
        let v = bench(&base, &cand);
        assert_eq!(v.at("workloads[w/csr/2x2]"), Some(Severity::Note));
        let v = gate(BENCH_RULES, &base.to_json(), &cand.to_json(), true);
        assert_eq!(v.at("workloads[w/csr/2x2]"), Some(Severity::Regression));
    }

    #[test]
    fn wall_clock_needs_a_big_swing_and_can_be_disabled() {
        let base = report(1.0, 3.0);
        let mut cand = report(1.0, 3.0);
        for w in &mut cand.workloads {
            w.fused.wall_ms *= 2.0; // 2x wall noise: under the loose default
        }
        assert!(bench(&base, &cand).passed());

        for w in &mut cand.workloads {
            w.fused.wall_ms *= 4.0; // now 8x: beyond tolerance
        }
        let v = bench(&base, &cand);
        assert_eq!(
            v.at(&format!("{W}.fused.wall_ms")),
            Some(Severity::Regression)
        );
        let no_wall: Vec<Rule> = BENCH_RULES
            .iter()
            .filter(|r| r.path != BENCH_WALL)
            .copied()
            .collect();
        assert!(gate(&no_wall, &base.to_json(), &cand.to_json(), false).passed());
    }

    #[test]
    fn counter_appearing_from_zero_is_flagged() {
        let base = report(1.0, 3.0);
        let mut cand = report(1.0, 3.0);
        for w in &mut cand.workloads {
            w.fused.global_atomic_ops = 500; // baseline had none
        }
        let v = bench(&base, &cand);
        let path = format!("{W}.fused.global_atomic_ops");
        assert_eq!(v.at(&path), Some(Severity::Regression));
        assert!(v.findings.iter().any(|f| f.path == path && f.base == "0"));
    }

    #[test]
    fn a_sum_rule_gates_the_total_not_its_parts() {
        let base = report(1.0, 3.0);
        let mut cand = report(1.0, 3.0);
        // Bytes move from reads to writes: the total is unchanged.
        cand.workloads[0].fused.dram_read_bytes -= 40_000;
        cand.workloads[0].fused.dram_write_bytes += 40_000;
        assert!(bench(&base, &cand).findings.is_empty());
        cand.workloads[0].fused.dram_write_bytes += 40_000;
        let v = bench(&base, &cand);
        assert_eq!(
            v.at(&format!("{W}.fused.dram_read_bytes+dram_write_bytes")),
            Some(Severity::Regression)
        );
    }

    #[test]
    fn exact_rules_pin_array_order_and_length() {
        let doc = |names: &[&str], costs: &[f64]| {
            Json::obj(vec![
                (
                    "dags",
                    Json::Arr(
                        names
                            .iter()
                            .map(|n| Json::obj(vec![("name", Json::str(*n))]))
                            .collect(),
                    ),
                ),
                (
                    "costs",
                    Json::Arr(costs.iter().map(|c| Json::num(*c)).collect()),
                ),
            ])
        };
        let base = doc(&["a", "b"], &[1.0, 2.0]);
        assert!(gate(PLANS_RULES, &base, &base, false).findings.is_empty());

        let v = gate(PLANS_RULES, &base, &doc(&["b", "a"], &[1.0, 2.0]), false);
        assert_eq!(v.at("dags"), Some(Severity::Regression), "{}", v.render());

        let v = gate(PLANS_RULES, &base, &doc(&["a", "b"], &[1.0]), false);
        assert_eq!(v.at("costs[1]"), Some(Severity::Regression));
        let v = gate(
            PLANS_RULES,
            &base,
            &doc(&["a", "b", "c"], &[1.0, 2.0]),
            false,
        );
        assert_eq!(v.at("dags[c]"), Some(Severity::Regression));
        let v = gate(PLANS_RULES, &base, &doc(&["a", "b"], &[1.0, 2.5]), false);
        assert_eq!(v.at("costs[1]"), Some(Severity::Regression));
    }
}
