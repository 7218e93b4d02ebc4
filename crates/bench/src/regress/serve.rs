//! `fusedml-bench serve` — the multi-tenant serving benchmark and its
//! CI regression gate.
//!
//! The bench drives [`fn@fusedml_runtime::serve`] with a seeded,
//! deterministic arrival process: a fixed tenant grid (one tenant with
//! an injected kernel-fault profile, one with a single-slot queue, one
//! with a byte quota tight enough to force streamed admissions and
//! quota rejections) and a mixed stream of workload classes with
//! integer-derived interarrival gaps — no `ln`, no wall clock, nothing
//! host-dependent. Every metric in `SERVE_fusion.json` is modeled
//! (throughput, p50/p99/p999 latency, shed/reject/recovery counters,
//! shared-pool contention gauges), so the report is byte-identical for
//! a fixed fingerprint and gates in CI exactly like `regress` and
//! `stream`: [`serve_invariants`] holds the structural guarantees on
//! every run, [`SERVE_RULES`](super::SERVE_RULES) gate a candidate
//! against the committed baseline.

use super::json::Json;
use fusedml_gpu_sim::{DeviceSpec, FaultProfile};
use fusedml_runtime::{serve, ServeConfig, ServeReport, ServeRequest, TenantSpec, WorkloadClass};
use std::sync::Arc;

/// Bumped when the report's structure changes incompatibly.
pub const SERVE_SCHEMA_VERSION: u64 = 1;

/// Shape of one serve bench run; becomes the report's fingerprint.
#[derive(Debug, Clone)]
pub struct ServeBenchOptions {
    pub tenants: usize,
    pub requests: usize,
    pub slots: usize,
    pub seed: u64,
    pub device: Arc<DeviceSpec>,
}

impl Default for ServeBenchOptions {
    fn default() -> Self {
        ServeBenchOptions {
            tenants: 4,
            requests: 48,
            slots: 2,
            seed: 0x5E12_5EED,
            device: Arc::new(DeviceSpec::gtx_titan()),
        }
    }
}

impl ServeBenchOptions {
    fn fingerprint(&self) -> Json {
        Json::obj(vec![
            ("device", Json::str(self.device.name.clone())),
            ("tenants", Json::u64(self.tenants as u64)),
            ("requests", Json::u64(self.requests as u64)),
            ("slots", Json::u64(self.slots as u64)),
            ("seed", Json::str(format!("{:#018x}", self.seed))),
        ])
    }
}

/// SplitMix64 finalizer: every random draw in the arrival process is an
/// integer function of the seed — bit-identical on every host, unlike
/// `f64::ln`-based exponential interarrivals whose libm varies.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Kernel-fault probability injected into tenant 0, high enough that the
/// default grid deterministically exercises the recovery ladder.
const FAULT_RATE: f64 = 0.05;

/// Byte quota of the "metered" tenant: between the streamed and fused
/// footprints of the solver classes, and below the streamed footprint of
/// the graph classes — one constant yields streamed admissions *and*
/// quota rejections.
const METERED_QUOTA: u64 = 9_500;

/// Deadline slack (ms past arrival) of deadline-carrying requests. Tight
/// enough that the tail of a burst sheds, loose enough that an idle grid
/// meets it.
const DEADLINE_SLACK_MS: f64 = 4.5;

/// Build the deterministic tenant grid. Tenant 0 carries the fault
/// profile (the isolation probe), tenant 1 the single-slot queue, tenant
/// 2 the tight byte quota; the rest are steady background load.
fn tenant_grid(opts: &ServeBenchOptions) -> Vec<TenantSpec> {
    (0..opts.tenants)
        .map(|i| match i {
            0 => TenantSpec::new("chaotic", 4, 1 << 20).with_faults(
                FaultProfile::seeded(mix64(opts.seed ^ 0xFA)).with_kernel_fault_rate(FAULT_RATE),
            ),
            1 => TenantSpec::new("bursty", 1, 1 << 20),
            2 => TenantSpec::new("metered", 4, METERED_QUOTA),
            _ => TenantSpec::new(format!("steady-{i}"), 4, 1 << 20),
        })
        .collect()
}

/// The seeded arrival process: interarrival gaps of 0.50..=2.99 ms in
/// 0.01 ms steps (integer-derived), tenant and class drawn uniformly,
/// every third request carrying a deadline. One draw in eight becomes a
/// four-request burst landing on a single tenant at one arrival instant
/// — the backlog that exercises the queue bound and deadline shedding.
fn request_stream(opts: &ServeBenchOptions) -> Vec<ServeRequest> {
    let mut reqs = Vec::with_capacity(opts.requests);
    let mut t = 0.0f64;
    let mut i = 0u64;
    let mut bursts = 0u64;
    while reqs.len() < opts.requests {
        let draw = mix64(opts.seed ^ i.wrapping_mul(0x9E37));
        i += 1;
        t += 0.5 + (draw % 250) as f64 / 100.0;
        let fan = if draw % 8 == 0 { 4 } else { 1 };
        let tenant = if fan > 1 {
            // Alternate bursts between the single-slot tenant (queue
            // rejections) and a drawn tenant (deadline sheds).
            bursts += 1;
            if bursts % 2 == 1 {
                1
            } else {
                (mix64(draw ^ 0x7E) % opts.tenants as u64) as usize
            }
        } else {
            (mix64(draw ^ 0x7E) % opts.tenants as u64) as usize
        };
        for k in 0..fan {
            if reqs.len() == opts.requests {
                break;
            }
            let class = WorkloadClass::ALL
                [(mix64(draw ^ 0xC1 ^ k) % WorkloadClass::ALL.len() as u64) as usize];
            let req = ServeRequest::new(tenant, class, t);
            // Bursts model a latency-sensitive batch: every member
            // carries the deadline; steady traffic every third request.
            reqs.push(if fan > 1 || reqs.len() % 3 == 2 {
                req.with_deadline(t + DEADLINE_SLACK_MS)
            } else {
                req
            });
        }
    }
    reqs
}

fn serve_config(opts: &ServeBenchOptions) -> ServeConfig {
    ServeConfig {
        device: (*opts.device).clone(),
        slots: opts.slots,
        ..ServeConfig::default()
    }
}

/// Nearest-rank percentile of an ascending slice (0 when empty).
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Run the serve grid and assemble the schema-versioned report. Every
/// field is modeled, so two runs of one fingerprint are byte-identical.
pub fn serve_bench_report(opts: &ServeBenchOptions) -> Result<Json, String> {
    if opts.tenants < 3 {
        return Err("serve bench needs at least 3 tenants (chaotic, bursty, metered)".to_string());
    }
    if opts.requests == 0 {
        return Err("serve bench needs at least one request".to_string());
    }
    let tenants = tenant_grid(opts);
    let requests = request_stream(opts);
    let cfg = serve_config(opts);
    let report = serve(&tenants, &requests, &cfg).map_err(|e| format!("serve bench: {e}"))?;
    Ok(report_to_json(opts, &report))
}

fn report_to_json(opts: &ServeBenchOptions, report: &ServeReport) -> Json {
    let mut lat = report.latencies_ms();
    lat.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let mean = if lat.is_empty() {
        0.0
    } else {
        lat.iter().sum::<f64>() / lat.len() as f64
    };
    let completed = report.completed();
    let throughput_rps = if report.makespan_ms > 0.0 {
        completed as f64 / report.makespan_ms * 1_000.0
    } else {
        0.0
    };
    let sum = |f: fn(&fusedml_runtime::TenantSummary) -> usize| -> u64 {
        report.tenants.iter().map(|t| f(t) as u64).sum()
    };
    let tenants: Vec<Json> = report
        .tenants
        .iter()
        .map(|t| {
            Json::obj(vec![
                ("name", Json::str(t.name.clone())),
                ("faulted", Json::Bool(t.faults_injected > 0)),
                ("submitted", Json::u64(t.submitted as u64)),
                ("completed", Json::u64(t.completed as u64)),
                ("rejected_queue", Json::u64(t.rejected_queue as u64)),
                ("rejected_quota", Json::u64(t.rejected_quota as u64)),
                ("shed", Json::u64(t.shed as u64)),
                ("failed", Json::u64(t.failed as u64)),
                ("recoveries", Json::u64(t.recoveries as u64)),
                ("deadline_misses", Json::u64(t.deadline_misses as u64)),
                ("max_queue_depth", Json::u64(t.max_queue_depth as u64)),
                ("busy_ms", Json::num(t.busy_ms)),
                ("faults_injected", Json::u64(t.faults_injected)),
            ])
        })
        .collect();
    Json::obj(vec![
        ("schema_version", Json::u64(SERVE_SCHEMA_VERSION)),
        ("fingerprint", opts.fingerprint()),
        (
            "totals",
            Json::obj(vec![
                ("submitted", Json::u64(report.outcomes.len() as u64)),
                ("completed", Json::u64(completed as u64)),
                ("rejected_queue", Json::u64(sum(|t| t.rejected_queue))),
                ("rejected_quota", Json::u64(sum(|t| t.rejected_quota))),
                ("shed", Json::u64(report.shed() as u64)),
                ("failed", Json::u64(report.failed() as u64)),
                ("recoveries", Json::u64(sum(|t| t.recoveries))),
                ("deadline_misses", Json::u64(sum(|t| t.deadline_misses))),
                (
                    "faults_injected",
                    Json::u64(report.tenants.iter().map(|t| t.faults_injected).sum()),
                ),
            ]),
        ),
        (
            "latency_ms",
            Json::obj(vec![
                ("p50", Json::num(percentile(&lat, 0.50))),
                ("p99", Json::num(percentile(&lat, 0.99))),
                ("p999", Json::num(percentile(&lat, 0.999))),
                ("max", Json::num(lat.last().copied().unwrap_or(0.0))),
                ("mean", Json::num(mean)),
            ]),
        ),
        ("throughput_rps", Json::num(throughput_rps)),
        ("makespan_ms", Json::num(report.makespan_ms)),
        ("slot_busy_ms", Json::num(report.slot_busy_ms)),
        (
            "pool",
            Json::obj(vec![
                ("hits", Json::u64(report.pool.hits)),
                ("misses", Json::u64(report.pool.misses)),
                ("attached_devices", Json::u64(report.pool.attached_devices)),
                (
                    "peak_outstanding_bytes",
                    Json::u64(report.pool.peak_outstanding_bytes),
                ),
            ]),
        ),
        ("tenants", Json::Arr(tenants)),
    ])
}

/// The structural guarantees CI holds every serve report to, baseline or
/// not. Returns one message per violation.
pub fn serve_invariants(report: &Json) -> Vec<String> {
    let mut bad = Vec::new();
    let totals = match report.field("totals") {
        Ok(t) => t,
        Err(e) => return vec![format!("report has no totals: {e}")],
    };
    let count = |key: &str| totals.field_u64(key).unwrap_or(u64::MAX);
    let (submitted, completed) = (count("submitted"), count("completed"));
    let accounted = completed
        + count("rejected_queue")
        + count("rejected_quota")
        + count("shed")
        + count("failed");
    if submitted != accounted {
        bad.push(format!(
            "request accounting leaks: {submitted} submitted, {accounted} accounted for"
        ));
    }
    if completed == 0 {
        bad.push("no request completed".to_string());
    }
    // With degradation enabled the CPU tier cannot fault, so a failed
    // request means the ladder is broken.
    if count("failed") != 0 {
        bad.push(format!(
            "{} request(s) exhausted the recovery ladder",
            count("failed")
        ));
    }
    let lat = |key: &str| -> f64 {
        report
            .field("latency_ms")
            .and_then(|l| l.field_f64(key))
            .unwrap_or(f64::NAN)
    };
    let (p50, p99, p999, max) = (lat("p50"), lat("p99"), lat("p999"), lat("max"));
    if !(p50 <= p99 && p99 <= p999 && p999 <= max) {
        bad.push(format!(
            "latency percentiles are not monotone: p50 {p50}, p99 {p99}, p999 {p999}, max {max}"
        ));
    }
    match report.field_f64("makespan_ms") {
        Ok(m) if m > 0.0 => {}
        _ => bad.push("makespan is not positive".to_string()),
    }
    // Blast-radius containment: faults stay inside the tenants that carry
    // a fault profile, and a faulted tenant still completes everything it
    // admitted (recovery, not failure).
    let empty = Vec::new();
    let tenants = report
        .get("tenants")
        .and_then(Json::as_arr)
        .unwrap_or(&empty);
    if tenants.is_empty() {
        bad.push("report has no tenants array".to_string());
    }
    for t in tenants {
        let name = t.field_str("name").unwrap_or("?").to_string();
        let faulted = t.get("faulted") == Some(&Json::Bool(true));
        let g = |key: &str| t.field_u64(key).unwrap_or(u64::MAX);
        if g("failed") != 0 {
            bad.push(format!("tenant {name}: {} failed request(s)", g("failed")));
        }
        if !faulted && g("faults_injected") != 0 {
            bad.push(format!(
                "tenant {name}: {} fault(s) leaked into an unfaulted tenant",
                g("faults_injected")
            ));
        }
        if faulted
            && g("completed") + g("rejected_queue") + g("rejected_quota") + g("shed")
                != g("submitted")
        {
            bad.push(format!(
                "tenant {name}: faulted tenant lost requests (completed {} of {} submitted)",
                g("completed"),
                g("submitted")
            ));
        }
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regress::{gate, Severity, SERVE_RULES};

    fn find_tenant<'a>(report: &'a Json, name: &str) -> Option<&'a Json> {
        report
            .get("tenants")?
            .as_arr()?
            .iter()
            .find(|t| t.get("name").and_then(Json::as_str) == Some(name))
    }

    fn tiny_opts() -> ServeBenchOptions {
        ServeBenchOptions {
            requests: 24,
            ..Default::default()
        }
    }

    #[test]
    fn report_is_deterministic_and_passes_its_own_invariants() {
        let opts = tiny_opts();
        let a = serve_bench_report(&opts).unwrap();
        let b = serve_bench_report(&opts).unwrap();
        assert_eq!(a.render(), b.render(), "serve report must be deterministic");
        assert_eq!(serve_invariants(&a), Vec::<String>::new());
        assert_eq!(Json::parse(&a.render()).unwrap(), a);
        assert!(gate(SERVE_RULES, &a, &b, false).findings.is_empty());
    }

    #[test]
    fn default_grid_exercises_every_admission_path() {
        // The committed baseline must cover the whole admission state
        // machine, or the gate gates nothing: recoveries on the faulted
        // tenant, queue rejections on the single-slot tenant, quota
        // rejections and streamed degradation on the metered tenant, and
        // shed requests under deadline pressure.
        let report = serve_bench_report(&ServeBenchOptions::default()).unwrap();
        let count = |key: &str| {
            report
                .field("totals")
                .and_then(|t| t.field_u64(key))
                .unwrap()
        };
        assert!(count("recoveries") > 0, "no recovery exercised");
        assert!(count("rejected_queue") > 0, "no queue rejection exercised");
        assert!(count("rejected_quota") > 0, "no quota rejection exercised");
        assert!(count("shed") > 0, "no deadline shed exercised");
        assert_eq!(count("failed"), 0);
        assert!(count("faults_injected") > 0, "fault profile never fired");
        // Faults stay on the chaotic tenant.
        let chaotic = find_tenant(&report, "chaotic").unwrap();
        assert!(chaotic.field_u64("faults_injected").unwrap() > 0);
        for t in report.get("tenants").unwrap().as_arr().unwrap() {
            if t.field_str("name").unwrap() != "chaotic" {
                assert_eq!(t.field_u64("faults_injected").unwrap(), 0);
            }
        }
    }

    #[test]
    fn gate_flags_latency_counter_and_structural_regressions() {
        let opts = tiny_opts();
        let base = serve_bench_report(&opts).unwrap();

        let mut cand = base.clone();
        let mut lost = String::new();
        if let Json::Obj(m) = &mut cand {
            if let Some(Json::Obj(l)) = m.get_mut("latency_ms") {
                let p99 = l["p99"].as_f64().unwrap();
                l.insert("p99".into(), Json::num(p99 * 1.20));
            }
            if let Some(Json::Obj(t)) = m.get_mut("totals") {
                let shed = t["shed"].as_u64().unwrap();
                t.insert("shed".into(), Json::u64(shed + 3));
            }
            if let Some(Json::Arr(ts)) = m.get_mut("tenants") {
                lost = ts.pop().unwrap().field_str("name").unwrap().to_string();
            }
        }
        let lost = format!("tenants[{lost}]");
        let bad = gate(SERVE_RULES, &base, &cand, false);
        for path in ["latency_ms.p99", "totals.shed", &lost] {
            assert_eq!(
                bad.at(path),
                Some(Severity::Regression),
                "{path}: {}",
                bad.render()
            );
        }

        // Improvements never fail: swapping roles leaves the tenant the
        // candidate gained as a note.
        let swapped = gate(SERVE_RULES, &cand, &base, false);
        assert!(swapped.passed(), "{}", swapped.render());
        assert_eq!(swapped.at(&lost), Some(Severity::Note));
    }

    #[test]
    fn a_gated_value_missing_from_the_candidate_fails() {
        let base = Json::parse(include_str!(
            "../../../../results/baselines/SERVE_fusion.json"
        ))
        .unwrap();
        let mut cand = base.clone();
        let mut tenants = Vec::new();
        if let Json::Obj(m) = &mut cand {
            if let Some(Json::Obj(t)) = m.get_mut("totals") {
                t.remove("shed");
                t.remove("failed");
            }
            if let Some(Json::Arr(ts)) = m.get_mut("tenants") {
                for t in ts {
                    if let Json::Obj(t) = t {
                        t.remove("completed");
                        tenants.push(t["name"].as_str().unwrap().to_string());
                    }
                }
            }
        }
        let bad = gate(SERVE_RULES, &base, &cand, false);
        let missing = ["totals.shed".to_string(), "totals.failed".to_string()]
            .into_iter()
            .chain(tenants.iter().map(|t| format!("tenants[{t}].completed")));
        for path in missing {
            assert_eq!(
                bad.at(&path),
                Some(Severity::Regression),
                "{path}: {}",
                bad.render()
            );
        }
        // Missing from the baseline, the values cannot be compared either.
        let swapped = gate(SERVE_RULES, &cand, &base, false);
        assert_eq!(swapped.at("totals.shed"), Some(Severity::Regression));
    }

    #[test]
    fn invariants_catch_a_cooked_report() {
        let opts = tiny_opts();
        let mut report = serve_bench_report(&opts).unwrap();
        if let Json::Obj(m) = &mut report {
            if let Some(Json::Obj(t)) = m.get_mut("totals") {
                t.insert("failed".into(), Json::u64(2));
            }
            if let Some(Json::Obj(l)) = m.get_mut("latency_ms") {
                l.insert("p50".into(), Json::num(1e9));
            }
            if let Some(Json::Arr(ts)) = m.get_mut("tenants") {
                for t in ts.iter_mut() {
                    if let Json::Obj(o) = t {
                        if o.get("faulted") != Some(&Json::Bool(true)) {
                            o.insert("faults_injected".into(), Json::u64(7));
                            break;
                        }
                    }
                }
            }
        }
        let bad = serve_invariants(&report);
        assert!(
            bad.iter().any(|b| b.contains("accounting leaks")),
            "{bad:?}"
        );
        assert!(
            bad.iter()
                .any(|b| b.contains("exhausted the recovery ladder")),
            "{bad:?}"
        );
        assert!(bad.iter().any(|b| b.contains("not monotone")), "{bad:?}");
        assert!(bad.iter().any(|b| b.contains("leaked")), "{bad:?}");
    }
}
