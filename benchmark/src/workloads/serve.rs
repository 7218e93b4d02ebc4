//! `serve-mixed`: one op is one `runtime::serve` call — an epoch of 12
//! requests from a seeded arrival process (see [`request_stream`]) over
//! the tenant grid of `fusedml-bench serve` on 2 slots: a chaotic tenant
//! with a 5% kernel-fault rate, a bursty tenant with queue capacity 1, a
//! metered tenant whose 9.5 kB quota forces streamed admissions and quota
//! rejections, and a steady tenant.
//!
//! Arrivals are an open loop in modeled time inside `serve`; on the host
//! the epochs run closed-loop, cycling through [`EPOCHS`] distinct epochs.
//! The workload exercises admission, scheduling, recovery, short-lived
//! devices on a shared pool and the per-call `clean_run` estimates. Its
//! `modeled_speedup` compares the fault-free modeled cost of every
//! completed request on the tier that completed it with the same class on
//! the CPU tier of the serving ladder. Refusals and sheds are the
//! admission controller working as designed; an op fails only on a typed
//! error, a panic or a failed check.

use super::dev_err;
use crate::harness::{check, timed, Count, Harness, OpRecord, Phase, SETUPS};
use crate::span::span;
use fusedml_gpu_sim::{DeviceSpec, FaultProfile};
use fusedml_runtime::{
    clean_run, serve, RequestStatus, ServeConfig, ServeRequest, ServeTier, TenantSpec,
    WorkloadClass,
};
use std::collections::BTreeMap;

/// Distinct epochs per cycle: 160 samples behind the modeled percentiles,
/// enough that their seed-to-seed spread stays small.
const EPOCHS: usize = 160;
const SLOTS: usize = 2;
/// Kernel-fault probability of the chaotic tenant.
const FAULT_RATE: f64 = 0.05;
/// Byte quota of the metered tenant: between the streamed and fused
/// footprints of the solver classes and below the streamed footprint of
/// the graph classes.
const METERED_QUOTA: u64 = 9_500;
/// Deadline slack (ms past arrival) of deadline-carrying requests.
const DEADLINE_SLACK_MS: f64 = 4.5;

/// SplitMix64 finalizer: every draw is an integer function of the seed.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn tenant_grid(seed: u64) -> Vec<TenantSpec> {
    vec![
        TenantSpec::new("chaotic", 4, 1 << 20).with_faults(
            FaultProfile::seeded(mix64(seed ^ 0xFA)).with_kernel_fault_rate(FAULT_RATE),
        ),
        TenantSpec::new("bursty", 1, 1 << 20),
        TenantSpec::new("metered", 4, METERED_QUOTA),
        TenantSpec::new("steady", 4, 1 << 20),
    ]
}

/// Tenant indices in [`tenant_grid`] order.
const CHAOTIC: usize = 0;
const BURSTY: usize = 1;
const METERED: usize = 2;
const STEADY: usize = 3;
/// Requests of an epoch's one burst.
const BURST: usize = 4;

/// `items` in a seeded Fisher-Yates order.
fn shuffled<T>(mut items: Vec<T>, seed: u64) -> Vec<T> {
    for i in (1..items.len()).rev() {
        let j = (mix64(seed ^ i as u64) % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
    items
}

/// One epoch: every class twice, in a seeded order, and a fixed tenant
/// mix — a four-request burst on the bursty tenant at one arrival
/// instant, three requests each from the chaotic and metered tenants and
/// two from the steady one — with the burst at a seeded position and
/// seeded interarrival gaps of 0.50..=2.99 ms. Burst members and every
/// third other request carry a deadline. Fixing the mix keeps the modeled
/// percentiles from hinging on how many requests of each class a seed
/// happens to draw.
fn request_stream(seed: u64) -> Vec<ServeRequest> {
    let classes = shuffled(
        WorkloadClass::ALL.iter().flat_map(|&c| [c, c]).collect(),
        seed ^ 0xC1,
    );
    let mut tenants = shuffled(
        vec![
            CHAOTIC, CHAOTIC, CHAOTIC, METERED, METERED, METERED, STEADY, STEADY,
        ],
        seed ^ 0x7E,
    );
    let burst_at = (mix64(seed ^ 0xB0) % (tenants.len() as u64 + 1)) as usize;
    tenants.splice(burst_at..burst_at, [BURSTY; BURST]);
    let in_burst = |k: usize| (burst_at..burst_at + BURST).contains(&k);
    let mut t = 0.0f64;
    classes
        .into_iter()
        .zip(tenants)
        .enumerate()
        .map(|(k, (class, tenant))| {
            if !in_burst(k) || k == burst_at {
                t += 0.5 + (mix64(seed ^ (k as u64 + 1).wrapping_mul(0x9E37)) % 250) as f64 / 100.0;
            }
            let req = ServeRequest::new(tenant, class, t);
            if in_burst(k) || k % 3 == 2 {
                req.with_deadline(t + DEADLINE_SLACK_MS)
            } else {
                req
            }
        })
        .collect()
}

struct Epoch {
    tenants: Vec<TenantSpec>,
    requests: Vec<ServeRequest>,
}

/// Bit patterns of a weight vector, for exact comparison.
fn bits(w: &[f64]) -> Vec<u64> {
    w.iter().map(|v| v.to_bits()).collect()
}

pub fn run(h: &mut Harness) -> Result<(), String> {
    let p = h.params();
    let epochs = ((EPOCHS as f64 * p.scale).round() as usize).max(1);
    for _ in 0..SETUPS {
        h.begin_setup();
        let plan: Vec<Epoch> = h.phase(Phase::Inputs, || {
            (0..epochs as u64)
                .map(|e| {
                    let seed = mix64(p.seed ^ mix64(e + 1));
                    Epoch {
                        tenants: tenant_grid(seed),
                        requests: request_stream(seed),
                    }
                })
                .collect()
        });
        let cfg = h.phase(Phase::State, || ServeConfig {
            device: DeviceSpec::gtx_titan(),
            slots: SLOTS,
            ..ServeConfig::default()
        });
        // Fault-free single-session runs of every class on every tier: the
        // device tiers are what a completion of an unfaulted tenant must
        // reproduce bit for bit, the CPU tier is the comparator.
        let clean = h.phase(Phase::Reference, || -> Result<_, String> {
            let mut clean = BTreeMap::new();
            for class in WorkloadClass::ALL {
                for tier in [ServeTier::Fused, ServeTier::Streamed, ServeTier::Cpu] {
                    let _s = span("runtime", "clean_run");
                    let run = clean_run(class, tier, &cfg).map_err(dev_err)?;
                    clean.insert((class.name(), tier.name()), run);
                }
            }
            Ok(clean)
        })?;
        let clean_ms = |class: WorkloadClass, tier: ServeTier| {
            clean
                .get(&(class.name(), tier.name()))
                .map_or(0.0, |r| r.modeled_ms)
        };

        let mut op = |i: usize| -> Result<OpRecord, String> {
            let epoch = &plan[i % plan.len()];
            let mut rec = OpRecord::default();
            let report = timed(&mut rec, || {
                let _s = span("runtime", "serve");
                serve(&epoch.tenants, &epoch.requests, &cfg)
            })
            .map_err(dev_err)?;

            let (mut completed, mut good) = (0, 0);
            for o in &report.outcomes {
                match &o.status {
                    RequestStatus::Completed {
                        tier,
                        admitted_tier,
                        missed_deadline,
                        ..
                    } => {
                        completed += 1;
                        rec.add(Count::ComparedMs, clean_ms(o.class, *tier));
                        rec.add(Count::ComparatorMs, clean_ms(o.class, ServeTier::Cpu));
                        rec.add(Count::QueuedMs, o.start_ms - o.arrival_ms);
                        rec.add(Count::LatencyMs, o.latency_ms);
                        if *admitted_tier == ServeTier::Streamed {
                            rec.add(Count::StreamedAdmissions, 1.0);
                        }
                        if !missed_deadline {
                            good += 1;
                        }
                    }
                    RequestStatus::Rejected { .. } | RequestStatus::Shed { .. } => {
                        rec.add(Count::Refused, 1.0);
                    }
                    RequestStatus::Failed { .. } => {}
                }
            }
            for t in &report.tenants {
                rec.add(Count::DeadlineMisses, t.deadline_misses as f64);
                rec.add(Count::Recoveries, t.recoveries as f64);
                rec.add(Count::FaultsInjected, t.faults_injected as f64);
            }
            rec.add(Count::GoodUnits, good as f64);
            // One sample per epoch, its mean request latency: per-request
            // latencies cluster by class and tier, so a per-request median
            // jumps between clusters from one seed to the next.
            rec.modeled_samples
                .push(rec.get(Count::LatencyMs) / completed.max(1) as f64);
            rec.add(Count::ModeledMs, report.makespan_ms);
            rec.add(Count::SlotBusyMs, report.slot_busy_ms);
            rec.add(Count::SlotCapacityMs, SLOTS as f64 * report.makespan_ms);
            rec.add(Count::DevicesAttached, report.pool.attached_devices as f64);
            rec.add(Count::PoolHits, report.pool.hits as f64);
            rec.add(Count::PoolMisses, report.pool.misses as f64);

            check(&mut rec, || {
                if report.outcomes.len() != epoch.requests.len() {
                    return Err(format!(
                        "{} outcomes for {} requests",
                        report.outcomes.len(),
                        epoch.requests.len()
                    ));
                }
                for t in &report.tenants {
                    let accounted =
                        t.completed + t.rejected_queue + t.rejected_quota + t.shed + t.failed;
                    if t.submitted != accounted {
                        return Err(format!(
                            "tenant {}: {} submitted, {accounted} accounted for",
                            t.name, t.submitted
                        ));
                    }
                    if t.failed != 0 {
                        return Err(format!(
                            "tenant {}: {} request(s) exhausted the recovery ladder",
                            t.name, t.failed
                        ));
                    }
                }
                for o in &report.outcomes {
                    let RequestStatus::Completed { admitted_tier, .. } = &o.status else {
                        continue;
                    };
                    if epoch.tenants[o.tenant].faults.is_some() {
                        continue;
                    }
                    let key = (o.class.name(), admitted_tier.name());
                    if clean.get(&key).map(|r| bits(&r.weights)) != Some(bits(&o.weights)) {
                        return Err(format!(
                            "request {} ({} on {}): weights differ from the clean run",
                            o.seq, key.0, key.1
                        ));
                    }
                }
                Ok(())
            })?;
            Ok(rec)
        };
        h.finish_setup(plan.len(), &mut op);
    }
    Ok(())
}
