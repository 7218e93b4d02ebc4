//! The `BENCH_fusion.json` schema: a schema-versioned, machine-readable
//! record of one benchmark-suite run, diffable by `fusedml-bench compare`.
//!
//! Two metric classes live side by side in every row:
//!
//! * **modeled** metrics (simulated milliseconds / cycles, DRAM traffic,
//!   transaction and atomic counts, the aggregation-tier breakdown) come
//!   from the deterministic simulator — bit-identical on every host, so
//!   the regression gate diffs them with tight thresholds;
//! * **wall-clock** milliseconds measure the host actually running the
//!   suite — machine-dependent, gated loosely or not at all.

use super::json::Json;
use fusedml_gpu_sim::Counters;

/// Version of the `BENCH_fusion.json` schema. Bump on breaking changes.
///
/// History:
/// * v1 — modeled + wall metrics per variant.
/// * v2 — adds the nested `host` object per variant (plan-cache and
///   buffer-pool traffic, host milliseconds per solver iteration). v1
///   documents still load: the host fields default to zero.
pub const SCHEMA_VERSION: u64 = 2;

/// Oldest schema version [`BenchReport::from_json`] still accepts.
pub const MIN_SCHEMA_VERSION: u64 = 1;

/// Everything that parameterizes a suite run. Two reports are only
/// comparable when their fingerprints match.
#[derive(Debug, Clone, PartialEq)]
pub struct ConfigFingerprint {
    /// Simulated device name (e.g. "GeForce GTX Titan (simulated)").
    pub device: String,
    /// Core clock used to convert modeled milliseconds to cycles.
    pub clock_ghz: f64,
    /// Workload scale factor in (0, 1].
    pub scale: f64,
    /// Seed for every synthetic dataset in the matrix.
    pub seed: u64,
    /// Suite mode: "quick" or "full".
    pub mode: String,
}

impl ConfigFingerprint {
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("device", Json::str(&self.device)),
            ("clock_ghz", Json::num(self.clock_ghz)),
            ("scale", Json::num(self.scale)),
            ("seed", Json::u64(self.seed)),
            ("mode", Json::str(&self.mode)),
        ])
    }

    pub fn from_json(j: &Json) -> Result<Self, String> {
        Ok(ConfigFingerprint {
            device: j.field_str("device")?.to_string(),
            clock_ghz: j.field_f64("clock_ghz")?,
            scale: j.field_f64("scale")?,
            seed: j.field_u64("seed")?,
            mode: j.field_str("mode")?.to_string(),
        })
    }
}

/// Host-overhead metrics of one variant: what the launch-plan cache and
/// the device buffer pool did for the run. All counters are zero for
/// kernel-level workloads (no solver loop, nothing to amortize) and for
/// v1 documents.
///
/// These are *host* metrics: they vary with the plan cache on vs. off
/// while the modeled counters stay bit-identical, so `compare` never
/// gates them.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HostPerf {
    /// Times the analytical tuner actually ran (cache misses + uncached
    /// runs + planning errors).
    pub plans_computed: u64,
    /// Plans served from the cache without running the tuner.
    pub plan_cache_hits: u64,
    /// Device allocations served from the buffer pool's free lists.
    pub pool_hits: u64,
    /// Device allocations that went to the host allocator.
    pub pool_misses: u64,
    /// Requested bytes served from recycled blocks.
    pub pool_bytes_recycled: u64,
    /// Host wall-clock milliseconds per solver iteration (wall_ms /
    /// iterations; 0 for kernel-level workloads).
    pub host_ms_per_iter: f64,
}

impl HostPerf {
    /// Fraction of device allocations served from the pool, in `[0, 1]`.
    pub fn pool_hit_rate(&self) -> f64 {
        let total = self.pool_hits + self.pool_misses;
        if total == 0 {
            0.0
        } else {
            self.pool_hits as f64 / total as f64
        }
    }

    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("plans_computed", Json::u64(self.plans_computed)),
            ("plan_cache_hits", Json::u64(self.plan_cache_hits)),
            ("pool_hits", Json::u64(self.pool_hits)),
            ("pool_misses", Json::u64(self.pool_misses)),
            ("pool_bytes_recycled", Json::u64(self.pool_bytes_recycled)),
            ("host_ms_per_iter", Json::num(self.host_ms_per_iter)),
        ])
    }

    pub fn from_json(j: &Json) -> Result<Self, String> {
        Ok(HostPerf {
            plans_computed: j.field_u64("plans_computed")?,
            plan_cache_hits: j.field_u64("plan_cache_hits")?,
            pool_hits: j.field_u64("pool_hits")?,
            pool_misses: j.field_u64("pool_misses")?,
            pool_bytes_recycled: j.field_u64("pool_bytes_recycled")?,
            host_ms_per_iter: j.field_f64("host_ms_per_iter")?,
        })
    }
}

/// Metrics of one pipeline variant (fused or baseline) on one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct VariantMetrics {
    /// Simulated milliseconds (deterministic).
    pub modeled_ms: f64,
    /// Simulated core-clock cycles at the fingerprint's clock
    /// (deterministic; the primary regression-gate metric).
    pub modeled_cycles: u64,
    /// Host wall-clock milliseconds spent simulating this variant
    /// (machine-dependent; gated loosely).
    pub wall_ms: f64,
    /// Kernel launches.
    pub launches: u64,
    /// 32-byte global load sectors.
    pub gld_transactions: u64,
    /// 32-byte global store sectors.
    pub gst_transactions: u64,
    /// Bytes fetched from DRAM.
    pub dram_read_bytes: u64,
    /// Bytes written back to DRAM.
    pub dram_write_bytes: u64,
    /// Bytes served from L2.
    pub l2_read_bytes: u64,
    /// Double-precision operations.
    pub flops: u64,
    /// Hierarchical-aggregation breakdown: register-tier shuffle ops.
    pub register_shuffle_ops: u64,
    /// Shared-memory-tier atomic reduction ops.
    pub shared_atomic_ops: u64,
    /// Shared-memory staging traffic.
    pub shared_access_ops: u64,
    /// Global-memory-tier atomics (f64 + int).
    pub global_atomic_ops: u64,
    /// Time-weighted mean achieved occupancy over the variant's launches,
    /// in [0, 1]; 0 when not recorded (CPU-modelled or unavailable).
    pub occupancy: f64,
    /// Host-overhead accounting (schema v2; zero for v1 documents).
    pub host: HostPerf,
}

impl VariantMetrics {
    /// Assemble from merged counters plus the scalar measurements.
    pub fn new(
        modeled_ms: f64,
        clock_ghz: f64,
        wall_ms: f64,
        launches: u64,
        occupancy: f64,
        c: &Counters,
    ) -> Self {
        let agg = c.aggregation_breakdown();
        VariantMetrics {
            modeled_ms,
            modeled_cycles: (modeled_ms * clock_ghz * 1e6).round() as u64,
            wall_ms,
            launches,
            gld_transactions: c.gld_transactions,
            gst_transactions: c.gst_transactions,
            dram_read_bytes: c.dram_read_bytes,
            dram_write_bytes: c.dram_write_bytes,
            l2_read_bytes: c.l2_read_bytes,
            flops: c.flops,
            register_shuffle_ops: agg.register_shuffle_ops,
            shared_atomic_ops: agg.shared_atomic_ops,
            shared_access_ops: agg.shared_access_ops,
            global_atomic_ops: agg.global_atomic_ops,
            occupancy,
            host: HostPerf::default(),
        }
    }

    /// Attach host-overhead accounting (builder-style, used by the suite
    /// for algorithm-level workloads).
    pub fn with_host(mut self, host: HostPerf) -> Self {
        self.host = host;
        self
    }

    /// Total DRAM traffic (read + write).
    pub fn dram_bytes(&self) -> u64 {
        self.dram_read_bytes + self.dram_write_bytes
    }

    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("modeled_ms", Json::num(self.modeled_ms)),
            ("modeled_cycles", Json::u64(self.modeled_cycles)),
            ("wall_ms", Json::num(self.wall_ms)),
            ("launches", Json::u64(self.launches)),
            ("gld_transactions", Json::u64(self.gld_transactions)),
            ("gst_transactions", Json::u64(self.gst_transactions)),
            ("dram_read_bytes", Json::u64(self.dram_read_bytes)),
            ("dram_write_bytes", Json::u64(self.dram_write_bytes)),
            ("l2_read_bytes", Json::u64(self.l2_read_bytes)),
            ("flops", Json::u64(self.flops)),
            ("register_shuffle_ops", Json::u64(self.register_shuffle_ops)),
            ("shared_atomic_ops", Json::u64(self.shared_atomic_ops)),
            ("shared_access_ops", Json::u64(self.shared_access_ops)),
            ("global_atomic_ops", Json::u64(self.global_atomic_ops)),
            ("occupancy", Json::num(self.occupancy)),
            ("host", self.host.to_json()),
        ])
    }

    pub fn from_json(j: &Json) -> Result<Self, String> {
        Ok(VariantMetrics {
            modeled_ms: j.field_f64("modeled_ms")?,
            modeled_cycles: j.field_u64("modeled_cycles")?,
            wall_ms: j.field_f64("wall_ms")?,
            launches: j.field_u64("launches")?,
            gld_transactions: j.field_u64("gld_transactions")?,
            gst_transactions: j.field_u64("gst_transactions")?,
            dram_read_bytes: j.field_u64("dram_read_bytes")?,
            dram_write_bytes: j.field_u64("dram_write_bytes")?,
            l2_read_bytes: j.field_u64("l2_read_bytes")?,
            flops: j.field_u64("flops")?,
            register_shuffle_ops: j.field_u64("register_shuffle_ops")?,
            shared_atomic_ops: j.field_u64("shared_atomic_ops")?,
            shared_access_ops: j.field_u64("shared_access_ops")?,
            global_atomic_ops: j.field_u64("global_atomic_ops")?,
            occupancy: j.field_f64("occupancy")?,
            // Absent in v1 documents: default to zero rather than failing,
            // so old baselines stay loadable.
            host: match j.field("host") {
                Ok(h) => HostPerf::from_json(h).map_err(|e| format!("host: {e}"))?,
                Err(_) => HostPerf::default(),
            },
        })
    }
}

/// One row of the workload matrix: a (workload, fused-vs-baseline) pair.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadResult {
    /// Stable identifier, e.g. "lr_cg/csr/10000x512". `compare` matches
    /// rows across reports by this id.
    pub id: String,
    /// Algorithm or kernel family ("lr_cg", "glm", ..., "pattern", "xty").
    pub algorithm: String,
    /// Storage format: "csr", "ell", or "dense".
    pub format: String,
    pub rows: u64,
    pub cols: u64,
    /// Stored non-zeros (rows * cols for dense).
    pub nnz: u64,
    /// Solver iterations (0 for single-kernel workloads).
    pub iterations: u64,
    pub fused: VariantMetrics,
    pub baseline: VariantMetrics,
    /// `baseline.modeled_ms / fused.modeled_ms` — the paper's headline
    /// metric, per workload.
    pub speedup: f64,
}

impl WorkloadResult {
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("id", Json::str(&self.id)),
            ("algorithm", Json::str(&self.algorithm)),
            ("format", Json::str(&self.format)),
            ("rows", Json::u64(self.rows)),
            ("cols", Json::u64(self.cols)),
            ("nnz", Json::u64(self.nnz)),
            ("iterations", Json::u64(self.iterations)),
            ("fused", self.fused.to_json()),
            ("baseline", self.baseline.to_json()),
            ("speedup", Json::num(self.speedup)),
        ])
    }

    pub fn from_json(j: &Json) -> Result<Self, String> {
        Ok(WorkloadResult {
            id: j.field_str("id")?.to_string(),
            algorithm: j.field_str("algorithm")?.to_string(),
            format: j.field_str("format")?.to_string(),
            rows: j.field_u64("rows")?,
            cols: j.field_u64("cols")?,
            nnz: j.field_u64("nnz")?,
            iterations: j.field_u64("iterations")?,
            fused: VariantMetrics::from_json(j.field("fused")?)
                .map_err(|e| format!("workload fused: {e}"))?,
            baseline: VariantMetrics::from_json(j.field("baseline")?)
                .map_err(|e| format!("workload baseline: {e}"))?,
            speedup: j.field_f64("speedup")?,
        })
    }
}

/// A complete `BENCH_fusion.json` document.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    pub schema_version: u64,
    /// Commit the suite ran at ("unknown" outside a git checkout).
    pub git_sha: String,
    pub fingerprint: ConfigFingerprint,
    pub workloads: Vec<WorkloadResult>,
}

impl BenchReport {
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("schema_version", Json::u64(self.schema_version)),
            ("git_sha", Json::str(&self.git_sha)),
            ("fingerprint", self.fingerprint.to_json()),
            (
                "workloads",
                Json::Arr(self.workloads.iter().map(|w| w.to_json()).collect()),
            ),
        ])
    }

    pub fn from_json(j: &Json) -> Result<Self, String> {
        let version = j.field_u64("schema_version")?;
        if !(MIN_SCHEMA_VERSION..=SCHEMA_VERSION).contains(&version) {
            return Err(format!(
                "schema version {version} unsupported (this build reads \
                 {MIN_SCHEMA_VERSION}..={SCHEMA_VERSION})"
            ));
        }
        let mut workloads = Vec::new();
        for (i, wj) in j
            .field("workloads")?
            .as_arr()
            .ok_or("'workloads' is not an array")?
            .iter()
            .enumerate()
        {
            workloads
                .push(WorkloadResult::from_json(wj).map_err(|e| format!("workloads[{i}]: {e}"))?);
        }
        Ok(BenchReport {
            schema_version: version,
            git_sha: j.field_str("git_sha")?.to_string(),
            fingerprint: ConfigFingerprint::from_json(j.field("fingerprint")?)
                .map_err(|e| format!("fingerprint: {e}"))?,
            workloads,
        })
    }

    pub fn render(&self) -> String {
        self.to_json().render()
    }

    pub fn save(&self, path: &str) -> Result<(), String> {
        write_file(path, &self.render())
    }

    pub fn load(path: &str) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        let json = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        Self::from_json(&json).map_err(|e| format!("{path}: {e}"))
    }
}

/// Write `text` to `path`, creating its parent directory first. The one
/// output writer of every report the bench CLI produces.
pub fn write_file(path: &str, text: &str) -> Result<(), String> {
    if let Some(dir) = std::path::Path::new(path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        }
    }
    std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))
}

/// Current git commit, or "unknown".
pub fn current_git_sha() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_variant(ms: f64) -> VariantMetrics {
        let mut c = Counters::new();
        c.gld_transactions = 1000;
        c.dram_read_bytes = 64_000;
        c.shuffle_instructions = 42;
        c.global_atomics = 7;
        VariantMetrics::new(ms, 0.837, ms * 3.0, 2, 0.75, &c)
    }

    fn sample_report() -> BenchReport {
        let fused = sample_variant(1.0);
        let baseline = sample_variant(3.5);
        BenchReport {
            schema_version: SCHEMA_VERSION,
            git_sha: "deadbeef".into(),
            fingerprint: ConfigFingerprint {
                device: "GeForce GTX Titan (simulated)".into(),
                clock_ghz: 0.837,
                scale: 0.02,
                seed: 0x5EED,
                mode: "quick".into(),
            },
            workloads: vec![WorkloadResult {
                id: "lr_cg/csr/8000x512".into(),
                algorithm: "lr_cg".into(),
                format: "csr".into(),
                rows: 8000,
                cols: 512,
                nnz: 81_920,
                iterations: 3,
                speedup: baseline.modeled_ms / fused.modeled_ms,
                fused,
                baseline,
            }],
        }
    }

    #[test]
    fn report_roundtrips_through_json() {
        let r = sample_report();
        let back = BenchReport::from_json(&Json::parse(&r.render()).unwrap()).unwrap();
        assert_eq!(r, back);
    }

    #[test]
    fn modeled_cycles_derive_from_ms_and_clock() {
        let v = sample_variant(2.0);
        // 2 ms at 0.837 GHz = 1.674e6 cycles.
        assert_eq!(v.modeled_cycles, 1_674_000);
    }

    #[test]
    fn v1_document_loads_with_zero_host_fields() {
        // Fabricate a genuine v1 document: version 1, no `host` objects.
        let r = sample_report();
        let mut j = r.to_json();
        let Json::Obj(doc) = &mut j else {
            panic!("report is an object")
        };
        doc.insert("schema_version".into(), Json::u64(1));
        let Some(Json::Arr(ws)) = doc.get_mut("workloads") else {
            panic!("workloads is an array")
        };
        for w in ws {
            let Json::Obj(w) = w else { panic!() };
            for variant in ["fused", "baseline"] {
                let Some(Json::Obj(v)) = w.get_mut(variant) else {
                    panic!()
                };
                v.remove("host");
            }
        }
        let back = BenchReport::from_json(&j).unwrap();
        assert_eq!(back.schema_version, 1);
        assert_eq!(back.workloads[0].fused.host, HostPerf::default());
        // Everything that existed in v1 survives untouched.
        assert_eq!(
            back.workloads[0].fused.modeled_ms,
            r.workloads[0].fused.modeled_ms
        );
    }

    #[test]
    fn host_perf_roundtrips_and_rates() {
        let h = HostPerf {
            plans_computed: 2,
            plan_cache_hits: 98,
            pool_hits: 90,
            pool_misses: 10,
            pool_bytes_recycled: 4096,
            host_ms_per_iter: 0.25,
        };
        let back = HostPerf::from_json(&h.to_json()).unwrap();
        assert_eq!(h, back);
        assert!((h.pool_hit_rate() - 0.9).abs() < 1e-12);
        assert_eq!(HostPerf::default().pool_hit_rate(), 0.0);
    }

    #[test]
    fn unknown_schema_version_is_rejected() {
        let mut r = sample_report();
        r.schema_version = 99;
        let text = r.render();
        let err = BenchReport::from_json(&Json::parse(&text).unwrap()).unwrap_err();
        assert!(err.contains("schema version 99"), "{err}");
    }

    #[test]
    fn missing_field_error_names_the_field() {
        let err = VariantMetrics::from_json(&Json::obj(vec![("modeled_ms", Json::num(1.0))]))
            .unwrap_err();
        assert!(err.contains("modeled_cycles"), "{err}");
    }
}
