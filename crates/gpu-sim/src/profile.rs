//! Human-readable per-launch profiler reports — the simulator's answer to
//! `nvprof`/NVVP, which the paper leans on throughout (register counts in
//! §3.3, load transactions in Fig. 2).

use crate::exec::LaunchStats;
use std::fmt::Write as _;

/// Render an nvprof-style report for one launch: geometry, occupancy,
/// counters, the time breakdown, and rule-based advice highlighting the
/// bottleneck the paper's techniques target.
pub fn profile_report(stats: &LaunchStats) -> String {
    let c = &stats.counters;
    let t = &stats.time;
    let cfg = &stats.config;
    let mut s = String::new();

    let _ = writeln!(s, "=== kernel '{}' ===", stats.name);
    let _ = writeln!(
        s,
        "grid {} x block {} ({} threads), {} regs/thread, {} B shared, ILP {:.0}",
        cfg.grid_blocks,
        cfg.block_threads,
        cfg.grid_threads(),
        cfg.regs_per_thread,
        cfg.shared_bytes,
        cfg.ilp,
    );
    let _ = writeln!(
        s,
        "occupancy {:.0}% ({} warps/SM, limited by {:?})",
        stats.occupancy.occupancy * 100.0,
        stats.occupancy.warps_per_sm,
        stats.occupancy.limiter,
    );
    let _ = writeln!(s, "--- memory ---");
    let _ = writeln!(
        s,
        "gld: {} instructions, {} sectors ({:.2} sectors/instr); tex: {} sectors",
        c.gld_instructions,
        c.gld_transactions,
        c.gld_transactions as f64 / c.gld_instructions.max(1) as f64,
        c.tex_transactions,
    );
    let _ = writeln!(
        s,
        "gst: {} instructions, {} sectors; DRAM {:.2} MB read / {:.2} MB written; L2 {:.2} MB",
        c.gst_instructions,
        c.gst_transactions,
        c.dram_read_bytes as f64 / 1e6,
        c.dram_write_bytes as f64 / 1e6,
        c.l2_read_bytes as f64 / 1e6,
    );
    let _ = writeln!(
        s,
        "atomics: {} f64 + {} int (hottest address ~{}, warp conflicts {})",
        c.global_atomics,
        c.global_atomics_int,
        c.hottest_atomic_address_count(),
        c.global_atomic_warp_conflicts,
    );
    let _ = writeln!(
        s,
        "shared: {} accesses + {} atomics, {} bank-conflict replays",
        c.shared_accesses, c.shared_atomics, c.shared_bank_conflicts,
    );
    let _ = writeln!(
        s,
        "simd efficiency {:.0}%; {} shuffles; {} barriers; {:.2} MFLOP",
        c.simd_efficiency() * 100.0,
        c.shuffle_instructions,
        c.barriers,
        c.flops as f64 / 1e6,
    );
    let _ = writeln!(s, "--- time ({:.4} ms simulated) ---", t.total_ms);
    for (name, ms) in [
        ("launch", t.launch_ms),
        ("dram", t.dram_ms),
        ("l2", t.l2_ms),
        ("compute", t.compute_ms),
        ("shared", t.shared_ms),
        ("atomic throughput", t.atomic_throughput_ms),
        ("atomic serialization", t.atomic_serial_ms),
    ] {
        if ms > 0.0 {
            let _ = writeln!(s, "  {name:<21} {ms:>10.4} ms");
        }
    }
    let _ = writeln!(s, "bottleneck: {}", t.bottleneck());
    for advice in advise(stats) {
        let _ = writeln!(s, "advice: {advice}");
    }
    s
}

/// Rule-based advice keyed to the paper's optimizations.
fn advise(stats: &LaunchStats) -> Vec<String> {
    let c = &stats.counters;
    let t = &stats.time;
    let mut advice = Vec::new();

    if t.bottleneck() == "atomic_serialization" {
        advice.push(
            "same-address atomic contention dominates — pre-aggregate in shared \
             memory (the paper's inter-vector stage) or spread the output"
                .to_string(),
        );
    }
    if t.bottleneck() == "atomic_throughput" && c.global_atomics > 4 * c.gld_instructions {
        advice.push(
            "one atomic per element — hierarchical aggregation (registers -> \
             shared -> global) would collapse these"
                .to_string(),
        );
    }
    let per_instr = c.gld_transactions as f64 / c.gld_instructions.max(1) as f64;
    if per_instr > 16.0 {
        advice.push(format!(
            "loads average {per_instr:.1} sectors/instruction — accesses are \
             uncoalesced; restructure toward contiguous lane addressing"
        ));
    }
    if c.simd_efficiency() < 0.5 {
        advice.push(format!(
            "SIMD efficiency {:.0}% — heavy divergence; consider sorting work by \
             size or a format with uniform per-lane work (ELL)",
            c.simd_efficiency() * 100.0
        ));
    }
    if stats.occupancy.occupancy < 0.25 && stats.config.ilp < 2.0 {
        advice.push(
            "occupancy under 25% with no ILP — reduce the register/shared \
             footprint or unroll for instruction-level parallelism (thread load)"
                .to_string(),
        );
    }
    if c.shared_bank_conflicts > c.shared_accesses / 4 {
        advice.push(
            "shared-memory bank conflicts exceed 25% of accesses — pad the tile \
             stride or switch the traversal order"
                .to_string(),
        );
    }
    advice
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceSpec;
    use crate::exec::{Gpu, LaunchConfig};

    #[test]
    fn report_contains_all_sections() {
        let g = Gpu::with_host_threads(DeviceSpec::gtx_titan(), 1);
        let x = g.try_upload_f64("x", &vec![1.0; 4096]).unwrap();
        let out = g.try_alloc_f64("out", 8).unwrap();
        let stats = g
            .try_launch("probe", LaunchConfig::new(8, 128), |blk| {
                let n = 4096;
                let grid_threads = blk.grid_dim() * blk.block_dim();
                blk.each_warp(|w| {
                    let mut base = w.gtid(0);
                    while base < n {
                        let v = w.load_f64(&x, |l| (base + l < n).then_some(base + l));
                        w.atomic_add_f64(&out, |l| (base + l < n).then(|| ((base + l) % 8, v[l])));
                        base += grid_threads;
                    }
                });
            })
            .unwrap();
        let report = profile_report(&stats);
        for needle in [
            "kernel 'probe'",
            "occupancy",
            "gld:",
            "atomics:",
            "bottleneck:",
            "ms simulated",
        ] {
            assert!(report.contains(needle), "missing '{needle}' in:\n{report}");
        }
    }

    #[test]
    fn contended_atomics_trigger_advice() {
        let g = Gpu::with_host_threads(DeviceSpec::gtx_titan(), 1);
        let out = g.try_alloc_f64("hot", 1).unwrap();
        let stats = g
            .try_launch("contended", LaunchConfig::new(64, 256), |blk| {
                blk.each_warp(|w| {
                    for _ in 0..16 {
                        w.atomic_add_f64(&out, |_l| Some((0, 1.0)));
                    }
                });
            })
            .unwrap();
        let report = profile_report(&stats);
        assert!(
            report.contains("advice:") && report.contains("contention"),
            "expected contention advice in:\n{report}"
        );
    }

    #[test]
    fn divergence_triggers_advice() {
        let g = Gpu::with_host_threads(DeviceSpec::gtx_titan(), 1);
        let x = g.try_upload_f64("x", &vec![1.0; 1024]).unwrap();
        let stats = g
            .try_launch("divergent", LaunchConfig::new(1, 32), |blk| {
                blk.each_warp(|w| {
                    for i in 0..32 {
                        w.load_f64(&x, |l| (l == 0).then_some(i));
                    }
                });
            })
            .unwrap();
        let report = profile_report(&stats);
        assert!(report.contains("divergence"), "report:\n{report}");
    }

    #[test]
    fn clean_kernel_gets_no_advice() {
        let g = Gpu::with_host_threads(DeviceSpec::gtx_titan(), 1);
        let x = g.try_upload_f64("x", &vec![1.0; 32 * 256]).unwrap();
        let y = g.try_alloc_f64("y", 32 * 256).unwrap();
        let stats = g
            .try_launch("clean", LaunchConfig::new(8, 256), |blk| {
                let n = 32 * 256;
                let grid_threads = blk.grid_dim() * blk.block_dim();
                blk.each_warp(|w| {
                    let mut base = w.gtid(0);
                    while base < n {
                        let v = w.load_f64(&x, |l| (base + l < n).then_some(base + l));
                        w.store_f64(&y, |l| (base + l < n).then(|| (base + l, v[l])));
                        base += grid_threads;
                    }
                });
            })
            .unwrap();
        let report = profile_report(&stats);
        assert!(!report.contains("advice:"), "unexpected advice:\n{report}");
    }
}
