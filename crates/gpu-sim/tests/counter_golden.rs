//! Pinned counter values for a fixed launch mix. `determinism.rs` compares
//! one run against another, so a change to the accounting code that shifts
//! both runs the same way passes there; this file pins the absolute values
//! instead. Every `Counters` field, the sampled atomic-address histogram and
//! the bit pattern of every `TimeBreakdown` component must match exactly, at
//! one and at two host threads.
//!
//! Host-side optimisations of the simulator must leave this file untouched.
//! A deliberate change to the performance model is the only reason to edit
//! the expected tables; on a mismatch the test prints the observed table in
//! the same syntax.

use fusedml_gpu_sim::{
    Counters, DeviceSpec, Gpu, GpuBuffer, LaunchConfig, LaunchStats, TimeBreakdown,
};

/// One launch's expected outcome.
struct Golden {
    name: &'static str,
    counters: [(&'static str, u64); 21],
    atomic_addr_samples: &'static [(u64, u32)],
    time_bits: [(&'static str, u64); 8],
}

/// Every scalar `Counters` field by name. The destructuring has no `..`, so
/// a new field fails to compile here until it is pinned too.
fn counter_fields(c: &Counters) -> [(&'static str, u64); 21] {
    let Counters {
        gld_instructions,
        gld_transactions,
        gst_instructions,
        gst_transactions,
        dram_read_bytes,
        dram_write_bytes,
        l2_read_bytes,
        tex_read_bytes,
        tex_transactions,
        global_atomics,
        global_atomics_int,
        global_atomic_warp_conflicts,
        shared_accesses,
        shared_atomics,
        shared_bank_conflicts,
        shuffle_instructions,
        divergent_instructions,
        inactive_lanes,
        flops,
        barriers,
        kernel_launches,
        atomic_addr_samples: _,
    } = c;
    [
        ("gld_instructions", *gld_instructions),
        ("gld_transactions", *gld_transactions),
        ("gst_instructions", *gst_instructions),
        ("gst_transactions", *gst_transactions),
        ("dram_read_bytes", *dram_read_bytes),
        ("dram_write_bytes", *dram_write_bytes),
        ("l2_read_bytes", *l2_read_bytes),
        ("tex_read_bytes", *tex_read_bytes),
        ("tex_transactions", *tex_transactions),
        ("global_atomics", *global_atomics),
        ("global_atomics_int", *global_atomics_int),
        (
            "global_atomic_warp_conflicts",
            *global_atomic_warp_conflicts,
        ),
        ("shared_accesses", *shared_accesses),
        ("shared_atomics", *shared_atomics),
        ("shared_bank_conflicts", *shared_bank_conflicts),
        ("shuffle_instructions", *shuffle_instructions),
        ("divergent_instructions", *divergent_instructions),
        ("inactive_lanes", *inactive_lanes),
        ("flops", *flops),
        ("barriers", *barriers),
        ("kernel_launches", *kernel_launches),
    ]
}

/// Bit patterns of every `TimeBreakdown` component, likewise exhaustive.
fn time_fields(t: &TimeBreakdown) -> [(&'static str, u64); 8] {
    let TimeBreakdown {
        launch_ms,
        dram_ms,
        l2_ms,
        compute_ms,
        shared_ms,
        atomic_throughput_ms,
        atomic_serial_ms,
        total_ms,
    } = t;
    [
        ("launch_ms", launch_ms.to_bits()),
        ("dram_ms", dram_ms.to_bits()),
        ("l2_ms", l2_ms.to_bits()),
        ("compute_ms", compute_ms.to_bits()),
        ("shared_ms", shared_ms.to_bits()),
        ("atomic_throughput_ms", atomic_throughput_ms.to_bits()),
        ("atomic_serial_ms", atomic_serial_ms.to_bits()),
        ("total_ms", total_ms.to_bits()),
    ]
}

/// The observed outcome of one launch, rendered as a `Golden` literal.
fn render(s: &LaunchStats) -> String {
    let mut out = format!(
        "    Golden {{\n        name: {:?},\n        counters: [\n",
        s.name
    );
    for (k, v) in counter_fields(&s.counters) {
        out += &format!("            ({k:?}, {v}),\n");
    }
    out += "        ],\n        atomic_addr_samples: &[";
    let samples: Vec<String> = s
        .counters
        .atomic_addr_samples
        .iter()
        .map(|(a, n)| format!("({a:#x}, {n})"))
        .collect();
    out += &samples.join(", ");
    out += "],\n        time_bits: [\n";
    for (k, v) in time_fields(&s.time) {
        out += &format!("            ({k:?}, {v:#018x}),\n");
    }
    out += "        ],\n    },\n";
    out
}

/// Loads: coalesced `load_u32`, a scattered texture gather whose duplicate
/// sectors are not adjacent in lane order, a strided load spanning several
/// lines, and an all-lanes-off load. 80-thread blocks end in a 16-lane warp.
fn gather(g: &Gpu, x: &GpuBuffer, idx: &GpuBuffer) -> LaunchStats {
    let (nx, ni) = (x.len(), idx.len());
    g.try_launch("gather", LaunchConfig::new(7, 80), |blk| {
        let grid_threads = blk.grid_dim() * blk.block_dim();
        blk.each_warp(|w| {
            let mut base = w.gtid(0);
            while base < ni {
                let cols = w.load_u32(idx, |lane| (base + lane < ni).then_some(base + lane));
                // Lanes 0, 7, 14, … share sectors with each other but not
                // with the lanes in between.
                let ys = w.load_f64_tex(x, |lane| {
                    let i = (lane % 7) * 67 + (lane / 7) * 2 + (base % 512);
                    (i < nx).then_some(i)
                });
                let zs = w.load_f64(x, |lane| Some((base * 3 + lane * 5) % nx));
                let _ = w.load_f64(x, |_| None);
                let _ = w.load_f64_tex(x, |lane| Some(cols[lane] as usize % nx));
                w.flops(u64::from(ys[0] != zs[0]));
                base += grid_threads;
            }
        });
    })
    .unwrap()
}

/// Stores that straddle cache lines, and f64/u32 global atomics with
/// same-address lanes inside a warp.
fn scatter(g: &Gpu, out: &GpuBuffer, cur: &GpuBuffer, acc: &GpuBuffer) -> LaunchStats {
    let (no, nc, na) = (out.len(), cur.len(), acc.len());
    g.try_launch("scatter", LaunchConfig::new(9, 72), |blk| {
        let b = blk.block_id();
        blk.each_warp(|w| {
            let t0 = w.tid(0);
            // 32 u32 from element 8: 128 bytes over two lines.
            w.store_u32(cur, |lane| {
                Some(((8 + b * 40 + t0 + lane) % nc, lane as u32))
            });
            // f64 from element 5 with every third lane off: three lines.
            w.store_f64(out, |lane| {
                (lane % 3 != 0).then_some(((5 + b * 72 + t0 + lane) % no, lane as f64))
            });
            // The returned old values depend on cross-block ordering, so
            // they must not feed an address.
            let _ = w.atomic_fetch_add_u32(cur, |lane| Some(((lane * lane) % 13 + b, 1)));
            w.atomic_add_f64(acc, |lane| {
                (lane < 27).then_some(((lane % 5 + b * 3) % na, 0.5))
            });
            w.atomic_add_f64(acc, |lane| Some(((t0 + lane * 17) % na, 1.0)));
        });
    })
    .unwrap()
}

/// Shared-memory loads, stores and atomics with bank conflicts, same-word
/// lanes, and a partial last warp, plus a shuffle reduction and barriers.
fn shared(g: &Gpu, out: &GpuBuffer) -> LaunchStats {
    let no = out.len();
    let cfg = LaunchConfig::new(5, 104).with_shared_bytes(256 * 8);
    g.try_launch("shared", cfg, |blk| {
        let sd = blk.shared_f64(256);
        blk.each_warp(|w| {
            let wid = w.warp_id();
            // Stride 2: two-way conflicts.
            w.shared_store(sd, |lane| Some((lane * 2 + wid, lane as f64)));
        });
        blk.sync();
        blk.each_warp(|w| {
            let wid = w.warp_id();
            // Four distinct words in one bank, eight lanes on each.
            let mut v = w.shared_load(sd, |lane| Some((lane % 4) * 32 + wid));
            // Same-word lanes and bank conflicts in one atomic.
            w.shared_atomic_add(sd, |lane| Some(((lane % 3) * 64 + lane / 16, 1.0)));
            w.shared_atomic_add(sd, |lane| (lane % 2 == 0).then_some((lane * 8 % 256, 2.0)));
            w.shuffle_reduce_sum(&mut v, 8);
            let t0 = w.block_id() * 104 + w.tid(0);
            w.store_f64(out, |lane| {
                (lane % 8 == 0).then_some(((t0 + lane) % no, v[lane]))
            });
        });
        blk.sync();
    })
    .unwrap()
}

/// The launch mix on the tiny device (2 SMs, 64 KiB L2): the 128 KiB `x`
/// evicts, and `gather` runs again on warm caches.
fn launch_mix(host_threads: usize) -> Vec<LaunchStats> {
    let g = Gpu::with_host_threads(DeviceSpec::tiny_test_device(), host_threads);
    let nx = 16 * 1024;
    let xs: Vec<f64> = (0..nx).map(|i| (i % 31) as f64).collect();
    let x = g.try_upload_f64("x", &xs).unwrap();
    let ids: Vec<u32> = (0..3000u32)
        .map(|i| i.wrapping_mul(2_654_435_761) >> 18)
        .collect();
    let idx = g.try_upload_u32("idx", &ids).unwrap();
    let out = g.try_alloc_f64("out", 2000).unwrap();
    let cur = g.try_alloc_u32("cur", 1000).unwrap();
    let acc = g.try_alloc_f64("acc", 300).unwrap();
    vec![
        gather(&g, &x, &idx),
        scatter(&g, &out, &cur, &acc),
        shared(&g, &out),
        gather(&g, &x, &idx),
    ]
}

const GOLDEN: &[Golden] = &[
    Golden {
        name: "gather",
        counters: [
            ("gld_instructions", 565),
            ("gld_transactions", 3399),
            ("gst_instructions", 0),
            ("gst_transactions", 0),
            ("dram_read_bytes", 334848),
            ("dram_write_bytes", 0),
            ("l2_read_bytes", 142816),
            ("tex_read_bytes", 3008),
            ("tex_transactions", 4965),
            ("global_atomics", 0),
            ("global_atomics_int", 0),
            ("global_atomic_warp_conflicts", 0),
            ("shared_accesses", 0),
            ("shared_atomics", 0),
            ("shared_bank_conflicts", 0),
            ("shuffle_instructions", 0),
            ("divergent_instructions", 262),
            ("inactive_lanes", 6008),
            ("flops", 110),
            ("barriers", 0),
            ("kernel_launches", 1),
        ],
        atomic_addr_samples: &[],
        time_bits: [
            ("launch_ms", 0x3f747ae147ae147b),
            ("dram_ms", 0x3f6d06f9a446f466),
            ("l2_ms", 0x3f47c537ff931212),
            ("compute_ms", 0x3e914e4441ffbcf6),
            ("shared_ms", 0x0000000000000000),
            ("atomic_throughput_ms", 0x0000000000000000),
            ("atomic_serial_ms", 0x0000000000000000),
            ("total_ms", 0x3f817f2f0ce8c757),
        ],
    },
    Golden {
        name: "scatter",
        counters: [
            ("gld_instructions", 0),
            ("gld_transactions", 0),
            ("gst_instructions", 54),
            ("gst_transactions", 270),
            ("dram_read_bytes", 1248),
            ("dram_write_bytes", 39744),
            ("l2_read_bytes", 0),
            ("tex_read_bytes", 0),
            ("tex_transactions", 0),
            ("global_atomics", 1206),
            ("global_atomics_int", 648),
            ("global_atomic_warp_conflicts", 882),
            ("shared_accesses", 0),
            ("shared_atomics", 0),
            ("shared_bank_conflicts", 0),
            ("shuffle_instructions", 0),
            ("divergent_instructions", 0),
            ("inactive_lanes", 0),
            ("flops", 0),
            ("barriers", 0),
            ("kernel_launches", 1),
        ],
        atomic_addr_samples: &[
            (0x27d88, 1),
            (0x27d8c, 1),
            (0x27d98, 1),
            (0x27d9c, 3),
            (0x27da0, 2),
            (0x27dac, 1),
            (0x27db0, 2),
            (0x27db4, 1),
            (0x27db8, 1),
            (0x27dbc, 2),
            (0x27dc0, 1),
            (0x27dc4, 1),
            (0x27dd0, 1),
            (0x28d80, 2),
            (0x28d88, 1),
            (0x28da0, 1),
            (0x28db8, 1),
            (0x28dd0, 1),
            (0x28de0, 1),
            (0x28de8, 1),
            (0x28df0, 1),
            (0x28df8, 1),
            (0x28e00, 2),
            (0x28e08, 3),
            (0x28e18, 1),
            (0x28e40, 1),
            (0x28e48, 1),
            (0x28e58, 1),
            (0x28f38, 2),
            (0x28f48, 2),
            (0x291c0, 2),
            (0x29228, 2),
            (0x29278, 1),
            (0x292b0, 2),
            (0x292f0, 2),
            (0x29300, 2),
            (0x29378, 2),
            (0x29388, 2),
        ],
        time_bits: [
            ("launch_ms", 0x3f747ae147ae147b),
            ("dram_ms", 0x3f361c57bb4e93ef),
            ("l2_ms", 0x0000000000000000),
            ("compute_ms", 0x0000000000000000),
            ("shared_ms", 0x0000000000000000),
            ("atomic_throughput_ms", 0x3f50b630a915379f),
            ("atomic_serial_ms", 0x3fa40789613d31b9),
            ("total_ms", 0x3fa696e58a32f448),
        ],
    },
    Golden {
        name: "shared",
        counters: [
            ("gld_instructions", 0),
            ("gld_transactions", 0),
            ("gst_instructions", 20),
            ("gst_transactions", 65),
            ("dram_read_bytes", 0),
            ("dram_write_bytes", 2080),
            ("l2_read_bytes", 0),
            ("tex_read_bytes", 0),
            ("tex_transactions", 0),
            ("global_atomics", 0),
            ("global_atomics_int", 0),
            ("global_atomic_warp_conflicts", 0),
            ("shared_accesses", 1040),
            ("shared_atomics", 780),
            ("shared_bank_conflicts", 640),
            ("shuffle_instructions", 60),
            ("divergent_instructions", 0),
            ("inactive_lanes", 0),
            ("flops", 1560),
            ("barriers", 10),
            ("kernel_launches", 1),
        ],
        atomic_addr_samples: &[],
        time_bits: [
            ("launch_ms", 0x3f747ae147ae147b),
            ("dram_ms", 0x3ef83bd7765c1e3d),
            ("l2_ms", 0x0000000000000000),
            ("compute_ms", 0x3ed01b2b29a4692b),
            ("shared_ms", 0x3f36d5cfaacd9e84),
            ("atomic_throughput_ms", 0x0000000000000000),
            ("atomic_serial_ms", 0x0000000000000000),
            ("total_ms", 0x3f75e83e425aee63),
        ],
    },
    Golden {
        name: "gather",
        counters: [
            ("gld_instructions", 565),
            ("gld_transactions", 3399),
            ("gst_instructions", 0),
            ("gst_transactions", 0),
            ("dram_read_bytes", 295808),
            ("dram_write_bytes", 0),
            ("l2_read_bytes", 157952),
            ("tex_read_bytes", 3168),
            ("tex_transactions", 4965),
            ("global_atomics", 0),
            ("global_atomics_int", 0),
            ("global_atomic_warp_conflicts", 0),
            ("shared_accesses", 0),
            ("shared_atomics", 0),
            ("shared_bank_conflicts", 0),
            ("shuffle_instructions", 0),
            ("divergent_instructions", 262),
            ("inactive_lanes", 6008),
            ("flops", 110),
            ("barriers", 0),
            ("kernel_launches", 1),
        ],
        atomic_addr_samples: &[],
        time_bits: [
            ("launch_ms", 0x3f747ae147ae147b),
            ("dram_ms", 0x3f69a4989f1e3159),
            ("l2_ms", 0x3f4a4a2544a61961),
            ("compute_ms", 0x3e914e4441ffbcf6),
            ("shared_ms", 0x0000000000000000),
            ("atomic_throughput_ms", 0x0000000000000000),
            ("atomic_serial_ms", 0x0000000000000000),
            ("total_ms", 0x3f80a696cb9e9694),
        ],
    },
];

fn check(host_threads: usize) {
    let runs = launch_mix(host_threads);
    let rendered: String = runs.iter().map(render).collect();
    assert_eq!(runs.len(), GOLDEN.len(), "observed:\n{rendered}");
    for (s, want) in runs.iter().zip(GOLDEN) {
        let ctx = format!(
            "launch {} at {host_threads} host thread(s); observed:\n{rendered}",
            want.name
        );
        assert_eq!(s.name, want.name, "{ctx}");
        assert_eq!(counter_fields(&s.counters), want.counters, "{ctx}");
        let samples: Vec<(u64, u32)> = s
            .counters
            .atomic_addr_samples
            .iter()
            .map(|(&a, &n)| (a, n))
            .collect();
        assert_eq!(samples, want.atomic_addr_samples, "{ctx}");
        assert_eq!(time_fields(&s.time), want.time_bits, "{ctx}");
    }
}

#[test]
fn counters_match_pinned_values_on_one_host_thread() {
    check(1);
}

#[test]
fn counters_match_pinned_values_on_two_host_threads() {
    check(2);
}
