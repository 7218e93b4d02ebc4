//! Property tests on the execution engine: coalescing arithmetic, cache
//! behaviour, reduction correctness and occupancy monotonicity under
//! random inputs.

// Needs the real `proptest` crate: gated off in offline builds, where
// `proptest` resolves to a macro-less stub (see the workspace Cargo.toml).
#![cfg(feature = "proptest-tests")]

use fusedml_gpu_sim::{occupancy, DeviceSpec, Gpu, LaunchConfig, WARP_LANES};
use proptest::prelude::*;

fn gpu() -> Gpu {
    Gpu::with_host_threads(DeviceSpec::gtx_titan(), 1)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn strided_load_transaction_count_is_exact(stride in 1usize..64) {
        let g = gpu();
        let buf = g.try_upload_f64("x", &vec![1.0; 32 * stride]).unwrap();
        let stats = g.try_launch("strided", LaunchConfig::new(1, 32), |blk| {
            blk.each_warp(|w| {
                w.load_f64(&buf, |lane| Some(lane * stride));
            });
        }).unwrap();
        // Expected sectors: unique addr/32B among the 32 lanes.
        let mut sectors: Vec<u64> = (0..32u64)
            .map(|l| l * stride as u64 * 8 / 32)
            .collect();
        sectors.sort_unstable();
        sectors.dedup();
        prop_assert_eq!(stats.counters.gld_transactions, sectors.len() as u64);
    }

    #[test]
    fn shuffle_reduce_sums_random_values(
        vals in proptest::collection::vec(-100.0f64..100.0, 32),
        width_pow in 0u32..6,
    ) {
        let g = gpu();
        let width = 1usize << width_pow;
        let vals2 = vals.clone();
        g.try_launch("reduce", LaunchConfig::new(1, 32), move |blk| {
            blk.each_warp(|w| {
                let mut lanes = [0.0; WARP_LANES];
                lanes.copy_from_slice(&vals2);
                w.shuffle_reduce_sum(&mut lanes, width);
                for (lane, got) in lanes.iter().enumerate() {
                    let group = lane / width;
                    let expect: f64 =
                        vals2[group * width..(group + 1) * width].iter().sum();
                    assert!(
                        (got - expect).abs() < 1e-9,
                        "group {group} lane {lane}: {got} vs {expect}"
                    );
                }
            });
        }).unwrap();
    }

    #[test]
    fn atomic_adds_sum_exactly_over_grid(
        grid in 1usize..32,
        block in (1usize..33).prop_map(|b| b * 32),
    ) {
        let g = gpu();
        let out = g.try_alloc_f64("acc", 4).unwrap();
        let stats = g.try_launch("atomics", LaunchConfig::new(grid, block), |blk| {
            blk.each_warp(|w| {
                w.atomic_add_f64(&out, |lane| Some((lane % 4, 1.0)));
            });
        }).unwrap();
        let total: f64 = out.to_vec_f64().iter().sum();
        let threads = (grid * block) as f64;
        prop_assert!((total - threads).abs() < 1e-9);
        prop_assert_eq!(stats.counters.global_atomics, grid as u64 * block as u64);
    }

    #[test]
    fn occupancy_never_exceeds_device_limits(
        block in (1usize..33).prop_map(|b| b * 32),
        regs in 8u32..256,
        shared_kb in 0usize..49,
    ) {
        let spec = DeviceSpec::gtx_titan();
        if let Some(o) = occupancy(&spec, block, regs, shared_kb * 1024) {
            prop_assert!(o.warps_per_sm <= spec.max_warps_per_sm());
            prop_assert!(o.blocks_per_sm <= spec.max_blocks_per_sm);
            // Register file capacity respected.
            let warp_regs = ((regs as usize * 32).div_ceil(256)) * 256;
            prop_assert!(o.warps_per_sm * warp_regs <= spec.registers_per_sm);
            // Shared capacity respected.
            let granule = shared_kb.saturating_mul(1024).div_ceil(256) * 256;
            prop_assert!(o.blocks_per_sm * granule <= spec.shared_mem_per_sm);
            prop_assert!(o.occupancy > 0.0 && o.occupancy <= 1.0);
        }
    }

    #[test]
    fn store_then_load_roundtrips(
        n in 1usize..2000,
        seed in 0u64..100,
    ) {
        let g = gpu();
        let vals: Vec<f64> = (0..n).map(|i| (i as f64) * 1.5 + seed as f64).collect();
        let src = g.try_upload_f64("src", &vals).unwrap();
        let dst = g.try_alloc_f64("dst", n).unwrap();
        g.try_launch("copy", LaunchConfig::new(4, 128), |blk| {
            let grid_threads = blk.grid_dim() * blk.block_dim();
            blk.each_warp(|w| {
                let mut base = w.gtid(0);
                while base < n {
                    let v = w.load_f64(&src, |l| (base + l < n).then_some(base + l));
                    w.store_f64(&dst, |l| (base + l < n).then(|| (base + l, v[l])));
                    base += grid_threads;
                }
            });
        }).unwrap();
        prop_assert_eq!(dst.to_vec_f64(), vals);
    }
}

#[test]
fn cache_warmup_reduces_dram_traffic_on_second_launch() {
    let g = gpu();
    let buf = g.try_upload_f64("x", &vec![1.0; 8192]).unwrap();
    let run = || {
        g.try_launch("scan", LaunchConfig::new(1, 256), |blk| {
            blk.each_warp(|w| {
                let mut base = w.tid(0);
                while base < 8192 {
                    w.load_f64(&buf, |l| (base + l < 8192).then_some(base + l));
                    base += 256;
                }
            });
        })
        .unwrap()
    };
    g.flush_caches();
    let cold = run();
    let warm = run();
    assert!(warm.counters.dram_read_bytes < cold.counters.dram_read_bytes / 4);
    assert!(warm.counters.l2_read_bytes > cold.counters.l2_read_bytes);
}

#[test]
fn divergence_is_counted() {
    let g = Gpu::with_host_threads(DeviceSpec::gtx_titan(), 1);
    let buf = g.try_upload_f64("x", &vec![1.0; 64]).unwrap();
    // Half the lanes predicated off on every load.
    let stats = g
        .try_launch("divergent", LaunchConfig::new(1, 32), |blk| {
            blk.each_warp(|w| {
                w.load_f64(&buf, |lane| (lane % 2 == 0).then_some(lane));
            });
        })
        .unwrap();
    assert_eq!(stats.counters.divergent_instructions, 1);
    assert_eq!(stats.counters.inactive_lanes, 16);
    assert!((stats.counters.simd_efficiency() - 0.5).abs() < 1e-12);

    // Fully active loads do not count as divergent.
    let full = g
        .try_launch("full", LaunchConfig::new(1, 32), |blk| {
            blk.each_warp(|w| {
                w.load_f64(&buf, Some);
            });
        })
        .unwrap();
    assert_eq!(full.counters.divergent_instructions, 0);
    assert_eq!(full.counters.simd_efficiency(), 1.0);
}

#[test]
fn skewed_rows_diverge_more_than_uniform() {
    use fusedml_gpu_sim::GpuBuffer;
    let _: Option<GpuBuffer> = None; // type in scope for clarity
    let g = Gpu::with_host_threads(DeviceSpec::gtx_titan(), 1);
    // CSR-vector style marching emulation: warps loop to the longest row
    // in their group, masking finished lanes.
    let run = |lens: Vec<usize>| {
        let max = *lens.iter().max().unwrap();
        let data = g.try_upload_f64("d", &vec![1.0; 32 * max]).unwrap();
        let stats = g
            .try_launch("march", LaunchConfig::new(1, 32), |blk| {
                blk.each_warp(|w| {
                    for step in 0..max {
                        w.load_f64(&data, |lane| (step < lens[lane]).then(|| lane * max + step));
                    }
                });
            })
            .unwrap();
        stats.counters.simd_efficiency()
    };
    let uniform = run(vec![8; 32]);
    let mut skewed = vec![2; 32];
    skewed[0] = 64;
    let skew_eff = run(skewed);
    assert!((uniform - 1.0).abs() < 1e-12);
    assert!(skew_eff < 0.2, "skewed efficiency {skew_eff}");
}
