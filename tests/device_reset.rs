//! `Gpu::reset` returns a device to its just-built state: a launch mix on
//! a device that ran other work, took faults, was lost and then was reset
//! must be indistinguishable from the same mix on a new device. Compared
//! are every `Counters` field (the sampled atomic-address histogram
//! included), every `TimeBreakdown` bit, the output bits, the buffer
//! addresses, the integrity counters, the allocation accounting and the
//! fault counts. Under a fault profile, a reset device must draw exactly
//! the faults a new device built with that profile draws.
//!
//! The mix loads through L2 and the texture cache, stores, and issues f64
//! and u32 global atomics: a fused sparse pattern (Algorithms 1-2: `y`
//! through texture, the atomic flush of `w`) and the cuSPARSE-style
//! baseline pattern, whose device `csr2csc` scatters through u32
//! fetch-adds.
//!
//! The buffer pool is the one thing a reset keeps that can show: a
//! recycled block costs an integrity guard check and, under a corruption
//! profile, a fault draw. The earlier work therefore retains no block, so
//! both devices start the mix from an empty pool.

use fusedml_blas::{BaselineEngine, Flavor, GpuCsr};
use fusedml_core::{FusedExecutor, PatternSpec};
use fusedml_gpu_sim::{
    Counters, DeviceError, DeviceSpec, FaultCounts, FaultProfile, Gpu, LaunchStats, TimeBreakdown,
    DEFAULT_POOL_RETAIN_BYTES,
};
use fusedml_matrix::gen::{random_vector, uniform_sparse};
use fusedml_matrix::CsrMatrix;

/// One host thread: the reproducible simulation the goldens use.
fn titan() -> Gpu {
    Gpu::with_host_threads(DeviceSpec::gtx_titan(), 1).with_integrity_checks(true)
}

/// The host operands of `w = 1.25 X^T (v . (X y)) - 0.5 z`.
struct Inputs {
    x: CsrMatrix,
    y: Vec<f64>,
    v: Vec<f64>,
    z: Vec<f64>,
}

impl Inputs {
    fn new(rows: usize, cols: usize, seed: u64) -> Self {
        Inputs {
            x: uniform_sparse(rows, cols, 0.02, seed),
            y: random_vector(cols, seed + 1),
            v: random_vector(rows, seed + 2),
            z: random_vector(cols, seed + 3),
        }
    }
}

/// What one launch produced, down to the bits.
#[derive(Debug, PartialEq)]
struct Launch {
    name: &'static str,
    counters: Counters,
    time_bits: [u64; 8],
}

impl Launch {
    fn of(s: &LaunchStats) -> Self {
        // No `..`: a new component fails to compile here until compared.
        let TimeBreakdown {
            launch_ms,
            dram_ms,
            l2_ms,
            compute_ms,
            shared_ms,
            atomic_throughput_ms,
            atomic_serial_ms,
            total_ms,
        } = s.time;
        Launch {
            name: s.name,
            counters: s.counters.clone(),
            time_bits: [
                launch_ms,
                dram_ms,
                l2_ms,
                compute_ms,
                shared_ms,
                atomic_throughput_ms,
                atomic_serial_ms,
                total_ms,
            ]
            .map(f64::to_bits),
        }
    }
}

/// What one pass of the mix produced.
#[derive(Debug, PartialEq)]
struct Run {
    launches: Vec<Launch>,
    /// Bits of the fused output, the baseline output and its scratch.
    outputs: Vec<Vec<u64>>,
    /// Base address of every buffer the mix allocated itself.
    addresses: Vec<u64>,
}

/// Upload the operands, then evaluate the pattern fused and through the
/// baseline operators.
fn launch_mix(g: &Gpu, input: &Inputs) -> Result<Run, DeviceError> {
    let (m, n) = (input.x.rows(), input.x.cols());
    let x = GpuCsr::try_upload(g, "x", &input.x)?;
    let y = g.try_upload_f64("y", &input.y)?;
    let v = g.try_upload_f64("v", &input.v)?;
    let z = g.try_upload_f64("z", &input.z)?;
    let w_fused = g.try_alloc_f64("w_fused", n)?;
    let w_base = g.try_alloc_f64("w_base", n)?;
    let p = g.try_alloc_f64("p", m)?;
    let mut fused = FusedExecutor::new(g);
    fused.try_pattern_sparse(
        PatternSpec::full(1.25, -0.5),
        &x,
        Some(&v),
        &y,
        Some(&z),
        &w_fused,
    )?;
    let mut base = BaselineEngine::try_new(g, Flavor::CuLibs)?;
    base.try_pattern_sparse(1.25, &x, Some(&v), &y, -0.5, Some(&z), &w_base, &p)?;
    Ok(Run {
        launches: fused
            .launches
            .iter()
            .chain(&base.launches)
            .map(Launch::of)
            .collect(),
        outputs: [&w_fused, &w_base, &p]
            .map(|b| b.to_vec_f64().into_iter().map(f64::to_bits).collect())
            .to_vec(),
        addresses: [
            &x.row_off, &x.col_idx, &x.values, &y, &v, &z, &w_fused, &w_base, &p,
        ]
        .map(|b| b.base_addr())
        .to_vec(),
    })
}

/// A device with a history: under a fault profile it ran other work
/// until it was lost, taking kernel faults and caught corruptions on the
/// way, and its allocations were never freed.
fn used_device() -> Gpu {
    let g = titan().with_fault_profile(
        FaultProfile::seeded(3)
            .with_kernel_fault_rate(0.3)
            .with_corruption_rate(0.3)
            .with_device_loss_rate(0.1),
    );
    g.set_pool_retain_bytes(0);
    let other = Inputs::new(2000, 300, 40);
    for _ in 0..100 {
        if g.is_lost() {
            break;
        }
        let _ = launch_mix(&g, &other);
    }
    let counts = g.faults().counts();
    assert!(g.is_lost(), "the device must end lost");
    assert_eq!(counts.device_losses, 1);
    assert!(counts.kernel_faults > 0, "{counts:?}");
    assert!(counts.corruptions > 0, "{counts:?}");
    let integrity = g.integrity_stats();
    assert!(
        integrity.checks > 0 && integrity.violations > 0,
        "{integrity:?}"
    );
    assert!(g.allocated_bytes() > 0);
    g.set_pool_retain_bytes(DEFAULT_POOL_RETAIN_BYTES);
    g
}

/// The device-level state two devices must agree on after the same passes.
fn assert_same_device_state(fresh: &Gpu, reset: &Gpu) {
    assert_eq!(fresh.integrity_stats(), reset.integrity_stats());
    assert_eq!(fresh.faults().counts(), reset.faults().counts());
    assert_eq!(fresh.allocated_bytes(), reset.allocated_bytes());
    assert_eq!(fresh.is_lost(), reset.is_lost());
}

#[test]
fn a_reset_device_runs_a_launch_mix_exactly_like_a_new_one() {
    let input = Inputs::new(3000, 256, 1);
    let fresh = titan();
    let expected = launch_mix(&fresh, &input).unwrap();

    // The mix exercises every cache and atomic path a reset must clear.
    let mut total = Counters::new();
    for l in &expected.launches {
        total.merge(&l.counters);
    }
    assert!(total.tex_read_bytes > 0, "{total:?}");
    assert!(total.l2_read_bytes > 0, "{total:?}");
    assert!(total.gst_transactions > 0, "{total:?}");
    assert!(total.global_atomics > 0, "{total:?}");
    assert!(total.global_atomics_int > 0, "{total:?}");
    assert!(!total.atomic_addr_samples.is_empty(), "{total:?}");

    let mut reused = used_device();
    reused.reset(FaultProfile::disabled());
    assert!(!reused.is_lost());
    assert_eq!(reused.allocated_bytes(), 0);
    let got = launch_mix(&reused, &input).unwrap();
    assert_eq!(got.addresses, expected.addresses);
    assert_eq!(got.outputs, expected.outputs);
    assert_eq!(got.launches.len(), expected.launches.len());
    for (g, e) in got.launches.iter().zip(&expected.launches) {
        assert_eq!(g, e, "launch {}", e.name);
    }
    assert_same_device_state(&fresh, &reused);
}

#[test]
fn a_reset_device_draws_the_faults_of_a_new_one_with_its_profile() {
    let profile = FaultProfile::seeded(0xfee1)
        .with_kernel_fault_rate(0.04)
        .with_alloc_fault_rate(0.02)
        .with_corruption_rate(0.015)
        .with_straggler(0.2, 3.0)
        .for_device(7);
    let input = Inputs::new(1500, 192, 11);
    let passes = |g: &Gpu| -> Vec<Result<Run, DeviceError>> {
        (0..12).map(|_| launch_mix(g, &input)).collect()
    };

    let fresh = titan().with_fault_profile(profile.clone());
    let expected = passes(&fresh);
    assert_ne!(
        fresh.faults().counts(),
        FaultCounts::default(),
        "the profile must fire"
    );
    assert!(
        expected.iter().any(Result::is_ok),
        "some pass must complete"
    );
    assert!(expected.iter().any(Result::is_err), "some pass must fault");

    let mut reused = used_device();
    reused.reset(profile);
    assert_eq!(passes(&reused), expected);
    assert_same_device_state(&fresh, &reused);
}
