//! # fusedml-gpu-sim
//!
//! A functional + performance-modelling GPU simulator: the hardware
//! substrate for the PPoPP'15 *kernel fusion* reproduction.
//!
//! The simulator executes CUDA-style kernels written as Rust closures over a
//! block/warp/lane execution model, producing **real numeric results** while
//! counting the microarchitectural events the paper's argument rests on:
//!
//! * warp-level global memory coalescing (32-byte sector transactions — the
//!   metric of the paper's Fig. 2-bottom),
//! * per-SM L2 and read-only (texture) cache behaviour — the temporal
//!   locality exploited by the fused kernels (§3),
//! * shared-memory traffic and bank conflicts (§3.2),
//! * global/shared `atomicAdd` counts with same-address contention —
//!   the cost hierarchy motivating register → shared → global aggregation,
//! * warp shuffle instructions and floating-point operation counts,
//! * occupancy per the CUDA occupancy calculator (needed by §3.3's
//!   launch-parameter model).
//!
//! A roofline timing model ([`timing`]) converts counters into simulated
//! milliseconds so experiments can reproduce the *shape* of the paper's
//! results without NVIDIA hardware.
//!
//! ```
//! use fusedml_gpu_sim::{Gpu, DeviceSpec, LaunchConfig};
//!
//! let gpu = Gpu::new(DeviceSpec::gtx_titan());
//! let x = gpu.try_upload_f64("x", &[1.0, 2.0, 3.0, 4.0])?;
//! let out = gpu.try_alloc_f64("out", 1)?;
//! let stats = gpu.try_launch("sum", LaunchConfig::new(1, 32), |blk| {
//!     blk.each_warp(|w| {
//!         let mut v = w.load_f64(&x, |lane| (lane < 4).then_some(lane));
//!         w.shuffle_reduce_sum(&mut v, 32);
//!         w.store_f64(&out, |lane| (lane == 0).then_some((0, v[0])));
//!     });
//! })?;
//! assert_eq!(out.host_read_f64(0), 10.0);
//! assert!(stats.sim_ms() > 0.0);
//! # Ok::<(), fusedml_gpu_sim::DeviceError>(())
//! ```

// Lane-indexed loops over multiple parallel arrays are the natural idiom
// for warp-level kernel code; iterator zips would obscure the SIMT shape.
#![allow(clippy::needless_range_loop)]
// Simulator/kernels code surfaces failures as typed errors; each panic left
// is an allowed misuse or invariant check. Bare ones are for tests only.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic))]

pub mod cache;
pub mod copyengine;
pub mod cost;
pub mod counters;
pub mod device;
pub mod error;
pub mod exec;
pub mod fault;
pub mod footprint;
pub mod group;
pub mod memory;
pub mod occupancy;
pub mod pool;
pub mod profile;
pub mod shared;
pub mod timing;

pub use copyengine::{
    pipeline_wall, ChunkCost, CopyEngine, CopyEngineSpec, CopyEngineStats, PipelineModel,
};
pub use cost::{estimate_fused_kernel, estimate_plan_ms, ChainOp, KernelEstimate};
pub use counters::{AggregationBreakdown, Counters};
pub use device::DeviceSpec;
pub use error::DeviceError;
pub use exec::{
    for_each_lane, BlockCtx, Gpu, IntegrityStats, LaunchConfig, LaunchStats, Shared, WarpCtx,
    WARP_LANES,
};
pub use fault::{FaultCounts, FaultInjector, FaultProfile, MemoryPressure};
pub use footprint::{BankConflicts, Footprints, LoadFootprint};
pub use group::{DeviceGroup, InterconnectStats};
pub use memory::{fnv1a_cells, Elem, GpuBuffer};
pub use occupancy::{occupancy, Limiter, Occupancy};
pub use pool::{DevicePool, PoolStats, DEFAULT_POOL_RETAIN_BYTES};
pub use profile::profile_report;
pub use timing::{CpuSpec, InterconnectSpec, PcieSpec, TimeBreakdown, LATENCY_HIDING_KNEE};
