//! The SIMT execution engine.
//!
//! Kernels are ordinary Rust functions written at *block scope*: uniform
//! control flow (loops over the coarsening factor, phases between barriers)
//! is plain Rust; per-lane work runs inside warp-granular operations issued
//! through [`WarpCtx`]. This matches how the paper's kernels are structured —
//! every `synchronize()` site in Algorithms 1–3 is block-uniform — and makes
//! memory coalescing exact: each warp instruction supplies per-lane
//! addresses, from which 32-byte sector counts and cache behaviour follow.
//!
//! Blocks are assigned round-robin to simulated SMs; host worker threads own
//! disjoint sets of SMs, so per-SM cache state evolves deterministically
//! regardless of host scheduling. Global `atomicAdd` remains correct under
//! host parallelism because device buffers are atomic cells.

use crate::cache::CacheModel;
use crate::counters::Counters;
use crate::device::DeviceSpec;
use crate::error::DeviceError;
use crate::fault::{FaultInjector, FaultProfile};
use crate::footprint::{BankConflicts, LoadFootprint};
use crate::memory::{add_f64, Elem, GpuBuffer};
use crate::occupancy::{occupancy, Occupancy};
use crate::pool::{BufferPool, DevicePool, PoolStats};
use crate::shared::{bank_conflict_replays, replays_and_repeats};
use crate::timing::{kernel_time, TimeBreakdown};
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of lanes in a warp. Fixed at 32 like every NVIDIA architecture.
pub const WARP_LANES: usize = 32;

/// The lowest simulated address a device hands out; non-zero so address 0
/// is never valid. The first buffer starts at the first line boundary at
/// or above it (see [`Gpu::first_addr`]).
const BASE_ADDR: u64 = 0x1000;

/// The number of bits set in each 4-bit sector mask.
const SECTORS_IN_MASK: [u8; 16] = [0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4];

/// Launch geometry and static footprint of a kernel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaunchConfig {
    /// Number of thread blocks in the grid.
    pub grid_blocks: usize,
    /// Threads per block.
    pub block_threads: usize,
    /// Registers per thread (drives occupancy; the paper reads these off
    /// the NVIDIA profiler — our kernels declare the same numbers).
    pub regs_per_thread: u32,
    /// Static shared memory per block in bytes.
    pub shared_bytes: usize,
    /// Independent memory operations in flight per thread — the
    /// instruction-level parallelism the paper's TL-way unrolling creates.
    /// Together with occupancy this determines how much memory latency the
    /// kernel can hide (Volkov: high ILP compensates low occupancy).
    pub ilp: f64,
}

impl LaunchConfig {
    pub fn new(grid_blocks: usize, block_threads: usize) -> Self {
        LaunchConfig {
            grid_blocks,
            block_threads,
            regs_per_thread: 32,
            shared_bytes: 0,
            ilp: 1.0,
        }
    }

    pub fn with_ilp(mut self, ilp: f64) -> Self {
        assert!(ilp >= 1.0);
        self.ilp = ilp;
        self
    }

    pub fn with_regs(mut self, regs: u32) -> Self {
        self.regs_per_thread = regs;
        self
    }

    pub fn with_shared_bytes(mut self, bytes: usize) -> Self {
        self.shared_bytes = bytes;
        self
    }

    /// Total threads in the grid.
    pub fn grid_threads(&self) -> usize {
        self.grid_blocks * self.block_threads
    }
}

/// Outcome of one simulated kernel launch.
#[derive(Debug, Clone)]
pub struct LaunchStats {
    /// Kernel name. Kernels are a fixed set known at compile time, so the
    /// name is a static borrow — recording a launch allocates nothing.
    pub name: &'static str,
    pub config: LaunchConfig,
    pub occupancy: Occupancy,
    pub counters: Counters,
    pub time: TimeBreakdown,
}

impl LaunchStats {
    /// Simulated execution time in milliseconds.
    pub fn sim_ms(&self) -> f64 {
        self.time.total_ms
    }
}

/// Per-SM microarchitectural state that persists across launches
/// (an L2 slice and the read-only/texture cache).
struct SmState {
    l2: CacheModel,
    tex: CacheModel,
    /// Running atomic count on this SM (drives deterministic histogram
    /// sampling independent of host-thread partitioning).
    atomic_phase: u64,
    /// Dedup buffer of the warp instruction being accounted. Each
    /// instruction clears it, which is two stores: what lies past its
    /// length is never read, so it is zeroed once, here, not per
    /// instruction.
    dedup: FirstSeen,
}

/// Cumulative integrity-layer traffic: how many buffers were verified, how
/// many bytes were digested, and how many verifications caught a flip. The
/// checks/bytes counters are the checksum-overhead accounting — what the
/// defense costs even on clean runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IntegrityStats {
    pub checks: u64,
    pub bytes_checked: u64,
    pub violations: u64,
}

/// The simulated GPU: owns device memory allocation and per-SM state.
pub struct Gpu {
    /// Shared, not cloned: several simulated devices (and their buffers)
    /// can borrow one spec, so constructing a `Gpu` per bench variant does
    /// not deep-copy the device description each time.
    spec: Arc<DeviceSpec>,
    next_addr: AtomicU64,
    /// Where the bump allocator must stop: the first address the SMs'
    /// caches cannot tag (see [`CacheModel::addr_limit`]).
    addr_limit: u64,
    allocated_bytes: AtomicU64,
    pool: Arc<BufferPool>,
    sms: Mutex<Vec<SmState>>,
    host_threads: usize,
    faults: FaultInjector,
    integrity: AtomicBool,
    integrity_checks: AtomicU64,
    integrity_bytes: AtomicU64,
    integrity_violations: AtomicU64,
    /// Position of this device within a [`crate::DeviceGroup`] (0 for a
    /// standalone device).
    ordinal: usize,
    /// Trace track name ("device" standalone, "deviceN" in a group).
    track: String,
    /// Sticky device-loss flag: once set, every operation fails with
    /// [`DeviceError::DeviceLost`] without consuming fault draws.
    lost: AtomicBool,
    /// The draw index that killed the device (meaningful once `lost`).
    lost_at_draw: AtomicU64,
}

impl Gpu {
    /// Accepts either an owned [`DeviceSpec`] or an `Arc<DeviceSpec>`; the
    /// latter shares the spec without cloning it per construction.
    pub fn new(spec: impl Into<Arc<DeviceSpec>>) -> Self {
        let spec = spec.into();
        let host_threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(spec.num_sms);
        Self::with_host_threads(spec, host_threads)
    }

    /// Create a GPU whose blocks are simulated by exactly `host_threads`
    /// worker threads (1 = fully sequential, maximally reproducible).
    ///
    /// # Panics
    /// If [`DeviceSpec::validate`] rejects `spec`.
    // A spec that cannot describe a device is a construction-time misuse;
    // callers that build specs from input check them with `validate` first.
    #[allow(clippy::panic)]
    pub fn with_host_threads(spec: impl Into<Arc<DeviceSpec>>, host_threads: usize) -> Self {
        let spec = spec.into();
        // Each SM gets a private view of the whole L2, not 1/num_sms of
        // it: the real L2 is a shared, address-interleaved cache, so shared
        // hot structures (the y/v/w vectors) see all of it. `CacheModel`
        // rounds the set count down to a power of two, so on the GTX Titan
        // (768 sets of 16 ways) each view holds 512 sets, 1 MiB of the
        // 1.5 MB, and the texture view 32 of its 48 KiB. Private streams (a
        // vector's CSR rows) have reuse distances far below either size,
        // and the multi-megabyte matrices the experiments stream exceed
        // both. Keeping the state per-SM preserves deterministic simulation
        // under host-thread parallelism (see the module docs).
        //
        // Checked here so a bad spec fails when the device is built, not
        // at its first memory instruction mid-launch.
        if let Err(msg) = spec.validate() {
            panic!("{msg}");
        }
        let sms: Vec<SmState> = (0..spec.num_sms)
            .map(|_| SmState {
                l2: CacheModel::new(spec.l2_bytes, spec.cache_line_bytes, spec.l2_ways),
                tex: CacheModel::new(spec.tex_cache_per_sm, spec.cache_line_bytes, 4),
                atomic_phase: 0,
                dedup: FirstSeen::new(),
            })
            .collect();
        let addr_limit = sms
            .iter()
            .flat_map(|sm| [sm.l2.addr_limit(), sm.tex.addr_limit()])
            .min()
            .unwrap_or(u64::MAX);
        let first_addr = Self::first_addr(&spec);
        Gpu {
            spec,
            next_addr: AtomicU64::new(first_addr),
            addr_limit,
            allocated_bytes: AtomicU64::new(0),
            pool: Arc::new(BufferPool::new()),
            sms: Mutex::new(sms),
            host_threads: host_threads.max(1),
            faults: FaultInjector::disabled(),
            integrity: AtomicBool::new(false),
            integrity_checks: AtomicU64::new(0),
            integrity_bytes: AtomicU64::new(0),
            integrity_violations: AtomicU64::new(0),
            ordinal: 0,
            track: "device".to_string(),
            lost: AtomicBool::new(false),
            lost_at_draw: AtomicU64::new(0),
        }
    }

    /// Place this device at position `ordinal` of a multi-device group
    /// (builder style): its trace events land on a per-device track
    /// (`device0`, `device1`, …) instead of the shared `device` track.
    pub fn with_ordinal(mut self, ordinal: usize) -> Self {
        self.ordinal = ordinal;
        self.track = format!("device{ordinal}");
        self
    }

    /// Position of this device within its group (0 standalone).
    pub fn ordinal(&self) -> usize {
        self.ordinal
    }

    /// Trace track this device's events land on.
    pub fn track(&self) -> &str {
        &self.track
    }

    /// Whether this device has been lost (injected device-loss fault or
    /// [`Gpu::mark_lost`]). Sticky for the life of the device.
    pub fn is_lost(&self) -> bool {
        self.lost.load(Ordering::Relaxed)
    }

    /// Administratively kill the device: every later operation fails with
    /// [`DeviceError::DeviceLost`]. Used by chaos tests and the device
    /// group; injected losses set the same flag.
    pub fn mark_lost(&self) {
        self.lost.store(true, Ordering::Relaxed);
    }

    /// Fail fast when the device is lost, without consuming fault draws
    /// (a dead device makes no draws — keeps sibling streams unshifted).
    fn check_lost(&self) -> Result<(), DeviceError> {
        if self.lost.load(Ordering::Relaxed) {
            Err(DeviceError::DeviceLost {
                device: self.ordinal,
                fault_index: self.lost_at_draw.load(Ordering::Relaxed),
            })
        } else {
            Ok(())
        }
    }

    /// Attach a fault-injection profile (builder style; the default device
    /// injects nothing).
    pub fn with_fault_profile(mut self, profile: FaultProfile) -> Self {
        self.faults = FaultInjector::new(profile);
        self
    }

    /// Share a [`DevicePool`] with this device (builder style), replacing
    /// its private pool. Several `Gpu` instances simulating the same
    /// physical device can then recycle each other's freed buffers — the
    /// caching-allocator model, where the pool outlives any one context.
    /// Modeled counters are unaffected: addresses still come from this
    /// device's own bump allocator.
    pub fn with_shared_pool(mut self, pool: &DevicePool) -> Self {
        self.pool = Arc::clone(pool.inner());
        self.pool.note_attach();
        self
    }

    /// Enable or disable the integrity layer (builder style). Off by
    /// default: with checks off, uploads and pooled reuse skip checksum and
    /// guard verification entirely, so the device is bit-identical to one
    /// built before the integrity layer existed.
    pub fn with_integrity_checks(self, enabled: bool) -> Self {
        self.integrity.store(enabled, Ordering::Relaxed);
        self
    }

    /// Toggle the integrity layer at run time.
    pub fn set_integrity_checks(&self, enabled: bool) {
        self.integrity.store(enabled, Ordering::Relaxed);
    }

    /// Cumulative integrity-layer traffic for this device.
    pub fn integrity_stats(&self) -> IntegrityStats {
        IntegrityStats {
            checks: self.integrity_checks.load(Ordering::Relaxed),
            bytes_checked: self.integrity_bytes.load(Ordering::Relaxed),
            violations: self.integrity_violations.load(Ordering::Relaxed),
        }
    }

    /// The device's fault injector (disabled unless a profile was attached).
    pub fn faults(&self) -> &FaultInjector {
        &self.faults
    }

    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    /// The address of the first buffer on a device of `spec`: the first
    /// line boundary at or above [`BASE_ADDR`]. With every allocation's
    /// span a whole number of lines too, every buffer starts on a line, as
    /// `cudaMalloc`'s (at least 256-byte aligned) buffers do.
    fn first_addr(spec: &DeviceSpec) -> u64 {
        BASE_ADDR.next_multiple_of(spec.cache_line_bytes as u64)
    }

    /// Bytes of device memory currently allocated.
    pub fn allocated_bytes(&self) -> u64 {
        self.allocated_bytes.load(Ordering::Relaxed)
    }

    fn alloc(&self, name: &str, elem: Elem, len: usize) -> Result<GpuBuffer, DeviceError> {
        self.check_lost()?;
        let bytes = len as u64 * elem.bytes();
        let in_use = self.allocated_bytes.load(Ordering::Relaxed);
        let capacity = self.spec.global_mem_bytes as u64;
        if self.faults.draw_alloc_fault().is_some() {
            if fusedml_trace::is_enabled() {
                fusedml_trace::instant(
                    "fault",
                    "alloc.injected",
                    &self.track,
                    &[("buffer", name.into()), ("requested_bytes", bytes.into())],
                );
            }
            return Err(DeviceError::AllocFailed {
                name: name.to_string(),
                requested_bytes: bytes,
                allocated_bytes: in_use,
                capacity_bytes: capacity,
                injected: true,
            });
        }
        // Memory pressure shrinks the effective capacity once the model's
        // allocation threshold is crossed. With pressure off the reserve is
        // zero and this is exactly the old capacity check.
        self.faults.note_alloc_request();
        let reserved = self.faults.reserved_bytes(capacity);
        let effective = capacity.saturating_sub(reserved);
        if in_use + bytes > effective {
            let pressure = reserved > 0 && in_use + bytes <= capacity;
            if pressure {
                self.faults.note_pressure_rejection();
            }
            if fusedml_trace::is_enabled() {
                fusedml_trace::instant(
                    "fault",
                    if pressure {
                        "alloc.pressure"
                    } else {
                        "alloc.capacity"
                    },
                    &self.track,
                    &[
                        ("buffer", name.into()),
                        ("requested_bytes", bytes.into()),
                        ("allocated_bytes", in_use.into()),
                        ("reserved_bytes", reserved.into()),
                    ],
                );
            }
            return Err(DeviceError::AllocFailed {
                name: name.to_string(),
                requested_bytes: bytes,
                allocated_bytes: in_use,
                capacity_bytes: effective,
                injected: false,
            });
        }
        // Pad allocations to cache-line multiples like cudaMalloc does,
        // and to at least 128 bytes, rounded up to a whole line too, so the
        // next buffer starts on a line whatever the line size (an empty
        // buffer included). The base address is drawn from the bump
        // allocator on *every* allocation — pool hit or miss — so the
        // address stream feeding the cache models is identical to an
        // unpooled allocator's and modeled counters stay bit-identical with
        // pooling enabled.
        let line = self.spec.cache_line_bytes as u64;
        let span = bytes.max(128).next_multiple_of(line);
        // The bump allocator stops short of the caches' tag range: a line
        // past it would alias a lower one, so the allocation fails instead.
        let base = self
            .next_addr
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |next| {
                next.checked_add(span).filter(|&end| end <= self.addr_limit)
            })
            .map_err(|next_addr| DeviceError::AddressSpaceExhausted {
                name: name.to_string(),
                requested_bytes: bytes,
                next_addr,
                limit: self.addr_limit,
            })?;
        self.allocated_bytes.fetch_add(bytes, Ordering::Relaxed);
        let recycled = self.pool.acquire(len);
        if fusedml_trace::is_enabled() {
            let outcome = if recycled.is_some() {
                "pool.hit"
            } else {
                "pool.miss"
            };
            fusedml_trace::instant(
                "mem",
                outcome,
                &self.track,
                &[("buffer", name.into()), ("bytes", bytes.into())],
            );
        }
        let from_pool = recycled.is_some();
        let buf = GpuBuffer::with_pool(name, base, elem, len, Arc::downgrade(&self.pool), recycled);
        // Pooled reuse is a corruption opportunity: the recycled block was
        // zeroed, but a bit may flip between the clear and first use. The
        // integrity layer's guard check is that the prefix reads back
        // all-zero — exhaustive for this class, since flips only target the
        // logical prefix.
        if from_pool {
            let injected = self.faults.draw_corruption().inspect(|&fault_index| {
                if len > 0 {
                    let (elem_idx, bit) = self.faults.corruption_site(fault_index, len);
                    buf.corrupt_bit(elem_idx, bit);
                }
                if fusedml_trace::is_enabled() {
                    fusedml_trace::instant(
                        "fault",
                        "mem.corruption",
                        &self.track,
                        &[
                            ("buffer", name.into()),
                            ("stage", "pool-reuse".into()),
                            ("fault_index", fault_index.into()),
                        ],
                    );
                }
            });
            if self.integrity.load(Ordering::Relaxed) {
                self.integrity_checks.fetch_add(1, Ordering::Relaxed);
                self.integrity_bytes.fetch_add(bytes, Ordering::Relaxed);
                let guard_violated = (0..len).any(|i| buf.raw_load(i) != 0);
                if guard_violated {
                    self.integrity_violations.fetch_add(1, Ordering::Relaxed);
                    // Roll back the accounting: the failed allocation must
                    // leave the device book-keeping where it started.
                    self.allocated_bytes.fetch_sub(bytes, Ordering::Relaxed);
                    if fusedml_trace::is_enabled() {
                        fusedml_trace::instant(
                            "fault",
                            "integrity.violation",
                            &self.track,
                            &[("buffer", name.into()), ("stage", "pool-reuse".into())],
                        );
                    }
                    return Err(DeviceError::DataCorruption {
                        buffer: name.to_string(),
                        stage: "pool-reuse",
                        fault_index: injected.unwrap_or_default(),
                    });
                }
            }
        }
        Ok(buf)
    }

    /// Inject (maybe) a transfer corruption into a just-uploaded buffer and
    /// run the H2D integrity verification: FNV-1a of the device cells
    /// against the digest of the host cells that were copied in. On a
    /// caught flip, the allocation's accounting is rolled back and the
    /// caller gets [`DeviceError::DataCorruption`].
    fn corrupt_and_verify_h2d(
        &self,
        buf: &GpuBuffer,
        host_digest: impl FnOnce() -> u64,
    ) -> Result<(), DeviceError> {
        let injected = self.faults.draw_corruption().inspect(|&fault_index| {
            if !buf.is_empty() {
                let (elem_idx, bit) = self.faults.corruption_site(fault_index, buf.len());
                buf.corrupt_bit(elem_idx, bit);
            }
            if fusedml_trace::is_enabled() {
                fusedml_trace::instant(
                    "fault",
                    "mem.corruption",
                    &self.track,
                    &[
                        ("buffer", buf.name().into()),
                        ("stage", "h2d".into()),
                        ("fault_index", fault_index.into()),
                    ],
                );
            }
        });
        if !self.integrity.load(Ordering::Relaxed) {
            return Ok(());
        }
        self.integrity_checks.fetch_add(1, Ordering::Relaxed);
        self.integrity_bytes
            .fetch_add(buf.size_bytes(), Ordering::Relaxed);
        if buf.fnv_checksum() != host_digest() {
            self.integrity_violations.fetch_add(1, Ordering::Relaxed);
            self.free(buf);
            if fusedml_trace::is_enabled() {
                fusedml_trace::instant(
                    "fault",
                    "integrity.violation",
                    &self.track,
                    &[("buffer", buf.name().into()), ("stage", "h2d".into())],
                );
            }
            return Err(DeviceError::DataCorruption {
                buffer: buf.name().to_string(),
                stage: "h2d",
                fault_index: injected.unwrap_or_default(),
            });
        }
        Ok(())
    }

    /// Cumulative buffer-pool traffic for this device.
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// Cap the host bytes the buffer pool retains in its free lists
    /// (default [`crate::pool::DEFAULT_POOL_RETAIN_BYTES`]). `0` disables
    /// recycling entirely: every freed block returns to the host allocator.
    pub fn set_pool_retain_bytes(&self, bytes: u64) {
        self.pool.set_retain_cap(bytes);
    }

    /// Allocate an uninitialized (zeroed) f64 buffer, reporting injected or
    /// capacity allocation failures.
    pub fn try_alloc_f64(&self, name: &str, len: usize) -> Result<GpuBuffer, DeviceError> {
        self.alloc(name, Elem::F64, len)
    }

    /// Allocate an uninitialized (zeroed) u32 buffer, reporting injected or
    /// capacity allocation failures.
    pub fn try_alloc_u32(&self, name: &str, len: usize) -> Result<GpuBuffer, DeviceError> {
        self.alloc(name, Elem::U32, len)
    }

    /// Allocate and fill from a host slice (simulated H2D copy), reporting
    /// failures. Subject to the corruption fault class
    /// and, when enabled, the H2D integrity verification.
    pub fn try_upload_f64(&self, name: &str, data: &[f64]) -> Result<GpuBuffer, DeviceError> {
        let b = self.try_alloc_f64(name, data.len())?;
        b.copy_from_f64(data);
        self.corrupt_and_verify_h2d(&b, || {
            crate::memory::fnv1a_cells(data.iter().map(|v| v.to_bits()))
        })?;
        Ok(b)
    }

    /// See [`Gpu::try_upload_f64`].
    pub fn try_upload_u32(&self, name: &str, data: &[u32]) -> Result<GpuBuffer, DeviceError> {
        let b = self.try_alloc_u32(name, data.len())?;
        b.copy_from_u32(data);
        self.corrupt_and_verify_h2d(&b, || {
            crate::memory::fnv1a_cells(data.iter().map(|&v| u64::from(v)))
        })?;
        Ok(b)
    }

    /// Release accounting for a buffer (the backing store frees when the
    /// last handle drops; this updates the device-memory book-keeping used
    /// by the runtime memory manager).
    pub fn free(&self, buf: &GpuBuffer) {
        self.allocated_bytes
            .fetch_sub(buf.size_bytes(), Ordering::Relaxed);
    }

    /// Drop all cache state (useful for experiment isolation). O(1) per
    /// cache.
    pub fn flush_caches(&self) {
        let mut sms = self.sms.lock().unwrap_or_else(|e| e.into_inner());
        for sm in sms.iter_mut() {
            sm.l2.flush();
            sm.tex.flush();
        }
    }

    /// Each SM's L2 and texture-cache hits so far, as `(l2, tex)`: every
    /// probe that found its line, and every repeat hit that closed-form
    /// accounting counts without probing. Two ways of issuing the same
    /// accesses must leave these equal.
    pub fn cache_hits(&self) -> Vec<(u64, u64)> {
        let sms = self.sms.lock().unwrap_or_else(|e| e.into_inner());
        sms.iter().map(|sm| (sm.l2.hits(), sm.tex.hits())).collect()
    }

    /// Return the device to its just-built state under a new fault
    /// profile, so one device can serve many independent runs.
    ///
    /// Reset: both caches of every SM are flushed and its atomic phase
    /// zeroed, the bump allocator restarts at its first address, the
    /// allocation and integrity counters are zeroed, the device is no
    /// longer lost, and a new injector draws from `faults`. Kept: the
    /// spec, the worker count, the pool, the integrity setting, the
    /// ordinal and the track.
    ///
    /// A launch mix run after a reset produces the counters, outputs and
    /// buffer addresses of a fresh device built with the same profile.
    /// Buffers from before the reset must be dropped first: their
    /// addresses are handed out again.
    pub fn reset(&mut self, faults: FaultProfile) {
        let sms = self.sms.get_mut().unwrap_or_else(|e| e.into_inner());
        for sm in sms.iter_mut() {
            sm.l2.flush();
            sm.tex.flush();
            sm.atomic_phase = 0;
        }
        *self.next_addr.get_mut() = Self::first_addr(&self.spec);
        *self.allocated_bytes.get_mut() = 0;
        *self.integrity_checks.get_mut() = 0;
        *self.integrity_bytes.get_mut() = 0;
        *self.integrity_violations.get_mut() = 0;
        *self.lost.get_mut() = false;
        *self.lost_at_draw.get_mut() = 0;
        self.faults = FaultInjector::new(faults);
    }

    /// Launch a kernel. The kernel closure runs once per block, in
    /// round-robin SM order, possibly in parallel across host threads.
    /// Launch-configuration rejection (block too large, register or
    /// shared-memory footprint over the limits, mirroring a CUDA launch
    /// failure), injected transient faults and watchdog timeouts are
    /// reported as [`DeviceError`]s.
    ///
    /// Injected transient faults are decided *before* the kernel closure
    /// runs: a faulted launch leaves device memory untouched (the real
    /// analogue is an ECC error or killed kernel whose outputs are
    /// discarded), so callers may retry or rebuild without fear of partial
    /// `atomicAdd` side effects. A watchdog timeout, by contrast, is
    /// detected on the modelled execution time after simulation; its buffer
    /// contents are as-if-completed and callers must treat them as
    /// undefined, exactly like a kernel killed mid-flight.
    pub fn try_launch<K>(
        &self,
        name: &'static str,
        config: LaunchConfig,
        kernel: K,
    ) -> Result<LaunchStats, DeviceError>
    where
        K: Fn(&mut BlockCtx) + Sync,
    {
        self.check_lost()?;
        if config.grid_blocks == 0 {
            return Err(DeviceError::InvalidLaunch {
                kernel: name.to_string(),
                detail: "empty grid".to_string(),
            });
        }
        let occ = occupancy(
            &self.spec,
            config.block_threads,
            config.regs_per_thread,
            config.shared_bytes,
        )
        .ok_or_else(|| DeviceError::InvalidLaunch {
            kernel: name.to_string(),
            detail: format!(
                "launch config {config:?} exceeds device limits of {}",
                self.spec.name
            ),
        })?;

        if let Some(fault_index) = self.faults.draw_kernel_fault() {
            if fusedml_trace::is_enabled() {
                fusedml_trace::instant(
                    "fault",
                    "kernel.transient",
                    &self.track,
                    &[("kernel", name.into()), ("fault_index", fault_index.into())],
                );
            }
            return Err(DeviceError::TransientFault {
                kernel: name.to_string(),
                fault_index,
            });
        }

        // Device loss is decided before the kernel runs, like transient
        // faults: a killed device leaves memory untouched from the caller's
        // point of view (its contents are unreachable anyway). The flag is
        // sticky — every later operation short-circuits in `check_lost`.
        if let Some(fault_index) = self.faults.draw_device_loss() {
            self.lost_at_draw.store(fault_index, Ordering::Relaxed);
            self.lost.store(true, Ordering::Relaxed);
            if fusedml_trace::is_enabled() {
                fusedml_trace::instant(
                    "fault",
                    "device.lost",
                    &self.track,
                    &[
                        ("kernel", name.into()),
                        ("device", self.ordinal.into()),
                        ("fault_index", fault_index.into()),
                    ],
                );
            }
            return Err(DeviceError::DeviceLost {
                device: self.ordinal,
                fault_index,
            });
        }

        let mut sms = self.sms.lock().unwrap_or_else(|e| e.into_inner());
        let num_sms = sms.len();
        let workers = self.host_threads.min(num_sms);

        // Simulate the blocks of the SMs one worker owns, in grid order, so
        // per-SM state is deterministic. SM `sm_id` is the worker's
        // `local_idx`-th; SMs are dealt to workers round-robin.
        let kernel = &kernel;
        let spec = &self.spec;
        let run_worker = |worker: usize, my_sms: &mut [SmState]| -> Counters {
            let mut counters = Counters::new();
            // The storage of the shared-memory arrays, lent to each block
            // the worker runs in turn: each block zero-fills the arrays it
            // asks for, reusing what earlier blocks allocated (see
            // [`BlockCtx::shared_f64`]).
            let mut shared = Vec::new();
            for (local_idx, sm) in my_sms.iter_mut().enumerate() {
                let sm_id = local_idx * workers + worker;
                let mut block = sm_id;
                while block < config.grid_blocks {
                    let mut ctx = BlockCtx {
                        block_id: block,
                        grid_dim: config.grid_blocks,
                        block_dim: config.block_threads,
                        spec,
                        shared: std::mem::take(&mut shared),
                        shared_arrays: 0,
                        shared_bytes_used: 0,
                        plain_adds: workers == 1,
                        counters: &mut counters,
                        sm,
                    };
                    kernel(&mut ctx);
                    assert!(
                        ctx.shared_bytes_used <= config.shared_bytes,
                        "kernel allocated {}B shared but declared {}B",
                        ctx.shared_bytes_used,
                        config.shared_bytes
                    );
                    shared = std::mem::take(&mut ctx.shared);
                    block += num_sms;
                }
            }
            counters
        };

        let mut merged = if workers == 1 {
            // One worker runs on the calling thread: no spawn, and a kernel
            // panic unwinds from here with its own payload.
            run_worker(0, &mut sms)
        } else {
            let mut chunks: Vec<Vec<SmState>> = (0..workers).map(|_| Vec::new()).collect();
            for (i, sm) in sms.drain(..).enumerate() {
                chunks[i % workers].push(sm);
            }
            let run_worker = &run_worker;
            let outcome: Vec<(Counters, Vec<SmState>)> = std::thread::scope(|scope| {
                let handles: Vec<_> = chunks
                    .into_iter()
                    .enumerate()
                    .map(|(worker, mut my_sms)| {
                        scope.spawn(move || (run_worker(worker, &mut my_sms), my_sms))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| match h.join() {
                        Ok(v) => v,
                        // Re-raise the worker's panic payload on the host
                        // thread instead of wrapping it.
                        Err(payload) => std::panic::resume_unwind(payload),
                    })
                    .collect()
            });
            // Merge counters deterministically (worker order) and restore SM
            // state in original order: SM i lives at
            // per_worker_sms[i % workers][i / workers].
            let mut merged = Counters::new();
            let mut iters = Vec::with_capacity(workers);
            for (counters, worker_sms) in outcome {
                merged.merge(&counters);
                iters.push(worker_sms.into_iter());
            }
            for i in 0..num_sms {
                sms.push(iters[i % workers].next().unwrap_or_else(|| {
                    unreachable!("worker {} returned too few SMs", i % workers)
                }));
            }
            merged
        };
        merged.kernel_launches += 1;

        let resident_blocks = (occ.blocks_per_sm * num_sms).max(1);
        let device_fill = (config.grid_blocks as f64 / resident_blocks as f64).min(1.0);
        let mut time = kernel_time(&self.spec, &occ, config.ilp, device_fill, &merged);
        // A straggling launch runs slow: the modelled clock is scaled but
        // the numerics above are untouched. Scaled *before* the watchdog
        // check — a straggler can trip the watchdog, like a real slow
        // kernel would.
        if let Some(fault_index) = self.faults.draw_straggler() {
            let slowdown = self.faults.profile().straggler_slowdown;
            time.scale(slowdown);
            if fusedml_trace::is_enabled() {
                fusedml_trace::instant(
                    "fault",
                    "kernel.straggler",
                    &self.track,
                    &[
                        ("kernel", name.into()),
                        ("slowdown", slowdown.into()),
                        ("fault_index", fault_index.into()),
                    ],
                );
            }
        }
        if let Some(limit_ms) = self.faults.watchdog_limit_ms() {
            if time.total_ms > limit_ms {
                self.faults.note_watchdog_timeout();
                if fusedml_trace::is_enabled() {
                    fusedml_trace::instant(
                        "fault",
                        "kernel.watchdog",
                        &self.track,
                        &[
                            ("kernel", name.into()),
                            ("sim_ms", time.total_ms.into()),
                            ("limit_ms", limit_ms.into()),
                        ],
                    );
                }
                return Err(DeviceError::WatchdogTimeout {
                    kernel: name.to_string(),
                    sim_ms: time.total_ms,
                    limit_ms,
                });
            }
        }
        if fusedml_trace::is_enabled() {
            fusedml_trace::sim_span(
                "kernel",
                name,
                &self.track,
                time.total_ms,
                &[
                    ("grid", config.grid_blocks.into()),
                    ("block", config.block_threads.into()),
                    ("regs", config.regs_per_thread.into()),
                    ("shared_bytes", config.shared_bytes.into()),
                    ("occupancy", occ.occupancy.into()),
                    ("dram_read_bytes", merged.dram_read_bytes.into()),
                    ("dram_write_bytes", merged.dram_write_bytes.into()),
                    ("global_atomics", merged.global_atomics.into()),
                    ("flops", merged.flops.into()),
                ],
            );
        }
        Ok(LaunchStats {
            name,
            config,
            occupancy: occ,
            counters: merged,
            time,
        })
    }
}

/// Handle to a block's shared-memory array, returned by
/// [`BlockCtx::shared_f64`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shared(usize);

/// Per-block execution context handed to the kernel closure.
pub struct BlockCtx<'a> {
    block_id: usize,
    grid_dim: usize,
    block_dim: usize,
    spec: &'a DeviceSpec,
    /// The worker's shared-array storage, lent to the block: its first
    /// `shared_arrays` arrays are this block's.
    shared: Vec<RefCell<Vec<f64>>>,
    shared_arrays: usize,
    shared_bytes_used: usize,
    /// Whether global atomic adds are a plain load and store: the launch
    /// runs on one host worker, so no other thread touches device memory.
    plain_adds: bool,
    counters: &'a mut Counters,
    sm: &'a mut SmState,
}

impl<'a> BlockCtx<'a> {
    pub fn block_id(&self) -> usize {
        self.block_id
    }

    pub fn grid_dim(&self) -> usize {
        self.grid_dim
    }

    pub fn block_dim(&self) -> usize {
        self.block_dim
    }

    pub fn warps(&self) -> usize {
        self.block_dim.div_ceil(WARP_LANES)
    }

    pub fn spec(&self) -> &DeviceSpec {
        self.spec
    }

    /// Allocate a zero-initialized shared-memory f64 array. Total shared
    /// allocations per block must stay within the declared
    /// [`LaunchConfig::shared_bytes`] (checked at block exit) and the
    /// device's per-block limit (checked here).
    pub fn shared_f64(&mut self, len: usize) -> Shared {
        self.shared_bytes_used += len * 8;
        assert!(
            self.shared_bytes_used <= self.spec.shared_mem_per_block,
            "shared memory request of {}B exceeds the {}B per-block limit",
            self.shared_bytes_used,
            self.spec.shared_mem_per_block
        );
        let i = self.shared_arrays;
        if let Some(array) = self.shared.get_mut(i) {
            let array = array.get_mut();
            array.clear();
            array.resize(len, 0.0);
        } else {
            self.shared.push(RefCell::new(vec![0.0; len]));
        }
        self.shared_arrays = i + 1;
        Shared(i)
    }

    /// `__syncthreads()`. Functionally a no-op (warps of a block execute
    /// sequentially in the simulator), counted for the cost model.
    pub fn sync(&mut self) {
        self.counters.barriers += 1;
    }

    /// Read a shared-memory cell from block scope (host-side convenience
    /// for result extraction in tests; not event-counted).
    pub fn shared_peek(&self, sh: Shared, idx: usize) -> f64 {
        self.shared[..self.shared_arrays][sh.0].borrow()[idx]
    }

    /// Execute `f` once per warp of this block, in warp-id order.
    pub fn each_warp<F: FnMut(&mut WarpCtx)>(&mut self, f: F) {
        self.each_warp_below(self.block_dim, f);
    }

    /// Execute `f` once per warp that holds one of the block's first
    /// `threads` threads, in warp-id order: [`BlockCtx::each_warp`] for a
    /// phase whose later warps issue nothing, without their host cost.
    pub fn each_warp_below<F: FnMut(&mut WarpCtx)>(&mut self, threads: usize, mut f: F) {
        let warps = threads.min(self.block_dim).div_ceil(WARP_LANES);
        for w in 0..warps {
            let active = (self.block_dim - w * WARP_LANES).min(WARP_LANES);
            let mut ctx = WarpCtx {
                warp_id: w,
                active_lanes: active,
                block_id: self.block_id,
                block_dim: self.block_dim,
                grid_dim: self.grid_dim,
                spec: self.spec,
                shared: &self.shared[..self.shared_arrays],
                plain_adds: self.plain_adds,
                counters: self.counters,
                sm: self.sm,
            };
            f(&mut ctx);
        }
    }
}

/// The distinct numbers (lines, sectors or addresses) of one warp
/// instruction, in first-appearance order — the order the caches are probed
/// in. A 64-bit mask of `number & 63` records which low bits were seen, and
/// `slot` the latest number pushed with each, so a new number usually costs
/// one mask test and a repeat one comparison; only numbers that share their
/// low bits with another pay a scan.
#[derive(Debug)]
pub(crate) struct FirstSeen {
    items: [u64; WARP_LANES],
    len: usize,
    seen: u64,
    slot: [u8; 64],
}

impl FirstSeen {
    pub(crate) fn new() -> Self {
        FirstSeen {
            items: [0; WARP_LANES],
            len: 0,
            seen: 0,
            slot: [0; 64],
        }
    }

    /// Forget every recorded number.
    fn clear(&mut self) {
        self.len = 0;
        self.seen = 0;
    }

    /// Position of `x` among the recorded numbers.
    #[inline]
    fn find(&self, x: u64) -> Option<usize> {
        let b = (x & 63) as usize;
        if self.seen & (1 << b) == 0 {
            return None;
        }
        let i = usize::from(self.slot[b]);
        if self.items[i] == x {
            return Some(i);
        }
        self.items[..self.len].iter().rposition(|&y| y == x)
    }

    /// Record `x`, which is not recorded yet, and return its position.
    #[inline]
    fn push(&mut self, x: u64) -> usize {
        let (b, i) = ((x & 63) as usize, self.len);
        self.seen |= 1 << b;
        self.slot[b] = i as u8;
        self.items[i] = x;
        self.len = i + 1;
        i
    }

    /// Record `x` unless it is recorded already; returns whether it was new.
    #[inline]
    fn insert(&mut self, x: u64) -> bool {
        let new = self.find(x).is_none();
        if new {
            self.push(x);
        }
        new
    }

    pub(crate) fn as_slice(&self) -> &[u64] {
        &self.items[..self.len]
    }
}

/// Warp-granular instruction issue: every memory operation supplies
/// per-lane element indices, from which coalescing (32-byte sectors),
/// cache behaviour and bank conflicts are computed exactly.
pub struct WarpCtx<'a> {
    warp_id: usize,
    active_lanes: usize,
    block_id: usize,
    block_dim: usize,
    grid_dim: usize,
    spec: &'a DeviceSpec,
    shared: &'a [RefCell<Vec<f64>>],
    /// See [`BlockCtx`]'s field of this name.
    plain_adds: bool,
    counters: &'a mut Counters,
    sm: &'a mut SmState,
}

impl<'a> WarpCtx<'a> {
    pub fn warp_id(&self) -> usize {
        self.warp_id
    }

    /// Lanes active in this warp (32 except a trailing partial warp).
    pub fn active_lanes(&self) -> usize {
        self.active_lanes
    }

    pub fn block_id(&self) -> usize {
        self.block_id
    }

    pub fn grid_dim(&self) -> usize {
        self.grid_dim
    }

    pub fn block_dim(&self) -> usize {
        self.block_dim
    }

    /// Thread id (within the block) of lane `lane`.
    pub fn tid(&self, lane: usize) -> usize {
        self.warp_id * WARP_LANES + lane
    }

    /// Global thread id of lane `lane`.
    pub fn gtid(&self, lane: usize) -> usize {
        self.block_id * self.block_dim + self.tid(lane)
    }

    /// Record `n` double-precision floating-point operations.
    pub fn flops(&mut self, n: u64) {
        self.counters.flops += n;
    }

    // ---------------- global memory ----------------

    /// log2 of the bytes one element of `elem` spans in sectors: the
    /// sector, or the element itself when it is wider than a sector, whose
    /// `elem / sector` sectors it then covers. Elements sit at multiples of
    /// their size and lines are at least 8 bytes ([`DeviceSpec::validate`]),
    /// so an element's sectors are aligned to their count and lie in one
    /// line.
    #[inline]
    fn span_shift(&self, elem: Elem) -> u32 {
        self.spec
            .sector_bytes
            .trailing_zeros()
            .max(elem.bytes().trailing_zeros())
    }

    /// Count one warp load instruction over the active lanes' addresses of
    /// `elem` elements (in lane order): its unique sectors, its divergence,
    /// and the cache model's verdict on each line it touches, in the order
    /// [`line_masks`] finds them.
    fn account_load(&mut self, addrs: &[u64], elem: Elem, tex: bool) {
        self.counters.gld_instructions += 1;
        self.count_divergence(addrs.len());
        let mut line_sectors = [0u64; WARP_LANES];
        line_masks(
            self.spec,
            addrs,
            elem,
            &mut self.sm.dedup,
            &mut line_sectors,
        );
        let line_shift = self.spec.cache_line_bytes.trailing_zeros();
        let sector_bytes = self.spec.sector_bytes as u64;
        // With at most four sectors to a line (the GTX Titan has four), a
        // mask's count is a table entry: without `popcnt` in the target,
        // `count_ones` is a dozen instructions.
        let table = self.spec.cache_line_bytes / self.spec.sector_bytes <= 4;
        let mut ns = 0;
        for (k, &mask) in line_sectors[..self.sm.dedup.len].iter().enumerate() {
            let n = if table {
                u64::from(SECTORS_IN_MASK[(mask & 15) as usize])
            } else {
                u64::from(mask.count_ones())
            };
            ns += n;
            let line = self.sm.dedup.items[k] << line_shift;
            self.load_line(line, n * sector_bytes, tex);
        }
        self.count_transactions(ns, tex);
    }

    /// Count one warp load instruction whose `lanes` lanes read the
    /// `elems` elements `first..first + elems` of `buf` in order, each
    /// element by one lane or by several consecutive ones: what
    /// [`account_load`] finds for their addresses, in closed form. The
    /// run's lines are probed lowest first, which is their
    /// first-appearance order, a line's sectors are those between the
    /// first and last byte of the run within it, and the divergence is the
    /// lane count's.
    ///
    /// [`account_load`]: WarpCtx::account_load
    fn account_run(
        &mut self,
        buf: &GpuBuffer,
        first: usize,
        elems: usize,
        lanes: usize,
        tex: bool,
    ) {
        self.counters.gld_instructions += 1;
        self.count_divergence(lanes);
        if elems == 0 {
            return;
        }
        let sector_shift = self.spec.sector_bytes.trailing_zeros();
        let (lo, end) = run_bytes(buf, first, elems);
        for (line, from, to) in run_lines(lo, end, self.spec.cache_line_bytes) {
            let sectors = sectors_between(from, to, sector_shift);
            self.load_line(line, sectors << sector_shift, tex);
        }
        self.count_transactions(sectors_between(lo, end, sector_shift), tex);
    }

    /// Count the idle lanes of a memory instruction with `active` lanes.
    #[inline]
    fn count_divergence(&mut self, active: usize) {
        if active < WARP_LANES {
            self.counters.divergent_instructions += 1;
            self.counters.inactive_lanes += (WARP_LANES - active) as u64;
        }
    }

    /// Count the sector transactions of a global or texture load.
    #[inline]
    fn count_transactions(&mut self, sectors: u64, tex: bool) {
        if tex {
            self.counters.tex_transactions += sectors;
        } else {
            self.counters.gld_transactions += sectors;
        }
    }

    /// The caches' verdict on one line of a load that touches `touched`
    /// bytes of it: a texture hit, an L2 hit, or a line fetched from DRAM.
    /// A texture load that misses installs the line in the texture cache,
    /// so on an L2 hit the texture fill is a repeat hit there.
    #[inline(always)]
    fn load_line(&mut self, line_addr: u64, touched: u64, tex: bool) {
        let sm = &mut *self.sm;
        if tex && sm.tex.access(line_addr) {
            self.counters.tex_read_bytes += touched;
        } else if sm.l2.access(line_addr) {
            if tex {
                sm.tex.repeat_hits(1);
            }
            self.counters.l2_read_bytes += touched;
        } else {
            self.counters.dram_read_bytes += self.spec.cache_line_bytes as u64;
        }
    }

    /// The raw cells the active lanes read at `idx(lane)` of `buf` (0 for
    /// a lane predicated off), counted as one load instruction.
    #[inline(always)]
    fn gather<F>(&mut self, buf: &GpuBuffer, tex: bool, mut idx: F) -> [u64; WARP_LANES]
    where
        F: FnMut(usize) -> Option<usize>,
    {
        let (cells, base, elem_bytes) = (buf.cells(), buf.base_addr(), buf.elem().bytes());
        let mut addrs = [0u64; WARP_LANES];
        let mut n = 0;
        let mut bits = [0u64; WARP_LANES];
        for lane in 0..self.active_lanes {
            if let Some(i) = idx(lane) {
                let cell = cells.get(i).unwrap_or_else(|| buf.out_of_bounds(i));
                bits[lane] = cell.load(Ordering::Relaxed);
                addrs[n] = base + i as u64 * elem_bytes;
                n += 1;
            }
        }
        self.account_load(&addrs[..n], buf.elem(), tex);
        bits
    }

    /// The raw cells of a grouped run (see [`WarpCtx::load_u32_grouped`]),
    /// counted as one load instruction.
    #[inline(always)]
    fn load_groups(
        &mut self,
        buf: &GpuBuffer,
        first: usize,
        lanes: usize,
        per: usize,
        tex: bool,
    ) -> [u64; WARP_LANES] {
        let n = lanes.min(self.active_lanes);
        let cells = run_cells(buf, first, n.div_ceil(per));
        let mut bits = [0u64; WARP_LANES];
        // Each cell fills its group of lanes: no lane divides by `per`.
        for (group, cell) in bits[..n].chunks_mut(per).zip(cells) {
            group.fill(cell.load(Ordering::Relaxed));
        }
        self.account_run(buf, first, cells.len(), n, tex);
        bits
    }

    /// Warp-wide global load of a contiguous run of f64 elements: lane `l`
    /// of the active lanes below `lanes` reads element `first + l`, and the
    /// other lanes read nothing (0.0). Values and counts are exactly those
    /// of [`WarpCtx::load_f64`] with `|l| (l < lanes).then_some(first + l)`,
    /// at a fraction of the host cost: the run's lines and sectors are
    /// counted in closed form.
    pub fn load_f64_run(
        &mut self,
        buf: &GpuBuffer,
        first: usize,
        lanes: usize,
    ) -> [f64; WARP_LANES] {
        debug_assert_eq!(buf.elem(), Elem::F64, "f64 load from non-f64 buffer");
        self.load_groups(buf, first, lanes, 1, false)
            .map(f64::from_bits)
    }

    /// Warp-wide global load of a grouped run of u32 elements: lane `l` of
    /// the active lanes below `lanes` reads element `first + l / per`, so
    /// each element goes to `per` consecutive lanes, and the other lanes
    /// read nothing (0). This is how the `VS` lanes of a CSR vector share
    /// their row's offsets; with `per = 1` it is the contiguous run of
    /// [`WarpCtx::load_f64_run`]. Values and counts are exactly those of
    /// [`WarpCtx::load_u32`] with `|l| (l < lanes).then_some(first + l /
    /// per)`: the run's lines and sectors are counted in closed form, and
    /// its divergence from the lane count. `per` must be at least 1.
    pub fn load_u32_grouped(
        &mut self,
        buf: &GpuBuffer,
        first: usize,
        lanes: usize,
        per: usize,
    ) -> [u32; WARP_LANES] {
        debug_assert_eq!(buf.elem(), Elem::U32, "u32 load from non-u32 buffer");
        self.load_groups(buf, first, lanes, per, false)
            .map(|b| b as u32)
    }

    /// Warp-wide texture load of a grouped run of f64 elements (lane `l`
    /// below `lanes` reads element `first + l / per`; see
    /// [`WarpCtx::load_u32_grouped`]). Values and counts are exactly those
    /// of [`WarpCtx::load_f64_tex`] with `|l| (l < lanes).then_some(first
    /// + l / per)`.
    pub fn load_f64_tex_grouped(
        &mut self,
        buf: &GpuBuffer,
        first: usize,
        lanes: usize,
        per: usize,
    ) -> [f64; WARP_LANES] {
        debug_assert_eq!(buf.elem(), Elem::F64, "f64 load from non-f64 buffer");
        self.load_groups(buf, first, lanes, per, true)
            .map(f64::from_bits)
    }

    /// Warp-wide global load of f64 elements. `idx(lane)` yields the element
    /// index for each active lane (`None` = lane predicated off).
    pub fn load_f64<F>(&mut self, buf: &GpuBuffer, idx: F) -> [f64; WARP_LANES]
    where
        F: FnMut(usize) -> Option<usize>,
    {
        debug_assert_eq!(buf.elem(), Elem::F64, "f64 load from non-f64 buffer");
        self.gather(buf, false, idx).map(f64::from_bits)
    }

    /// Warp-wide load through the read-only (texture) cache — the paper
    /// binds the input vector `y` to texture memory (§4.1).
    pub fn load_f64_tex<F>(&mut self, buf: &GpuBuffer, idx: F) -> [f64; WARP_LANES]
    where
        F: FnMut(usize) -> Option<usize>,
    {
        debug_assert_eq!(buf.elem(), Elem::F64, "f64 load from non-f64 buffer");
        self.gather(buf, true, idx).map(f64::from_bits)
    }

    /// Warp-wide global load of u32 elements (CSR index structures).
    pub fn load_u32<F>(&mut self, buf: &GpuBuffer, idx: F) -> [u32; WARP_LANES]
    where
        F: FnMut(usize) -> Option<usize>,
    {
        debug_assert_eq!(buf.elem(), Elem::U32, "u32 load from non-u32 buffer");
        self.gather(buf, false, idx).map(|b| b as u32)
    }

    // ---------------- replayed loads ----------------

    /// Warp-wide global load of u32 elements whose accounting is replayed
    /// from `fp`, the footprint of this very load (see [`crate::footprint`]):
    /// each lane whose bit is set in `lanes` reads element `elem(lane)` of
    /// `buf`. Reads and counts exactly what [`WarpCtx::load_u32`] with
    /// `|l| (lanes >> l & 1 != 0).then(|| elem(l))` does, without finding
    /// the load's lines again. Panics if `buf` does not start on a line or
    /// `fp` holds another lane count.
    pub fn load_u32_replay<F>(
        &mut self,
        buf: &GpuBuffer,
        fp: LoadFootprint<'_>,
        lanes: u32,
        elem: F,
    ) -> [u32; WARP_LANES]
    where
        F: FnMut(usize) -> usize,
    {
        debug_assert_eq!(buf.elem(), Elem::U32, "u32 load from non-u32 buffer");
        self.replay(buf, fp, false, lanes, elem).map(|b| b as u32)
    }

    /// [`WarpCtx::load_f64`] with its accounting replayed from `fp`; see
    /// [`WarpCtx::load_u32_replay`].
    pub fn load_f64_replay<F>(
        &mut self,
        buf: &GpuBuffer,
        fp: LoadFootprint<'_>,
        lanes: u32,
        elem: F,
    ) -> [f64; WARP_LANES]
    where
        F: FnMut(usize) -> usize,
    {
        debug_assert_eq!(buf.elem(), Elem::F64, "f64 load from non-f64 buffer");
        self.replay(buf, fp, false, lanes, elem).map(f64::from_bits)
    }

    /// [`WarpCtx::load_f64_tex`] with its accounting replayed from `fp`;
    /// see [`WarpCtx::load_u32_replay`].
    pub fn load_f64_tex_replay<F>(
        &mut self,
        buf: &GpuBuffer,
        fp: LoadFootprint<'_>,
        lanes: u32,
        elem: F,
    ) -> [f64; WARP_LANES]
    where
        F: FnMut(usize) -> usize,
    {
        debug_assert_eq!(buf.elem(), Elem::F64, "f64 load from non-f64 buffer");
        self.replay(buf, fp, true, lanes, elem).map(f64::from_bits)
    }

    /// Read the raw cells the `lanes` address, in lane order, as
    /// [`WarpCtx::gather`] does, and count the load from `fp`: its
    /// instruction, divergence and transactions, and each line probed at
    /// `buf`'s base plus the line's offset, in the footprint's order, as
    /// [`WarpCtx::account_load`] probes them.
    #[inline(always)]
    fn replay<F>(
        &mut self,
        buf: &GpuBuffer,
        fp: LoadFootprint<'_>,
        tex: bool,
        lanes: u32,
        mut elem: F,
    ) -> [u64; WARP_LANES]
    where
        F: FnMut(usize) -> usize,
    {
        debug_assert!(
            u64::from(lanes) >> self.active_lanes == 0,
            "lanes {lanes:#x} past the warp's {}",
            self.active_lanes
        );
        let cells = buf.cells();
        let mut bits = [0u64; WARP_LANES];
        for_each_lane(lanes, |lane| {
            let i = elem(lane);
            bits[lane] = cells
                .get(i)
                .unwrap_or_else(|| buf.out_of_bounds(i))
                .load(Ordering::Relaxed);
        });
        let n = lanes.count_ones() as usize;
        let (line_shift, sector_shift) = (
            self.spec.cache_line_bytes.trailing_zeros(),
            self.spec.sector_bytes.trailing_zeros(),
        );
        fp.check(line_shift, sector_shift, n);
        let base = buf.base_addr();
        assert!(
            base & ((1 << line_shift) - 1) == 0,
            "replayed load of {} at {base:#x}, which does not start on a line",
            buf.name()
        );
        self.counters.gld_instructions += 1;
        self.count_divergence(n);
        let mut ns = 0;
        fp.each_line(|line, sectors| {
            ns += sectors;
            self.load_line(base + (line << line_shift), sectors << sector_shift, tex);
        });
        self.count_transactions(ns, tex);
        bits
    }

    /// Warp-wide global store. `src(lane)` yields `(element index, value)`.
    pub fn store_f64<F>(&mut self, buf: &GpuBuffer, mut src: F)
    where
        F: FnMut(usize) -> Option<(usize, f64)>,
    {
        debug_assert_eq!(buf.elem(), Elem::F64);
        let span_shift = self.span_shift(Elem::F64);
        let spans = &mut self.sm.dedup;
        spans.clear();
        for lane in 0..self.active_lanes {
            if let Some((i, v)) = src(lane) {
                buf.raw_store(i, v.to_bits());
                spans.insert(buf.addr_of(i) >> span_shift);
            }
        }
        self.account_store(span_shift);
    }

    /// Warp-wide global store of a contiguous run of f64 elements: lane `l`
    /// of the active lanes below `lanes` writes `vals[l]` to element
    /// `first + l`. Stores and counts exactly what [`WarpCtx::store_f64`]
    /// with `|l| (l < lanes).then(|| (first + l, vals[l]))` does, with the
    /// run's sectors and lines counted in closed form.
    pub fn store_f64_run(
        &mut self,
        buf: &GpuBuffer,
        first: usize,
        lanes: usize,
        vals: &[f64; WARP_LANES],
    ) {
        debug_assert_eq!(buf.elem(), Elem::F64);
        let cells = run_cells(buf, first, lanes.min(self.active_lanes));
        for (cell, v) in cells.iter().zip(vals) {
            cell.store(v.to_bits(), Ordering::Relaxed);
        }
        self.counters.gst_instructions += 1;
        if cells.is_empty() {
            return;
        }
        let sector_shift = self.spec.sector_bytes.trailing_zeros();
        let (lo, end) = run_bytes(buf, first, cells.len());
        let sectors = sectors_between(lo, end, sector_shift);
        self.counters.gst_transactions += sectors;
        self.counters.dram_write_bytes += sectors << sector_shift;
        for (line, from, to) in run_lines(lo, end, self.spec.cache_line_bytes) {
            self.sm.l2.access(line);
            self.sm
                .l2
                .repeat_hits(sectors_between(from, to, sector_shift) - 1);
        }
    }

    /// Warp-wide global store of u32 elements (index structures built on
    /// device, e.g. `csr2csc` outputs).
    pub fn store_u32<F>(&mut self, buf: &GpuBuffer, mut src: F)
    where
        F: FnMut(usize) -> Option<(usize, u32)>,
    {
        debug_assert_eq!(buf.elem(), Elem::U32);
        let span_shift = self.span_shift(Elem::U32);
        let spans = &mut self.sm.dedup;
        spans.clear();
        for lane in 0..self.active_lanes {
            if let Some((i, v)) = src(lane) {
                buf.raw_store(i, v as u64);
                spans.insert(buf.addr_of(i) >> span_shift);
            }
        }
        self.account_store(span_shift);
    }

    /// Count one warp store instruction over its unique element spans (see
    /// [`WarpCtx::span_shift`]), recorded in the SM's dedup buffer in
    /// first-appearance order, and write-allocate their sectors into L2.
    /// Two elements' spans are equal or disjoint, so the sectors are each
    /// span's, in that order. A sector in the line just probed is a repeat
    /// hit, not a probe.
    fn account_store(&mut self, span_shift: u32) {
        let sector_shift = self.spec.sector_bytes.trailing_zeros();
        let span_sectors = 1u64 << (span_shift - sector_shift);
        // log2 of the spans in a line
        let spans_log2 = self.spec.cache_line_bytes.trailing_zeros() - span_shift;
        let sm = &mut *self.sm;
        let spans = sm.dedup.as_slice();
        self.counters.gst_instructions += 1;
        self.counters.gst_transactions += spans.len() as u64 * span_sectors;
        self.counters.dram_write_bytes += (spans.len() as u64) << span_shift;
        let mut last = u64::MAX;
        for &s in spans {
            let line = s >> spans_log2;
            if line == last {
                sm.l2.repeat_hits(span_sectors);
            } else {
                last = line;
                sm.l2.access(s << span_shift);
                sm.l2.repeat_hits(span_sectors - 1);
            }
        }
    }

    /// Warp-wide global `atomicAdd` on u32 returning per-lane old values
    /// (CUDA's `atomicAdd(unsigned*, v)` fetch-add, used for scatter
    /// cursors in device transposition).
    pub fn atomic_fetch_add_u32<F>(&mut self, buf: &GpuBuffer, mut src: F) -> [u32; WARP_LANES]
    where
        F: FnMut(usize) -> Option<(usize, u32)>,
    {
        debug_assert_eq!(buf.elem(), Elem::U32);
        let mut old = [0u32; WARP_LANES];
        let mut addrs = [u64::MAX; WARP_LANES];
        let mut n = 0;
        for lane in 0..self.active_lanes {
            if let Some((i, v)) = src(lane) {
                old[lane] = buf.raw_add_u32(i, v, self.plain_adds);
                let a = buf.addr_of(i);
                self.sm.atomic_phase += 1;
                self.counters
                    .record_global_atomic_int(a, self.sm.atomic_phase);
                addrs[n] = a;
                n += 1;
            }
        }
        self.account_atomics(&addrs[..n], Elem::U32);
        old
    }

    /// Warp-wide global `atomicAdd` on f64. Lanes hitting the same address
    /// within the warp serialize (counted), and the per-address sampled
    /// histogram feeds the cross-warp serialization estimate.
    pub fn atomic_add_f64<F>(&mut self, buf: &GpuBuffer, mut src: F)
    where
        F: FnMut(usize) -> Option<(usize, f64)>,
    {
        debug_assert_eq!(buf.elem(), Elem::F64);
        let mut addrs = [u64::MAX; WARP_LANES];
        let mut n = 0;
        for lane in 0..self.active_lanes {
            if let Some((i, v)) = src(lane) {
                buf.raw_add_f64(i, v, self.plain_adds);
                let a = buf.addr_of(i);
                self.sm.atomic_phase += 1;
                self.counters.record_global_atomic(a, self.sm.atomic_phase);
                addrs[n] = a;
                n += 1;
            }
        }
        self.account_atomics(&addrs[..n], Elem::F64);
    }

    /// Warp-wide global `atomicAdd` on a contiguous run of f64 elements:
    /// lane `l` of the active lanes below `lanes` adds `vals[l]` to element
    /// `first + l`. Adds and counts exactly what [`WarpCtx::atomic_add_f64`]
    /// with `|l| (l < lanes).then(|| (first + l, vals[l]))` does: the lanes
    /// advance the SM's atomic phase and sample their addresses one by one,
    /// in lane order, and the run's lines are counted in closed form (its
    /// addresses are distinct, so no lane conflicts).
    pub fn atomic_add_f64_run(
        &mut self,
        buf: &GpuBuffer,
        first: usize,
        lanes: usize,
        vals: &[f64; WARP_LANES],
    ) {
        debug_assert_eq!(buf.elem(), Elem::F64);
        let cells = run_cells(buf, first, lanes.min(self.active_lanes));
        let (base, elem_bytes) = (buf.base_addr(), buf.elem().bytes());
        for (l, (cell, &v)) in cells.iter().zip(vals).enumerate() {
            add_f64(cell, v, self.plain_adds);
            self.sm.atomic_phase += 1;
            let a = base + (first + l) as u64 * elem_bytes;
            self.counters.record_global_atomic(a, self.sm.atomic_phase);
        }
        if cells.is_empty() {
            return;
        }
        let charge = 1u64 << self.span_shift(Elem::F64);
        let elem_shift = elem_bytes.trailing_zeros();
        let (lo, end) = run_bytes(buf, first, cells.len());
        for (line, from, to) in run_lines(lo, end, self.spec.cache_line_bytes) {
            if !self.sm.l2.access(line) {
                self.counters.dram_read_bytes += charge;
            }
            self.sm.l2.repeat_hits(((to - from) >> elem_shift) - 1);
        }
        self.counters.dram_write_bytes += cells.len() as u64 * charge;
    }

    /// Memory-side cost of one warp of global atomics on the given `elem`
    /// addresses (lane order). Same-address lanes within the warp replay.
    /// Atomics resolve in L2 at sector granularity: a missing target costs
    /// a fetch of the sectors its element spans (read-modify-write), not a
    /// full line. A lane in the line the lane before it probed is a repeat
    /// hit, not a probe.
    fn account_atomics(&mut self, addrs: &[u64], elem: Elem) {
        // Element addresses are 4-byte aligned, so `a >> 2` numbers them
        // densely for the dedup's low-bit mask.
        let charge = 1u64 << self.span_shift(elem);
        let sm = &mut *self.sm;
        sm.dedup.clear();
        for &a in addrs {
            sm.dedup.insert(a >> 2);
        }
        let unique = sm.dedup.len;
        self.counters.global_atomic_warp_conflicts += (addrs.len() - unique) as u64;
        let line_mask = !(self.spec.cache_line_bytes as u64 - 1);
        let mut last = u64::MAX;
        for &a in addrs {
            let line = a & line_mask;
            if line == last {
                sm.l2.repeat_hits(1);
            } else {
                last = line;
                if !sm.l2.access(line) {
                    self.counters.dram_read_bytes += charge;
                }
            }
        }
        self.counters.dram_write_bytes += unique as u64 * charge;
    }

    // ---------------- shared memory ----------------

    /// Warp-wide shared-memory load with bank-conflict accounting.
    pub fn shared_load<F>(&mut self, sh: Shared, mut idx: F) -> [f64; WARP_LANES]
    where
        F: FnMut(usize) -> Option<usize>,
    {
        let arr = self.shared[sh.0].borrow();
        let mut vals = [0.0; WARP_LANES];
        let mut words = [0usize; WARP_LANES];
        let mut n = 0;
        for lane in 0..self.active_lanes {
            if let Some(i) = idx(lane) {
                vals[lane] = arr[i];
                words[n] = i;
                n += 1;
            }
        }
        self.counters.shared_accesses += n as u64;
        self.counters.shared_bank_conflicts +=
            bank_conflict_replays(&words[..n], self.spec.shared_banks);
        vals
    }

    /// Warp-wide shared-memory load of a contiguous run: lane `l` of the
    /// active lanes below `lanes` reads word `first + l`, and the other
    /// lanes read nothing (0.0). Reads and counts exactly what
    /// [`WarpCtx::shared_load`] with `|l| (l < lanes).then_some(first + l)`
    /// does: the run's words fall in consecutive banks, so the busiest bank
    /// holds `ceil(n / banks)` of its `n` words and replays one time fewer.
    pub fn shared_load_run(&mut self, sh: Shared, first: usize, lanes: usize) -> [f64; WARP_LANES] {
        let n = lanes.min(self.active_lanes);
        let arr = self.shared[sh.0].borrow();
        let mut vals = [0.0; WARP_LANES];
        vals[..n].copy_from_slice(&arr[shared_run(arr.len(), first, n)]);
        self.count_shared_run(n);
        vals
    }

    /// Warp-wide shared-memory store with bank-conflict accounting.
    pub fn shared_store<F>(&mut self, sh: Shared, mut src: F)
    where
        F: FnMut(usize) -> Option<(usize, f64)>,
    {
        let mut arr = self.shared[sh.0].borrow_mut();
        let mut words = [0usize; WARP_LANES];
        let mut n = 0;
        for lane in 0..self.active_lanes {
            if let Some((i, v)) = src(lane) {
                arr[i] = v;
                words[n] = i;
                n += 1;
            }
        }
        self.counters.shared_accesses += n as u64;
        self.counters.shared_bank_conflicts +=
            bank_conflict_replays(&words[..n], self.spec.shared_banks);
    }

    /// Warp-wide shared-memory store of a contiguous run: lane `l` of the
    /// active lanes below `lanes` writes `vals[l]` to word `first + l`.
    /// Stores and counts exactly what [`WarpCtx::shared_store`] with
    /// `|l| (l < lanes).then(|| (first + l, vals[l]))` does, its bank
    /// conflicts counted as [`WarpCtx::shared_load_run`] counts them.
    pub fn shared_store_run(
        &mut self,
        sh: Shared,
        first: usize,
        lanes: usize,
        vals: &[f64; WARP_LANES],
    ) {
        let n = lanes.min(self.active_lanes);
        let mut arr = self.shared[sh.0].borrow_mut();
        let words = shared_run(arr.len(), first, n);
        arr[words].copy_from_slice(&vals[..n]);
        self.count_shared_run(n);
    }

    /// Count a shared-memory access of `n` consecutive words. They fall in
    /// consecutive banks, so the busiest bank holds `ceil(n / banks)` of
    /// them and replays one time fewer.
    fn count_shared_run(&mut self, n: usize) {
        self.counters.shared_accesses += n as u64;
        self.counters.shared_bank_conflicts +=
            n.div_ceil(self.spec.shared_banks).saturating_sub(1) as u64;
    }

    /// Warp-wide shared-memory `atomicAdd` (the paper's inter-vector,
    /// intra-block aggregation).
    pub fn shared_atomic_add<F>(&mut self, sh: Shared, mut src: F)
    where
        F: FnMut(usize) -> Option<(usize, f64)>,
    {
        let mut arr = self.shared[sh.0].borrow_mut();
        let mut words = [0usize; WARP_LANES];
        let mut n = 0;
        for lane in 0..self.active_lanes {
            if let Some((i, v)) = src(lane) {
                arr[i] += v;
                words[n] = i;
                n += 1;
            }
        }
        self.counters.shared_atomics += n as u64;
        // Same-word atomic lanes serialize like bank conflicts.
        let (replays, repeats) = replays_and_repeats(&words[..n], self.spec.shared_banks);
        self.counters.shared_bank_conflicts += replays + repeats;
    }

    /// [`WarpCtx::shared_atomic_add`] whose bank conflicts are given: each
    /// lane whose bit is set in `lanes` adds `src(lane).1` to word
    /// `src(lane).0`, and `conflicts` must be [`BankConflicts::of`] those
    /// words, on this device's banks. Adds and counts exactly what the
    /// lane form with `|l| (lanes >> l & 1 != 0).then(|| src(l))` does,
    /// without counting the conflicts again.
    pub fn shared_atomic_add_replay<F>(
        &mut self,
        sh: Shared,
        conflicts: BankConflicts,
        lanes: u32,
        mut src: F,
    ) where
        F: FnMut(usize) -> (usize, f64),
    {
        debug_assert!(
            u64::from(lanes) >> self.active_lanes == 0,
            "lanes {lanes:#x} past the warp's {}",
            self.active_lanes
        );
        let mut arr = self.shared[sh.0].borrow_mut();
        for_each_lane(lanes, |lane| {
            let (i, v) = src(lane);
            arr[i] += v;
        });
        self.counters.shared_atomics += u64::from(lanes.count_ones());
        self.counters.shared_bank_conflicts += conflicts.count();
    }

    // ---------------- register-level reductions ----------------

    /// Butterfly (`__shfl_xor`) segmented sum across groups of `width`
    /// consecutive lanes. After the call, every lane holds the sum of its
    /// group. `width` must be a power of two between 1 and 32.
    pub fn shuffle_reduce_sum(&mut self, vals: &mut [f64; WARP_LANES], width: usize) {
        assert!(
            width.is_power_of_two() && (1..=WARP_LANES).contains(&width),
            "shuffle width must be a power of two in [1, 32], got {width}"
        );
        let mut offset = width / 2;
        while offset > 0 {
            self.counters.shuffle_instructions += 1;
            self.counters.flops += self.active_lanes as u64;
            match offset {
                16 => butterfly::<16>(vals),
                8 => butterfly::<8>(vals),
                4 => butterfly::<4>(vals),
                2 => butterfly::<2>(vals),
                _ => butterfly::<1>(vals),
            }
            offset /= 2;
        }
    }
}

/// Call `f` with each lane whose bit is set in `lanes`, lowest first.
#[inline(always)]
pub fn for_each_lane(mut lanes: u32, mut f: impl FnMut(usize)) {
    while lanes != 0 {
        f(lanes.trailing_zeros() as usize);
        lanes &= lanes - 1;
    }
}

/// Copy each set bit of every mask into the `span - 1` bits above it, for
/// a power-of-two `span`: the sectors of elements that start at the set
/// bits and span `span` sectors each. Their starts are multiples of
/// `span`, so no copy passes bit 63. Only specs with sectors narrower than
/// an element take this path, so it stays out of line.
#[cold]
#[inline(never)]
fn spread(masks: &mut [u64], span: u32) {
    for mask in masks {
        let mut width = 1;
        while width < span {
            *mask |= *mask << width;
            width <<= 1;
        }
    }
}

/// The distinct lines that one warp access of `elem` elements at `addrs`
/// (in lane order) touches on `spec`, in first-appearance order — the order
/// the caches are probed in — into `lines`, and each line's mask of the
/// sectors it touches into the same position of `sectors`.
///
/// One pass over the addresses: neighbouring lanes usually share a line,
/// so a run of them collects its sectors in one mask, and only a change of
/// line consults the dedup. An element charges every sector it spans: when
/// it is wider than a sector, each line's mask of first sectors is spread
/// over the spans once, after the pass, so the per-lane work is the same
/// for every spec. Sector and line numbers are shifts (both sizes are
/// powers of two with at most 64 sectors to a line, asserted at [`Gpu`]
/// construction). Addresses may be relative to a line-aligned base: the
/// lines then come out relative to it, in the same order.
pub(crate) fn line_masks(
    spec: &DeviceSpec,
    addrs: &[u64],
    elem: Elem,
    lines: &mut FirstSeen,
    sectors: &mut [u64; WARP_LANES],
) {
    let sector_shift = spec.sector_bytes.trailing_zeros();
    let line_shift = spec.cache_line_bytes.trailing_zeros();
    let sector_in_line = (1u64 << (line_shift - sector_shift)) - 1;
    let span_shift = sector_shift.max(elem.bytes().trailing_zeros());
    lines.clear();
    // Only a line at or below one seen already consults the dedup: lines
    // from `fresh` up are new. No line number is `u64::MAX`.
    let (mut last, mut fresh, mut i, mut mask) = (u64::MAX, 0, 0, 0);
    for &addr in addrs {
        let l = addr >> line_shift;
        if l != last {
            sectors[i] |= mask;
            (last, mask) = (l, 0);
            i = if l >= fresh {
                fresh = l + 1;
                lines.push(l)
            } else {
                lines.find(l).unwrap_or_else(|| lines.push(l))
            };
        }
        mask |= 1 << ((addr >> sector_shift) & sector_in_line);
    }
    sectors[i] |= mask;
    let span = 1u32 << (span_shift - sector_shift);
    if span > 1 {
        spread(&mut sectors[..lines.len], span);
    }
}

/// The cells of elements `first..first + elems` of `buf`, bounds-checked
/// once. A run past the buffer panics as the lane form does at its first
/// out-of-bounds lane, whose index is `max(first, len)`.
fn run_cells(buf: &GpuBuffer, first: usize, elems: usize) -> &[AtomicU64] {
    if elems == 0 {
        return &[];
    }
    first
        .checked_add(elems)
        .and_then(|end| buf.cells().get(first..end))
        .unwrap_or_else(|| buf.out_of_bounds(first.max(buf.len())))
}

/// The byte range of elements `first..first + n` of `buf`.
fn run_bytes(buf: &GpuBuffer, first: usize, n: usize) -> (u64, u64) {
    let elem_bytes = buf.elem().bytes();
    let lo = buf.base_addr() + first as u64 * elem_bytes;
    (lo, lo + n as u64 * elem_bytes)
}

/// The lines of `line_bytes` that the non-empty byte range `lo..end`
/// touches, lowest first: each line's address, and the part `from..to` of
/// the range inside it.
fn run_lines(lo: u64, end: u64, line_bytes: usize) -> impl Iterator<Item = (u64, u64, u64)> {
    let line_shift = line_bytes.trailing_zeros();
    (lo >> line_shift..=(end - 1) >> line_shift).map(move |line| {
        let at = line << line_shift;
        (at, lo.max(at), end.min(at + line_bytes as u64))
    })
}

/// The sectors that the non-empty byte range `from..to` touches.
#[inline]
fn sectors_between(from: u64, to: u64, sector_shift: u32) -> u64 {
    ((to - 1) >> sector_shift) - (from >> sector_shift) + 1
}

/// The words `first..first + n` of a shared array of `len` words. A run
/// past the end panics as the lane form's indexing does at its first
/// out-of-bounds lane, whose index is `max(first, len)`.
fn shared_run(len: usize, first: usize, n: usize) -> std::ops::Range<usize> {
    if n == 0 {
        return 0..0;
    }
    match first.checked_add(n) {
        Some(end) if end <= len => first..end,
        _ => shared_out_of_bounds(len, first.max(len)),
    }
}

#[cold]
#[inline(never)]
// A kernel indexing past a shared array is a bug in the kernel, which
// panics as the lane form's slice indexing does.
#[allow(clippy::panic)]
fn shared_out_of_bounds(len: usize, index: usize) -> ! {
    panic!("index out of bounds: the len is {len} but the index is {index}")
}

/// One `__shfl_xor` step at a compile-time offset, so its loops unroll:
/// lane `l` and its partner `l ^ OFFSET` sit in the low and high halves of
/// a `2 * OFFSET` run, and each adds the other's value to its own, in that
/// operand order.
#[inline(always)]
fn butterfly<const OFFSET: usize>(vals: &mut [f64; WARP_LANES]) {
    for run in vals.chunks_exact_mut(2 * OFFSET) {
        let (lo, hi) = run.split_at_mut(OFFSET);
        for (a, b) in lo.iter_mut().zip(hi) {
            (*a, *b) = (*a + *b, *b + *a);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shared::MAX_BANKS;

    fn gpu() -> Gpu {
        Gpu::with_host_threads(DeviceSpec::gtx_titan(), 1)
    }

    #[test]
    fn grid_stride_copy_kernel() {
        let g = gpu();
        let n = 1000;
        let src_host: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let src = g.try_upload_f64("src", &src_host).unwrap();
        let dst = g.try_alloc_f64("dst", n).unwrap();
        let cfg = LaunchConfig::new(4, 128);
        let stats = g
            .try_launch("copy", cfg, |blk| {
                let grid_threads = blk.grid_dim() * blk.block_dim();
                blk.each_warp(|w| {
                    let mut base = w.gtid(0);
                    while base < n {
                        let vals = w.load_f64(&src, |lane| {
                            let i = base + lane;
                            (i < n).then_some(i)
                        });
                        w.store_f64(&dst, |lane| {
                            let i = base + lane;
                            (i < n).then_some((i, vals[lane]))
                        });
                        base += grid_threads;
                    }
                });
            })
            .unwrap();
        assert_eq!(dst.to_vec_f64(), src_host);
        assert!(stats.counters.gld_transactions > 0);
        assert_eq!(stats.counters.kernel_launches, 1);
    }

    #[test]
    fn coalesced_vs_strided_transactions() {
        let g = gpu();
        let n = 32 * 64;
        let buf = g.try_upload_f64("x", &vec![1.0; n]).unwrap();
        let cfg = LaunchConfig::new(1, 32);

        let coalesced = g
            .try_launch("coalesced", cfg, |blk| {
                blk.each_warp(|w| {
                    w.load_f64(&buf, Some);
                });
            })
            .unwrap();
        // 32 consecutive f64 = 256B = 8 sectors.
        assert_eq!(coalesced.counters.gld_transactions, 8);

        g.flush_caches();
        let strided = g
            .try_launch("strided", cfg, |blk| {
                blk.each_warp(|w| {
                    w.load_f64(&buf, |lane| Some(lane * 64));
                });
            })
            .unwrap();
        // Each lane in its own sector.
        assert_eq!(strided.counters.gld_transactions, 32);
    }

    #[test]
    fn temporal_locality_hits_l2() {
        let g = gpu();
        let n = 1024;
        let buf = g.try_upload_f64("x", &vec![1.0; n]).unwrap();
        let cfg = LaunchConfig::new(1, 32);
        let stats = g
            .try_launch("reload", cfg, |blk| {
                blk.each_warp(|w| {
                    w.load_f64(&buf, Some);
                    w.load_f64(&buf, Some); // second load: L2 hit
                });
            })
            .unwrap();
        assert!(stats.counters.l2_read_bytes >= 256);
        assert_eq!(stats.counters.dram_read_bytes, 256);
    }

    #[test]
    fn atomics_accumulate_across_blocks() {
        let g = gpu();
        let out = g.try_alloc_f64("acc", 1).unwrap();
        let cfg = LaunchConfig::new(8, 64);
        let stats = g
            .try_launch("atomic_sum", cfg, |blk| {
                blk.each_warp(|w| {
                    w.atomic_add_f64(&out, |_lane| Some((0, 1.0)));
                });
            })
            .unwrap();
        // 8 blocks * 2 warps * 32 lanes = 512 adds of 1.0.
        assert_eq!(out.host_read_f64(0), 512.0);
        assert_eq!(stats.counters.global_atomics, 512);
        // All lanes of each warp hit the same address: 31 conflicts/warp.
        assert_eq!(stats.counters.global_atomic_warp_conflicts, 16 * 31);
    }

    #[test]
    fn shared_memory_reduction() {
        let g = gpu();
        let out = g.try_alloc_f64("out", 1).unwrap();
        let cfg = LaunchConfig::new(1, 64).with_shared_bytes(8);
        g.try_launch("shared_sum", cfg, |blk| {
            let acc = blk.shared_f64(1);
            blk.each_warp(|w| {
                let mut vals = [0.0; WARP_LANES];
                for lane in 0..w.active_lanes() {
                    vals[lane] = 1.0;
                }
                w.shuffle_reduce_sum(&mut vals, 32);
                w.shared_atomic_add(acc, |lane| (lane == 0).then_some((0, vals[0])));
            });
            blk.sync();
            blk.each_warp(|w| {
                if w.warp_id() == 0 {
                    let v = w.shared_load(acc, |lane| (lane == 0).then_some(0));
                    w.store_f64(&out, |lane| (lane == 0).then_some((0, v[0])));
                }
            });
        })
        .unwrap();
        assert_eq!(out.host_read_f64(0), 64.0);
    }

    #[test]
    fn each_warp_below_runs_the_warps_holding_those_threads() {
        let g = gpu();
        for (threads, warps) in [(0, vec![]), (1, vec![(0, 32)]), (32, vec![(0, 32)])]
            .into_iter()
            .chain([(33, vec![(0, 32), (1, 8)]), (1000, vec![(0, 32), (1, 8)])])
        {
            let seen = Mutex::new(Vec::new());
            g.try_launch("below", LaunchConfig::new(1, 40), |blk| {
                blk.each_warp_below(threads, |w| {
                    seen.lock().unwrap().push((w.warp_id(), w.active_lanes()));
                });
            })
            .unwrap();
            assert_eq!(seen.into_inner().unwrap(), warps, "{threads} threads");
        }
    }

    #[test]
    fn shuffle_reduce_widths() {
        let g = gpu();
        let cfg = LaunchConfig::new(1, 32);
        for width in [1usize, 2, 4, 8, 16, 32] {
            g.try_launch("shfl", cfg, move |blk| {
                blk.each_warp(|w| {
                    let mut vals = [1.0; WARP_LANES];
                    w.shuffle_reduce_sum(&mut vals, width);
                    for lane in 0..WARP_LANES {
                        assert_eq!(vals[lane], width as f64, "width {width} lane {lane}");
                    }
                });
            })
            .unwrap();
        }
    }

    /// Every buffer starts on a line, an empty one's successor and the
    /// first buffer after a reset included, on lines narrower and wider
    /// than the 128-byte span an allocation takes at least, and wider than
    /// the first address's 4 KiB alignment. On 128-byte lines the
    /// addresses are what they always were.
    #[test]
    fn every_buffer_starts_on_a_line() {
        for (line, sector) in [(32, 32), (128, 32), (256, 32), (8192, 2048)] {
            let spec = DeviceSpec {
                cache_line_bytes: line,
                sector_bytes: sector,
                ..DeviceSpec::gtx_titan()
            };
            let mut g = Gpu::with_host_threads(spec, 1);
            let bases = |g: &Gpu| {
                let bufs = [
                    g.try_alloc_u32("empty", 0).unwrap(),
                    g.try_alloc_f64("a", 3).unwrap(),
                    g.try_alloc_u32("b", 100).unwrap(),
                    g.try_alloc_f64("c", 1).unwrap(),
                ];
                bufs.map(|b| b.base_addr())
            };
            let first = bases(&g);
            g.reset(FaultProfile::disabled());
            assert_eq!(bases(&g), first, "{line}-byte lines: after a reset");
            for base in first {
                assert_eq!(base % line as u64, 0, "{line}-byte lines: {first:#x?}");
            }
            if line == 128 {
                assert_eq!(first, [0x1000, 0x1080, 0x1100, 0x1300]);
            }
        }
    }

    /// A block's shared arrays start zeroed, also when an earlier block
    /// of the launch wrote the storage they reuse, as arrays of other
    /// lengths.
    #[test]
    fn shared_arrays_start_zeroed_in_every_block() {
        let g = gpu();
        let blocks = 2 * g.spec().num_sms;
        let out = g.try_alloc_f64("out", blocks).unwrap();
        let cfg = LaunchConfig::new(blocks, 32).with_shared_bytes(8 * 48);
        g.try_launch("dirty", cfg, |blk| {
            let b = blk.block_id();
            let (a, c) = if b % 2 == 0 {
                (blk.shared_f64(16), blk.shared_f64(32))
            } else {
                (blk.shared_f64(32), blk.shared_f64(16))
            };
            blk.each_warp(|w| {
                let before = w.shared_load_run(c, 0, 16);
                let sum: f64 = before.iter().sum();
                w.shared_store_run(a, 0, 16, &[b as f64 + 1.0; WARP_LANES]);
                w.shared_store_run(c, 0, 16, &[b as f64 + 1.0; WARP_LANES]);
                w.store_f64(&out, |l| (l == 0).then_some((b, sum)));
            });
            assert_eq!(blk.shared_peek(a, 15), b as f64 + 1.0);
        })
        .unwrap();
        assert_eq!(out.to_vec_f64(), vec![0.0; blocks]);
    }

    #[test]
    fn parallel_execution_matches_sequential_results() {
        let spec = DeviceSpec::gtx_titan();
        let run = |threads: usize| {
            let g = Gpu::with_host_threads(spec.clone(), threads);
            let n = 4096;
            let x = g
                .try_upload_f64("x", &(0..n).map(|i| (i % 7) as f64).collect::<Vec<_>>())
                .unwrap();
            let out = g.try_alloc_f64("out", 16).unwrap();
            let cfg = LaunchConfig::new(14, 128);
            let stats = g
                .try_launch("scatter", cfg, |blk| {
                    let grid_threads = blk.grid_dim() * blk.block_dim();
                    blk.each_warp(|w| {
                        let mut base = w.gtid(0);
                        while base < n {
                            let vals =
                                w.load_f64(&x, |lane| (base + lane < n).then_some(base + lane));
                            w.atomic_add_f64(&out, |lane| {
                                (base + lane < n).then_some(((base + lane) % 16, vals[lane]))
                            });
                            base += grid_threads;
                        }
                    });
                })
                .unwrap();
            (out.to_vec_f64(), stats.counters.global_atomics)
        };
        let (seq, seq_atomics) = run(1);
        let (par, par_atomics) = run(2);
        assert_eq!(seq_atomics, par_atomics);
        for (a, b) in seq.iter().zip(&par) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn built_in_specs_have_power_of_two_sectors_and_lines() {
        for spec in [
            DeviceSpec::gtx_titan(),
            DeviceSpec::tesla_k20(),
            DeviceSpec::tiny_test_device(),
        ] {
            let g = Gpu::with_host_threads(spec, 1);
            let (sector, line) = (g.spec().sector_bytes, g.spec().cache_line_bytes);
            assert!(sector.is_power_of_two() && line.is_power_of_two() && sector <= line);
            let banks = g.spec().shared_banks;
            assert!(
                banks.is_power_of_two() && banks <= MAX_BANKS,
                "{banks} banks"
            );
        }
    }

    #[test]
    #[should_panic(expected = "must be powers of two")]
    fn non_power_of_two_sector_is_rejected() {
        let spec = DeviceSpec {
            sector_bytes: 48,
            ..DeviceSpec::gtx_titan()
        };
        Gpu::with_host_threads(spec, 1);
    }

    #[test]
    #[should_panic(expected = "sector <= line")]
    fn sector_larger_than_line_is_rejected() {
        let spec = DeviceSpec {
            sector_bytes: 256,
            ..DeviceSpec::gtx_titan()
        };
        Gpu::with_host_threads(spec, 1);
    }

    #[test]
    fn unsupported_bank_counts_are_rejected_at_construction() {
        for banks in [0, 48, 128] {
            let spec = DeviceSpec {
                shared_banks: banks,
                ..DeviceSpec::gtx_titan()
            };
            let err = std::panic::catch_unwind(|| Gpu::with_host_threads(spec, 1))
                .err()
                .unwrap_or_else(|| panic!("{banks} banks accepted"));
            let msg = err
                .downcast_ref::<String>()
                .map_or("", String::as_str)
                .to_string();
            assert!(msg.contains("shared-memory banks"), "{banks} banks: {msg}");
        }
    }

    #[test]
    #[should_panic(expected = "at most 64 sectors to a line")]
    fn more_than_64_sectors_to_a_line_is_rejected() {
        let spec = DeviceSpec {
            sector_bytes: 1,
            ..DeviceSpec::gtx_titan()
        };
        Gpu::with_host_threads(spec, 1);
    }

    /// On a spec whose 4-byte sectors are narrower than an f64, every lane
    /// charges both sectors its element spans.
    #[test]
    fn elements_wider_than_a_sector_charge_every_sector_they_span() {
        let spec = DeviceSpec {
            sector_bytes: 4,
            ..DeviceSpec::gtx_titan()
        };
        let g = Gpu::with_host_threads(spec, 1);
        let x = g.try_upload_f64("x", &[1.0; 32]).unwrap();
        let w = g.try_alloc_f64("w", 32).unwrap();
        let cfg = LaunchConfig::new(1, 32);
        let load = || {
            g.try_launch("load", cfg, |blk| {
                blk.each_warp(|wc| {
                    wc.load_f64(&x, Some);
                });
            })
            .unwrap()
            .counters
        };
        load();
        // 32 f64 are 256 bytes: 64 sectors over two lines, both in L2.
        let warm = load();
        assert_eq!(warm.gld_transactions, 64);
        assert_eq!((warm.l2_read_bytes, warm.dram_read_bytes), (256, 0));
        let store = g
            .try_launch("store", cfg, |blk| {
                blk.each_warp(|wc| wc.store_f64(&w, |l| Some((l, 2.0))));
            })
            .unwrap();
        assert_eq!(store.counters.gst_transactions, 64);
        assert_eq!(store.counters.dram_write_bytes, 256);
        g.flush_caches();
        let atomic = g
            .try_launch("atomic", cfg, |blk| {
                blk.each_warp(|wc| wc.atomic_add_f64(&w, |l| Some((l, 1.0))));
            })
            .unwrap();
        // Each of the two cold lines fetches its first target's two
        // sectors; each target writes its two sectors back.
        assert_eq!(atomic.counters.dram_read_bytes, 2 * 8);
        assert_eq!(atomic.counters.dram_write_bytes, 32 * 8);
        assert_eq!(w.to_vec_f64(), vec![3.0; 32]);
    }

    /// The launch's worker count picks the add, not the host-thread
    /// setting: four host threads over one SM are one worker.
    #[test]
    fn a_launch_adds_plainly_on_one_worker_and_atomically_on_two() {
        let titan = DeviceSpec::gtx_titan();
        let one_sm = DeviceSpec {
            num_sms: 1,
            ..DeviceSpec::gtx_titan()
        };
        for (spec, host_threads, plain) in
            [(&titan, 1, true), (&titan, 2, false), (&one_sm, 4, true)]
        {
            let g = Gpu::with_host_threads(spec.clone(), host_threads);
            let seen = Mutex::new(Vec::new());
            g.try_launch("adds", LaunchConfig::new(4, 64), |blk| {
                blk.each_warp(|w| seen.lock().unwrap().push(w.plain_adds));
            })
            .unwrap();
            let seen = seen.into_inner().unwrap();
            assert_eq!(
                seen,
                vec![plain; 8],
                "{host_threads} host threads, {} SMs",
                spec.num_sms
            );
        }
    }

    /// The store and atomic runs probe L2 once per line and count every
    /// further sector or lane of the line as a repeat hit, so each SM's L2
    /// hit and miss counts end where the lane forms leave them.
    #[test]
    fn run_stores_and_atomics_keep_the_lane_forms_l2_hit_counts() {
        let l2_counts = |run: bool| {
            let g = gpu();
            let w = g.try_alloc_f64("w", 100).unwrap();
            g.try_launch("runs", LaunchConfig::new(1, 40), |blk| {
                blk.each_warp(|wc| {
                    let vals = [1.5; WARP_LANES];
                    for first in [3, 17, 60] {
                        let src = |l: usize| (l < 29).then(|| (first + l, vals[l]));
                        if run {
                            wc.store_f64_run(&w, first, 29, &vals);
                            wc.atomic_add_f64_run(&w, first + 5, 29, &vals);
                        } else {
                            wc.store_f64(&w, src);
                            wc.atomic_add_f64(&w, |l| src(l).map(|(i, v)| (i + 5, v)));
                        }
                    }
                });
            })
            .unwrap();
            let sms = g.sms.lock().unwrap();
            let counts: Vec<_> = sms
                .iter()
                .map(|sm| (sm.l2.hits(), sm.l2.misses()))
                .collect();
            (counts, w.to_vec_f64())
        };
        let (run, lanes) = (l2_counts(true), l2_counts(false));
        assert_eq!(run, lanes);
        assert!(run.0[0].0 > 0 && run.0[0].1 > 0, "{:?}", run.0[0]);
    }

    #[test]
    fn single_worker_launch_panic_keeps_its_payload() {
        let g = gpu();
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            g.try_launch("boom", LaunchConfig::new(3, 32), |blk| {
                if blk.block_id() == 2 {
                    std::panic::panic_any(42u32);
                }
            })
            .unwrap();
        }))
        .unwrap_err();
        assert_eq!(payload.downcast_ref::<u32>(), Some(&42));
    }

    #[test]
    fn two_worker_launch_panic_keeps_its_payload() {
        let g = Gpu::with_host_threads(DeviceSpec::gtx_titan(), 2);
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            g.try_launch("boom", LaunchConfig::new(3, 32), |blk| {
                if blk.block_id() == 1 {
                    std::panic::panic_any("worker one");
                }
            })
            .unwrap();
        }))
        .unwrap_err();
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"worker one"));
    }

    #[test]
    fn oversized_block_is_an_invalid_launch() {
        let g = gpu();
        let err = g
            .try_launch("bad", LaunchConfig::new(1, 4096), |_blk| {})
            .unwrap_err();
        assert!(matches!(err, DeviceError::InvalidLaunch { .. }));
        assert!(err.to_string().contains("exceeds device limits"), "{err}");
        assert!(!err.is_transient());
    }

    #[test]
    fn injected_transient_fault_leaves_memory_untouched() {
        let g = Gpu::with_host_threads(DeviceSpec::gtx_titan(), 1)
            .with_fault_profile(FaultProfile::seeded(3).with_kernel_fault_rate(1.0));
        let out = g.try_upload_f64("out", &[7.0]).unwrap();
        let err = g
            .try_launch("always_faults", LaunchConfig::new(1, 32), |blk| {
                blk.each_warp(|w| {
                    w.store_f64(&out, |lane| (lane == 0).then_some((0, 99.0)));
                });
            })
            .unwrap_err();
        assert!(matches!(err, DeviceError::TransientFault { .. }));
        assert!(err.is_transient());
        // The kernel closure never ran: the buffer still holds its old value.
        assert_eq!(out.host_read_f64(0), 7.0);
        assert_eq!(g.faults().counts().kernel_faults, 1);
    }

    #[test]
    fn watchdog_limit_rejects_long_kernels() {
        let g = Gpu::with_host_threads(DeviceSpec::gtx_titan(), 1)
            .with_fault_profile(FaultProfile::seeded(0).with_watchdog_limit_ms(1e-12));
        let x = g.try_upload_f64("x", &vec![1.0; 4096]).unwrap();
        let err = g
            .try_launch("long", LaunchConfig::new(4, 128), |blk| {
                blk.each_warp(|w| {
                    w.load_f64(&x, Some);
                });
            })
            .unwrap_err();
        assert!(matches!(err, DeviceError::WatchdogTimeout { .. }));
        assert_eq!(g.faults().counts().watchdog_timeouts, 1);
    }

    #[test]
    fn injected_alloc_fault_surfaces_as_error() {
        let g = Gpu::with_host_threads(DeviceSpec::gtx_titan(), 1)
            .with_fault_profile(FaultProfile::seeded(5).with_alloc_fault_rate(1.0));
        let err = g.try_alloc_f64("x", 128).unwrap_err();
        assert!(matches!(
            err,
            DeviceError::AllocFailed { injected: true, .. }
        ));
        assert!(err.is_transient());
        // Accounting unchanged by the failed allocation.
        assert_eq!(g.allocated_bytes(), 0);
    }

    #[test]
    fn capacity_exhaustion_is_a_permanent_alloc_error() {
        let g = gpu();
        let cap = g.spec().global_mem_bytes;
        let err = g.try_alloc_f64("huge", cap).unwrap_err(); // 8x capacity in bytes
        assert!(matches!(
            err,
            DeviceError::AllocFailed {
                injected: false,
                ..
            }
        ));
        assert!(!err.is_transient());
    }

    #[test]
    fn the_titans_cache_views_hold_1_mib_and_32_kib() {
        let g = gpu();
        let sms = g.sms.lock().unwrap();
        assert_eq!(sms.len(), 14);
        for sm in sms.iter() {
            // 768 sets of 16 ways round down to 512; 96 sets of 4 to 64.
            assert_eq!(sm.l2.capacity_bytes(), 1 << 20);
            assert_eq!(sm.tex.capacity_bytes(), 32 << 10);
        }
        // The texture view's 64 sets bound the tag range.
        assert_eq!(g.addr_limit, u64::from(u32::MAX) << (7 + 6));
    }

    #[test]
    fn an_allocation_past_the_tag_range_is_a_typed_error() {
        let g = gpu();
        // Park the bump allocator two lines below the limit.
        g.next_addr.store(g.addr_limit - 256, Ordering::Relaxed);
        let fits = g.try_alloc_f64("fits", 16).unwrap();
        assert_eq!(fits.addr_of(15), g.addr_limit - 256 + 120);
        // 17 elements pad to two lines; one is left.
        let err = g.try_alloc_f64("past", 17).unwrap_err();
        assert_eq!(
            err,
            DeviceError::AddressSpaceExhausted {
                name: "past".into(),
                requested_bytes: 136,
                next_addr: g.addr_limit - 128,
                limit: g.addr_limit,
            }
        );
        assert_eq!(err.kind(), "address-space-exhausted");
        assert!(!err.is_transient());
        // Nothing was charged or handed out for the failed request.
        assert_eq!(g.allocated_bytes(), 128);
        assert_eq!(g.next_addr.load(Ordering::Relaxed), g.addr_limit - 128);
        // The last line below the limit still allocates, and a launch over
        // it probes both caches without aliasing.
        let last = g.try_upload_f64("last", &[1.0; 16]).unwrap();
        assert!(matches!(
            g.try_alloc_f64("over", 1),
            Err(DeviceError::AddressSpaceExhausted { .. })
        ));
        let stats = g
            .try_launch("top", LaunchConfig::new(1, 32), |blk| {
                blk.each_warp(|w| {
                    w.load_f64_tex(&last, |lane| (lane < 16).then_some(lane));
                    w.load_f64(&fits, |lane| (lane < 16).then_some(lane));
                    w.load_f64(&last, |lane| (lane < 16).then_some(lane));
                });
            })
            .unwrap();
        assert_eq!(stats.counters.dram_read_bytes, 2 * 128);
        assert_eq!(stats.counters.l2_read_bytes, 128);
    }

    #[test]
    fn silent_corruption_flips_exactly_one_bit_when_unchecked() {
        let g = Gpu::with_host_threads(DeviceSpec::gtx_titan(), 1)
            .with_fault_profile(FaultProfile::seeded(21).with_corruption_rate(1.0));
        let data = vec![1.0; 64];
        let b = g
            .try_upload_f64("x", &data)
            .expect("silent: upload succeeds");
        let read_back = b.to_vec_f64();
        let diffs = read_back
            .iter()
            .zip(&data)
            .filter(|(a, b)| a.to_bits() != b.to_bits())
            .count();
        assert_eq!(diffs, 1, "exactly one element corrupted");
        assert_eq!(g.faults().counts().corruptions, 1);
        assert_eq!(g.integrity_stats(), IntegrityStats::default());
    }

    #[test]
    fn integrity_layer_catches_h2d_corruption() {
        let g = Gpu::with_host_threads(DeviceSpec::gtx_titan(), 1)
            .with_fault_profile(FaultProfile::seeded(21).with_corruption_rate(1.0))
            .with_integrity_checks(true);
        let err = g.try_upload_f64("x", &[1.0; 64]).unwrap_err();
        assert!(matches!(
            err,
            DeviceError::DataCorruption { stage: "h2d", .. }
        ));
        assert!(err.is_transient());
        let s = g.integrity_stats();
        assert_eq!((s.checks, s.violations), (1, 1));
        assert_eq!(s.bytes_checked, 64 * 8);
        // Accounting rolled back: the rejected upload left nothing behind.
        assert_eq!(g.allocated_bytes(), 0);
    }

    #[test]
    fn integrity_layer_catches_pool_reuse_corruption() {
        // Corrupt only the *second* corruption opportunity: the first is
        // the warm-up upload (clean), the second is the pooled reuse.
        // Rate 1.0 with checks off for the warm-up would abort it instead.
        let g = Gpu::with_host_threads(DeviceSpec::gtx_titan(), 1)
            .with_fault_profile(FaultProfile::seeded(21).with_corruption_rate(1.0));
        drop(g.try_upload_f64("warm", &[3.0; 500]).expect("silent"));
        assert_eq!(g.pool_stats().reclaimed, 1);
        g.set_integrity_checks(true);
        let before = g.allocated_bytes();
        let err = g.try_alloc_f64("reused", 500).unwrap_err();
        assert!(matches!(
            err,
            DeviceError::DataCorruption {
                stage: "pool-reuse",
                ..
            }
        ));
        assert_eq!(g.integrity_stats().violations, 1);
        assert_eq!(g.allocated_bytes(), before);
    }

    #[test]
    fn clean_uploads_pass_integrity_checks() {
        let g = Gpu::with_host_threads(DeviceSpec::gtx_titan(), 1).with_integrity_checks(true);
        let b = g.try_upload_f64("x", &[1.5; 32]).expect("clean");
        assert_eq!(b.to_vec_f64(), vec![1.5; 32]);
        let u = g.try_upload_u32("idx", &[7, 8, 9]).expect("clean");
        assert_eq!(u.to_vec_u32(), vec![7, 8, 9]);
        let s = g.integrity_stats();
        assert_eq!((s.checks, s.violations), (2, 0));
        assert_eq!(s.bytes_checked, 32 * 8 + 3 * 4);
    }

    #[test]
    fn memory_pressure_shrinks_effective_capacity_mid_run() {
        let g = Gpu::with_host_threads(DeviceSpec::gtx_titan(), 1)
            .with_fault_profile(FaultProfile::seeded(0).with_memory_pressure(2, 1.0));
        // First two requests see the full device.
        let a = g.try_alloc_f64("a", 64).expect("pre-pressure");
        let _b = g.try_alloc_f64("b", 64).expect("pre-pressure");
        // From the third request on, the whole capacity is reserved.
        let err = g.try_alloc_f64("c", 64).unwrap_err();
        assert!(matches!(
            err,
            DeviceError::AllocFailed {
                injected: false,
                capacity_bytes: 0,
                ..
            }
        ));
        assert!(!err.is_transient(), "pressure is permanent: degrade");
        assert_eq!(g.faults().counts().pressure_rejections, 1);
        // Accounting untouched by the rejection.
        assert_eq!(g.allocated_bytes(), 2 * a.size_bytes());
    }

    #[test]
    fn disabled_faults_do_not_change_launch_results() {
        let run = |faulty: bool| {
            let mut g = Gpu::with_host_threads(DeviceSpec::gtx_titan(), 1);
            if faulty {
                // Profile attached but all rates zero: must be a no-op.
                g = g.with_fault_profile(FaultProfile::seeded(11));
            }
            let x = g.try_upload_f64("x", &vec![2.0; 1024]).unwrap();
            let s = g
                .try_launch("scan", LaunchConfig::new(2, 64), |blk| {
                    blk.each_warp(|w| {
                        w.load_f64(&x, Some);
                    });
                })
                .unwrap();
            (s.counters.gld_transactions, s.sim_ms())
        };
        let (t0, ms0) = run(false);
        let (t1, ms1) = run(true);
        assert_eq!(t0, t1);
        assert!((ms0 - ms1).abs() < 1e-12);
    }

    #[test]
    fn texture_loads_hit_tex_cache() {
        let g = gpu();
        let y = g.try_upload_f64("y", &vec![2.0; 64]).unwrap();
        let cfg = LaunchConfig::new(1, 32);
        let stats = g
            .try_launch("tex", cfg, |blk| {
                blk.each_warp(|w| {
                    w.load_f64_tex(&y, Some);
                    w.load_f64_tex(&y, Some);
                });
            })
            .unwrap();
        assert!(stats.counters.tex_read_bytes > 0);
    }

    #[test]
    fn free_updates_accounting() {
        let g = gpu();
        let before = g.allocated_bytes();
        let b = g.try_alloc_f64("tmp", 1024).unwrap();
        assert_eq!(g.allocated_bytes() - before, 8192);
        g.free(&b);
        assert_eq!(g.allocated_bytes(), before);
    }

    #[test]
    fn pool_recycles_dropped_buffers_with_fresh_addresses() {
        let g = gpu();
        let first = g.try_alloc_f64("scratch", 500).unwrap();
        let first_addr = first.addr_of(0);
        first.host_write_f64(3, 42.0);
        drop(first);
        assert_eq!(g.pool_stats().reclaimed, 1);

        // Same-bucket reallocation: served from the pool, but with a fresh
        // bump address (counter bit-identity) and zeroed contents
        // (zero-on-reuse).
        let second = g.try_alloc_f64("scratch2", 500).unwrap();
        assert_eq!(g.pool_stats().hits, 1);
        assert_ne!(second.addr_of(0), first_addr);
        assert_eq!(second.host_read_f64(3), 0.0);
    }

    #[test]
    #[should_panic(expected = "index 1000 out of bounds for x of length 1000")]
    fn lane_index_in_the_pooled_slack_panics() {
        let g = gpu();
        // The freed block's slack past element 1000 still holds 7.0 when
        // the 1000-element buffer reuses it.
        drop(g.try_upload_f64("old", &[7.0; 1024]).unwrap());
        let x = g.try_alloc_f64("x", 1000).unwrap();
        assert_eq!(g.pool_stats().hits, 1);
        g.try_launch("overrun", LaunchConfig::new(1, 32), |blk| {
            blk.each_warp(|w| {
                w.load_f64(&x, |lane| (lane == 0).then_some(1000));
            });
        })
        .unwrap();
    }

    #[test]
    fn pool_ignores_buffers_with_live_handles() {
        let g = gpu();
        let a = g.try_alloc_f64("a", 64).unwrap();
        let alias = a.clone();
        g.free(&a); // accounting only: `alias` still references the store
        drop(a);
        assert_eq!(g.pool_stats().reclaimed, 0);
        alias.host_write_f64(0, 1.0); // still safe to touch
        drop(alias);
        assert_eq!(g.pool_stats().reclaimed, 1);
    }

    #[test]
    fn pool_disabled_by_zero_retention_cap() {
        let g = gpu();
        g.set_pool_retain_bytes(0);
        drop(g.try_alloc_f64("a", 64).unwrap());
        let s = g.pool_stats();
        assert_eq!(s.reclaimed, 0);
        assert_eq!(s.retained_bytes, 0);
    }

    #[test]
    fn shared_pool_recycles_across_devices() {
        let spec = std::sync::Arc::new(DeviceSpec::tiny_test_device());
        let pool = DevicePool::new();
        let g1 = Gpu::with_host_threads(spec.clone(), 1).with_shared_pool(&pool);
        {
            let warm = g1.try_alloc_f64("warm", 500).unwrap();
            warm.host_write_f64(0, 7.0);
        } // dropped: reclaimed into the shared pool
        drop(g1);
        assert_eq!(pool.stats().reclaimed, 1);

        // A *different* device on the same pool gets the recycled block —
        // with its own fresh bump address and zeroed contents.
        let g2 = Gpu::with_host_threads(spec, 1).with_shared_pool(&pool);
        let reused = g2.try_alloc_f64("reused", 500).unwrap();
        assert_eq!(pool.stats().hits, 1);
        assert_eq!(reused.host_read_f64(0), 0.0);
        // The second device's own-stats view is the shared pool's view.
        assert_eq!(g2.pool_stats(), pool.stats());
    }

    #[test]
    fn shared_spec_constructs_without_cloning() {
        let spec = std::sync::Arc::new(DeviceSpec::tiny_test_device());
        let g1 = Gpu::with_host_threads(spec.clone(), 1);
        let g2 = Gpu::with_host_threads(spec.clone(), 1);
        assert_eq!(g1.spec().name, g2.spec().name);
        // Three owners: the local Arc plus one per device.
        assert_eq!(std::sync::Arc::strong_count(&spec), 3);
    }
}
