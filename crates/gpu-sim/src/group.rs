//! Multi-device groups with an interconnect model.
//!
//! A [`DeviceGroup`] owns N simulated GPUs that share a device spec but
//! have independent memory, caches, and fault streams (per-device seeds
//! derived from one base profile — see [`FaultProfile::for_device`]).
//! Device-to-device traffic goes through an [`InterconnectSpec`] and is
//! accounted event-style like DRAM: every transfer adds a latency +
//! bytes/bandwidth cost to the group's modelled interconnect time, so
//! multi-device runs are bit-deterministic on the same axes as single-device
//! runs.
//!
//! The group also tracks liveness: a device killed by the device-loss fault
//! class (or [`DeviceGroup::mark_lost`]) stays in the group for indexing
//! stability but is excluded from `alive_*` views, which is what the
//! runtime's reshard recovery enumerates when it rebuilds a sharded job on
//! the survivors.

use crate::device::DeviceSpec;
use crate::exec::Gpu;
use crate::fault::FaultProfile;
use crate::timing::InterconnectSpec;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Cumulative interconnect traffic for a device group.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct InterconnectStats {
    /// Number of device-to-device transfers.
    pub transfers: u64,
    /// Total bytes moved across the fabric.
    pub bytes: u64,
    /// Modelled milliseconds spent on the fabric (latency + bandwidth
    /// terms, summed per transfer).
    pub sim_ms: f64,
}

/// A fixed-size group of simulated GPUs joined by an interconnect.
pub struct DeviceGroup {
    devices: Vec<Gpu>,
    interconnect: InterconnectSpec,
    transfers: AtomicU64,
    bytes: AtomicU64,
    /// Modelled interconnect time, accumulated in nanoseconds so the
    /// counter can stay an integer atomic (exact for the latency +
    /// bytes/bandwidth model at any realistic scale).
    sim_ns: AtomicU64,
}

impl DeviceGroup {
    /// Build a group of `n` devices sharing `spec`, each simulated by one
    /// host thread (fully deterministic), joined by `interconnect`.
    /// `profile` seeds per-device fault streams via
    /// [`FaultProfile::for_device`]; device 0 keeps the base seed, so a
    /// 1-device group faults bit-identically to a standalone device with
    /// the same profile.
    pub fn new(
        spec: impl Into<Arc<DeviceSpec>>,
        n: usize,
        interconnect: InterconnectSpec,
        profile: &FaultProfile,
    ) -> Self {
        assert!(n > 0, "a device group needs at least one device");
        let spec = spec.into();
        let devices = (0..n)
            .map(|i| {
                Gpu::with_host_threads(Arc::clone(&spec), 1)
                    .with_ordinal(i)
                    .with_fault_profile(profile.for_device(i))
            })
            .collect();
        DeviceGroup {
            devices,
            interconnect,
            transfers: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            sim_ns: AtomicU64::new(0),
        }
    }

    /// Number of devices in the group (alive or lost).
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// The group's interconnect profile.
    pub fn interconnect(&self) -> &InterconnectSpec {
        &self.interconnect
    }

    /// Device `i` (alive or lost — operations on a lost device fail with
    /// [`crate::DeviceError::DeviceLost`]).
    pub fn device(&self, i: usize) -> &Gpu {
        &self.devices[i]
    }

    /// Whether device `i` is still alive.
    pub fn alive(&self, i: usize) -> bool {
        !self.devices[i].is_lost()
    }

    /// Administratively kill device `i` (chaos tests; injected losses set
    /// the same flag from inside the device).
    pub fn mark_lost(&self, i: usize) {
        self.devices[i].mark_lost();
    }

    /// Ordinals of the devices still alive, in ordinal order.
    pub fn alive_ordinals(&self) -> Vec<usize> {
        (0..self.devices.len()).filter(|&i| self.alive(i)).collect()
    }

    /// Number of devices still alive.
    pub fn alive_count(&self) -> usize {
        self.devices.iter().filter(|d| !d.is_lost()).count()
    }

    /// Account one device-to-device transfer of `bytes` and return its
    /// modelled cost in milliseconds. Purely an accounting event: the
    /// simulator moves no data here (callers copy through host memory),
    /// but the modelled time and byte totals are exact and deterministic.
    pub fn charge_transfer(&self, bytes: u64) -> f64 {
        let ms = self.interconnect.transfer_ms(bytes);
        self.transfers.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(bytes, Ordering::Relaxed);
        self.sim_ns
            .fetch_add((ms * 1e6).round() as u64, Ordering::Relaxed);
        ms
    }

    /// Cumulative interconnect traffic.
    pub fn interconnect_stats(&self) -> InterconnectStats {
        InterconnectStats {
            transfers: self.transfers.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            sim_ms: self.sim_ns.load(Ordering::Relaxed) as f64 * 1e-6,
        }
    }

    /// Sum of injected-fault totals across every device in the group.
    pub fn fault_counts(&self) -> crate::fault::FaultCounts {
        let mut total = crate::fault::FaultCounts::default();
        for d in &self.devices {
            let c = d.faults().counts();
            total.kernel_faults += c.kernel_faults;
            total.alloc_faults += c.alloc_faults;
            total.transfer_timeouts += c.transfer_timeouts;
            total.watchdog_timeouts += c.watchdog_timeouts;
            total.corruptions += c.corruptions;
            total.pressure_rejections += c.pressure_rejections;
            total.device_losses += c.device_losses;
            total.stragglers += c.stragglers;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceSpec;
    use crate::error::DeviceError;
    use crate::exec::LaunchConfig;

    fn group(n: usize, profile: FaultProfile) -> DeviceGroup {
        DeviceGroup::new(
            DeviceSpec::gtx_titan(),
            n,
            InterconnectSpec::pcie_gen3_x16(),
            &profile,
        )
    }

    #[test]
    fn group_devices_have_independent_memory_and_tracks() {
        let g = group(3, FaultProfile::disabled());
        assert_eq!(g.len(), 3);
        assert_eq!(g.alive_count(), 3);
        let b0 = g.device(0).try_upload_f64("x", &[1.0, 2.0]).unwrap();
        assert_eq!(g.device(0).allocated_bytes(), 16);
        assert_eq!(g.device(1).allocated_bytes(), 0);
        assert_eq!(g.device(0).track(), "device0");
        assert_eq!(g.device(2).track(), "device2");
        assert_eq!(g.device(2).ordinal(), 2);
        g.device(0).free(&b0);
    }

    #[test]
    fn interconnect_charges_are_counted_like_dram() {
        let g = group(2, FaultProfile::disabled());
        let ms = g.charge_transfer(12_000_000);
        assert!((ms - 1.01).abs() < 1e-9);
        g.charge_transfer(0);
        let s = g.interconnect_stats();
        assert_eq!(s.transfers, 2);
        assert_eq!(s.bytes, 12_000_000);
        // 1.01 ms + bare-latency 0.01 ms, exact at ns resolution.
        assert!((s.sim_ms - 1.02).abs() < 1e-6);
    }

    #[test]
    fn lost_devices_fail_sticky_and_leave_survivors_alone() {
        let g = group(3, FaultProfile::disabled());
        g.mark_lost(1);
        assert!(!g.alive(1));
        assert_eq!(g.alive_ordinals(), vec![0, 2]);
        assert_eq!(g.alive_count(), 2);
        let err = g.device(1).try_alloc_f64("x", 4).unwrap_err();
        assert!(matches!(err, DeviceError::DeviceLost { device: 1, .. }));
        let err = g
            .device(1)
            .try_launch("noop", LaunchConfig::new(1, 32), |_blk| {})
            .unwrap_err();
        assert_eq!(err.kind(), "device-lost");
        // Survivors are untouched.
        assert!(g
            .device(0)
            .try_launch("noop", LaunchConfig::new(1, 32), |_blk| {})
            .is_ok());
    }

    #[test]
    fn injected_device_loss_is_deterministic_and_per_device() {
        // Rate 1.0: the first launch on any device kills it — but each
        // device dies from its *own* stream, and replays identically.
        let run = || {
            let g = group(2, FaultProfile::seeded(0xBAD).with_device_loss_rate(1.0));
            let e0 = g
                .device(0)
                .try_launch("k", LaunchConfig::new(1, 32), |_b| {})
                .unwrap_err();
            let e1 = g
                .device(1)
                .try_launch("k", LaunchConfig::new(1, 32), |_b| {})
                .unwrap_err();
            (e0, e1, g.alive_count(), g.fault_counts().device_losses)
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        assert_eq!(a.2, 0);
        assert_eq!(a.3, 2);
        assert!(matches!(a.0, DeviceError::DeviceLost { device: 0, .. }));
        assert!(matches!(a.1, DeviceError::DeviceLost { device: 1, .. }));
    }

    #[test]
    fn straggler_scales_time_but_not_results() {
        let run = |profile: FaultProfile| {
            let gpu =
                Gpu::with_host_threads(DeviceSpec::gtx_titan(), 1).with_fault_profile(profile);
            let x = gpu
                .try_upload_f64("x", &(0..256).map(f64::from).collect::<Vec<_>>())
                .unwrap();
            let out = gpu.try_alloc_f64("out", 1).unwrap();
            let stats = gpu
                .try_launch("sum", LaunchConfig::new(2, 128), |blk| {
                    blk.each_warp(|w| {
                        let mut v = w.load_f64(&x, |lane| Some(lane % 256));
                        w.shuffle_reduce_sum(&mut v, 32);
                        w.store_f64(&out, |lane| (lane == 0).then_some((0, v[0])));
                    });
                })
                .unwrap();
            (
                stats,
                out.host_read_f64(0),
                gpu.faults().counts().stragglers,
            )
        };
        let (base, base_val, base_stragglers) = run(FaultProfile::disabled());
        let (slow, slow_val, stragglers) = run(FaultProfile::seeded(1).with_straggler(1.0, 4.0));
        assert_eq!(base_stragglers, 0);
        assert_eq!(stragglers, 1);
        assert_eq!(slow_val.to_bits(), base_val.to_bits(), "numerics untouched");
        assert_eq!(slow.counters.flops, base.counters.flops);
        assert!((slow.sim_ms() - 4.0 * base.sim_ms()).abs() < 1e-12);
    }

    #[test]
    fn one_device_group_faults_like_a_standalone_device() {
        let profile = FaultProfile::seeded(0x5EED).with_kernel_fault_rate(0.3);
        let g = group(1, profile.clone());
        let solo = Gpu::with_host_threads(DeviceSpec::gtx_titan(), 1).with_fault_profile(profile);
        let from_group: Vec<bool> = (0..50)
            .map(|_| {
                g.device(0)
                    .try_launch("k", LaunchConfig::new(1, 32), |_b| {})
                    .is_err()
            })
            .collect();
        let standalone: Vec<bool> = (0..50)
            .map(|_| {
                solo.try_launch("k", LaunchConfig::new(1, 32), |_b| {})
                    .is_err()
            })
            .collect();
        assert_eq!(from_group, standalone);
    }
}
