//! Typed device errors.
//!
//! Every failure the simulated device can produce — launch-configuration
//! rejection, injected transient faults, watchdog timeouts, allocation
//! failure, transfer timeouts — is a [`DeviceError`] variant. The runtime's
//! recovery policy keys off [`DeviceError::is_transient`]: transient faults
//! are worth retrying on the same engine, permanent ones trigger engine
//! degradation (fused → baseline → CPU).

/// A failure reported by the simulated device.
#[derive(Debug, Clone, PartialEq)]
pub enum DeviceError {
    /// The launch configuration cannot run on this device (empty grid,
    /// block too large, register/shared-memory footprint over the limits).
    InvalidLaunch { kernel: String, detail: String },
    /// An injected transient kernel fault (models an ECC event or a
    /// preempted/killed kernel). `fault_index` is the deterministic draw
    /// index that produced the fault, for reproducible diagnostics.
    TransientFault { kernel: String, fault_index: u64 },
    /// The kernel exceeded the simulated watchdog limit.
    WatchdogTimeout {
        kernel: String,
        sim_ms: f64,
        limit_ms: f64,
    },
    /// Device memory allocation failed (capacity exhausted, or injected).
    AllocFailed {
        name: String,
        requested_bytes: u64,
        allocated_bytes: u64,
        capacity_bytes: u64,
        injected: bool,
    },
    /// The allocation would carry the device's simulated addresses past
    /// the range its cache models can tag. Permanent until
    /// [`crate::Gpu::reset`]: the bump allocator never reuses an address.
    AddressSpaceExhausted {
        name: String,
        requested_bytes: u64,
        next_addr: u64,
        limit: u64,
    },
    /// An injected host/device transfer timeout.
    TransferTimeout {
        buffer: String,
        bytes: u64,
        fault_index: u64,
    },
    /// The integrity layer caught corrupted device data (a seeded bit flip
    /// from the corruption fault class). `stage` names the verification
    /// point (`"h2d"` or `"pool-reuse"`); `fault_index` is the corruption
    /// draw that produced the flip, for reproducible diagnostics.
    DataCorruption {
        buffer: String,
        stage: &'static str,
        fault_index: u64,
    },
    /// The device dropped off the bus (injected device-loss fault, or an
    /// operation issued against a device already marked lost). Sticky:
    /// once lost, every later operation fails with this. `fault_index` is
    /// the device-loss draw that killed the device.
    DeviceLost { device: usize, fault_index: u64 },
}

impl DeviceError {
    /// Whether retrying the same operation (at session granularity) can
    /// succeed: injected transient faults, transfer timeouts and detected
    /// corruption clear on retry (the next transfer draws fresh); launch
    /// rejection, watchdog overruns and capacity exhaustion repeat
    /// deterministically and call for degradation instead.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            DeviceError::TransientFault { .. }
                | DeviceError::TransferTimeout { .. }
                | DeviceError::DataCorruption { .. }
        ) || matches!(self, DeviceError::AllocFailed { injected: true, .. })
    }

    /// Short stable identifier for reports and logs.
    pub fn kind(&self) -> &'static str {
        match self {
            DeviceError::InvalidLaunch { .. } => "invalid-launch",
            DeviceError::TransientFault { .. } => "transient-fault",
            DeviceError::WatchdogTimeout { .. } => "watchdog-timeout",
            DeviceError::AllocFailed { .. } => "alloc-failed",
            DeviceError::AddressSpaceExhausted { .. } => "address-space-exhausted",
            DeviceError::TransferTimeout { .. } => "transfer-timeout",
            DeviceError::DataCorruption { .. } => "data-corruption",
            DeviceError::DeviceLost { .. } => "device-lost",
        }
    }
}

impl std::fmt::Display for DeviceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeviceError::InvalidLaunch { kernel, detail } => {
                write!(f, "kernel {kernel}: {detail}")
            }
            DeviceError::TransientFault {
                kernel,
                fault_index,
            } => {
                write!(
                    f,
                    "kernel {kernel}: injected transient fault (draw #{fault_index})"
                )
            }
            DeviceError::WatchdogTimeout {
                kernel,
                sim_ms,
                limit_ms,
            } => {
                write!(
                    f,
                    "kernel {kernel}: watchdog timeout after {sim_ms:.3}ms (limit {limit_ms:.3}ms)"
                )
            }
            DeviceError::AllocFailed {
                name,
                requested_bytes,
                allocated_bytes,
                capacity_bytes,
                injected,
            } => {
                let cause = if *injected {
                    "injected fault"
                } else {
                    "capacity"
                };
                write!(
                    f,
                    "alloc {name}: {requested_bytes}B failed ({cause}; \
                     {allocated_bytes}B of {capacity_bytes}B in use)"
                )
            }
            DeviceError::AddressSpaceExhausted {
                name,
                requested_bytes,
                next_addr,
                limit,
            } => {
                write!(
                    f,
                    "alloc {name}: {requested_bytes}B failed (address space; \
                     next address {next_addr:#x}, limit {limit:#x})"
                )
            }
            DeviceError::TransferTimeout {
                buffer,
                bytes,
                fault_index,
            } => {
                write!(
                    f,
                    "transfer {buffer}: timeout moving {bytes}B (injected draw #{fault_index})"
                )
            }
            DeviceError::DataCorruption {
                buffer,
                stage,
                fault_index,
            } => {
                write!(
                    f,
                    "buffer {buffer}: integrity check failed at {stage} \
                     (injected bit flip, draw #{fault_index})"
                )
            }
            DeviceError::DeviceLost {
                device,
                fault_index,
            } => {
                write!(
                    f,
                    "device {device}: lost (injected draw #{fault_index}); \
                     all further operations on it fail"
                )
            }
        }
    }
}

impl std::error::Error for DeviceError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transience_classification() {
        let t = DeviceError::TransientFault {
            kernel: "k".into(),
            fault_index: 3,
        };
        assert!(t.is_transient());
        let w = DeviceError::WatchdogTimeout {
            kernel: "k".into(),
            sim_ms: 9.0,
            limit_ms: 1.0,
        };
        assert!(!w.is_transient());
        let cap = DeviceError::AllocFailed {
            name: "x".into(),
            requested_bytes: 10,
            allocated_bytes: 0,
            capacity_bytes: 5,
            injected: false,
        };
        assert!(!cap.is_transient());
        let inj = DeviceError::AllocFailed {
            name: "x".into(),
            requested_bytes: 10,
            allocated_bytes: 0,
            capacity_bytes: 5,
            injected: true,
        };
        assert!(inj.is_transient());
        let c = DeviceError::DataCorruption {
            buffer: "x".into(),
            stage: "h2d",
            fault_index: 0,
        };
        assert!(c.is_transient(), "a re-upload draws fresh: retryable");
        assert_eq!(c.kind(), "data-corruption");
        assert!(c.to_string().contains("integrity check failed at h2d"));
        let l = DeviceError::DeviceLost {
            device: 2,
            fault_index: 7,
        };
        assert!(
            !l.is_transient(),
            "retrying on a lost device cannot succeed; reshard instead"
        );
        assert_eq!(l.kind(), "device-lost");
        assert!(l.to_string().contains("device 2: lost"));
    }

    #[test]
    fn display_mentions_device_limits_detail() {
        let e = DeviceError::InvalidLaunch {
            kernel: "spmv".into(),
            detail: "launch config exceeds device limits of Test".into(),
        };
        assert!(e.to_string().contains("exceeds device limits"));
        assert_eq!(e.kind(), "invalid-launch");
    }
}
