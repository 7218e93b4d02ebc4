//! The GPU memory manager of the SystemML integration (§4.4):
//! (a) allocate if not already on the device, (b) evict LRU victims when
//! space runs out, (c) deallocate and mark blocks for reuse, (d) keep host
//! and device copies consistent via dirty bits, (e) account the format
//! conversions performed on the way in.

use crate::transfer::TransferModel;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Why an `ensure_on_device` call could not be satisfied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemError {
    /// No block of this name was registered.
    Unregistered { name: String },
    /// The block alone exceeds device capacity.
    TooLarge { requested: u64, capacity: u64 },
    /// Everything evictable was evicted and space still ran out
    /// (remaining blocks are pinned).
    OutOfMemory { requested: u64, free: u64 },
}

impl std::fmt::Display for MemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MemError::Unregistered { name } => write!(f, "block {name} not registered"),
            MemError::TooLarge {
                requested,
                capacity,
            } => write!(
                f,
                "block of {requested} bytes exceeds device capacity {capacity}"
            ),
            MemError::OutOfMemory { requested, free } => write!(
                f,
                "out of device memory: need {requested} bytes, {free} free after eviction"
            ),
        }
    }
}

impl std::error::Error for MemError {}

/// Cumulative manager statistics.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MemStats {
    pub h2d_transfers: u64,
    pub h2d_bytes: u64,
    pub d2h_writebacks: u64,
    pub d2h_bytes: u64,
    pub evictions: u64,
    pub hits: u64,
    /// Total transfer milliseconds charged (including conversions).
    pub transfer_ms: f64,
}

#[derive(Debug, Clone)]
struct Block {
    bytes: u64,
    on_device: bool,
    /// Device copy newer than host copy — eviction must write back.
    device_dirty: bool,
    /// Needs JNI/format conversion when crossing (sparse matrices in the
    /// SystemML regime).
    convert: bool,
    pinned: bool,
    last_use: u64,
}

/// An LRU-evicting device memory manager. Thread-safe; all methods take
/// `&self`.
pub struct MemoryManager {
    capacity: u64,
    transfer: TransferModel,
    inner: Mutex<Inner>,
}

struct Inner {
    blocks: HashMap<String, Block>,
    used: u64,
    clock: u64,
    stats: MemStats,
}

impl MemoryManager {
    pub fn new(capacity_bytes: u64, transfer: TransferModel) -> Self {
        MemoryManager {
            capacity: capacity_bytes,
            transfer,
            inner: Mutex::new(Inner {
                blocks: HashMap::new(),
                used: 0,
                clock: 0,
                stats: MemStats::default(),
            }),
        }
    }

    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    pub fn used(&self) -> u64 {
        self.inner.lock().used
    }

    pub fn stats(&self) -> MemStats {
        self.inner.lock().stats.clone()
    }

    /// Declare a host-resident block the manager may later move to the
    /// device. `convert` marks blocks paying JNI/format conversion.
    pub fn register(&self, name: &str, bytes: u64, convert: bool) {
        if fusedml_trace::is_enabled() {
            fusedml_trace::instant(
                "mem",
                "register",
                "host",
                &[
                    ("block", name.into()),
                    ("bytes", bytes.into()),
                    ("convert", convert.into()),
                ],
            );
        }
        let mut g = self.inner.lock();
        g.clock += 1;
        let clock = g.clock;
        g.blocks.insert(
            name.to_string(),
            Block {
                bytes,
                on_device: false,
                device_dirty: false,
                convert,
                pinned: false,
                last_use: clock,
            },
        );
    }

    /// Ensure a registered block is device-resident, evicting LRU victims
    /// as needed. Returns the transfer milliseconds charged (0 on a hit).
    pub fn ensure_on_device(&self, name: &str) -> Result<f64, MemError> {
        let mut g = self.inner.lock();
        g.clock += 1;
        let clock = g.clock;
        let Some(block) = g.blocks.get_mut(name) else {
            return Err(MemError::Unregistered {
                name: name.to_string(),
            });
        };
        block.last_use = clock;
        if block.on_device {
            g.stats.hits += 1;
            return Ok(0.0);
        }
        let (bytes, convert) = (block.bytes, block.convert);
        if bytes > self.capacity {
            return Err(MemError::TooLarge {
                requested: bytes,
                capacity: self.capacity,
            });
        }

        // Evict LRU until the block fits.
        let mut ms = 0.0;
        while self.capacity - g.used < bytes {
            // Reborrow so a victim's entry and the counters borrow apart.
            let g = &mut *g;
            let free = self.capacity - g.used;
            let victim = g
                .blocks
                .iter_mut()
                .filter(|(n, b)| b.on_device && !b.pinned && n.as_str() != name)
                .min_by_key(|(_, b)| b.last_use);
            let Some((victim, vb)) = victim else {
                return Err(MemError::OutOfMemory {
                    requested: bytes,
                    free,
                });
            };
            vb.on_device = false;
            let (vbytes, vdirty, vconv) = (vb.bytes, vb.device_dirty, vb.convert);
            vb.device_dirty = false;
            g.used -= vbytes;
            g.stats.evictions += 1;
            if fusedml_trace::is_enabled() {
                fusedml_trace::instant(
                    "mem",
                    "evict",
                    "host",
                    &[
                        ("victim", victim.as_str().into()),
                        ("bytes", vbytes.into()),
                        ("dirty", vdirty.into()),
                        ("for_block", name.into()),
                    ],
                );
            }
            if vdirty {
                // Consistency: write the newer device copy back.
                let back = self.transfer.d2h_ms(vbytes, vconv);
                g.stats.d2h_writebacks += 1;
                g.stats.d2h_bytes += vbytes;
                g.stats.transfer_ms += back;
                ms += back;
                if fusedml_trace::is_enabled() {
                    fusedml_trace::sim_span(
                        "mem",
                        "writeback.d2h",
                        "pcie",
                        back,
                        &[("block", victim.as_str().into()), ("bytes", vbytes.into())],
                    );
                }
            }
        }

        let t = self.transfer.h2d_ms(bytes, convert);
        // Found above; eviction only clears other blocks' flags.
        if let Some(b) = g.blocks.get_mut(name) {
            b.on_device = true;
        }
        g.used += bytes;
        g.stats.h2d_transfers += 1;
        g.stats.h2d_bytes += bytes;
        g.stats.transfer_ms += t;
        if fusedml_trace::is_enabled() {
            fusedml_trace::sim_span(
                "mem",
                "h2d",
                "pcie",
                t,
                &[
                    ("block", name.into()),
                    ("bytes", bytes.into()),
                    ("convert", convert.into()),
                ],
            );
        }
        Ok(ms + t)
    }

    /// Mark the device copy as newer than the host copy.
    pub fn mark_device_dirty(&self, name: &str) {
        let mut g = self.inner.lock();
        if let Some(b) = g.blocks.get_mut(name) {
            assert!(b.on_device, "cannot dirty a non-resident block");
            b.device_dirty = true;
        }
    }

    /// Pin a block (exempt from eviction — e.g. the matrix during the
    /// iteration loop).
    ///
    /// # Panics
    /// If no block of this name was registered.
    // Pinning a name never registered is caller misuse.
    #[allow(clippy::panic)]
    pub fn pin(&self, name: &str) {
        if fusedml_trace::is_enabled() {
            fusedml_trace::instant("mem", "pin", "host", &[("block", name.into())]);
        }
        self.inner
            .lock()
            .blocks
            .get_mut(name)
            .unwrap_or_else(|| panic!("block {name} not registered"))
            .pinned = true;
    }

    /// Unpin a block.
    ///
    /// # Panics
    /// If no block of this name was registered.
    // Unpinning a name never registered is caller misuse.
    #[allow(clippy::panic)]
    pub fn unpin(&self, name: &str) {
        self.inner
            .lock()
            .blocks
            .get_mut(name)
            .unwrap_or_else(|| panic!("block {name} not registered"))
            .pinned = false;
    }

    /// Drop a block entirely (deallocate + forget), writing back if dirty.
    /// Returns writeback milliseconds.
    pub fn release(&self, name: &str) -> f64 {
        if fusedml_trace::is_enabled() {
            fusedml_trace::instant("mem", "release", "host", &[("block", name.into())]);
        }
        let mut g = self.inner.lock();
        if let Some(b) = g.blocks.remove(name) {
            if b.on_device {
                g.used -= b.bytes;
                if b.device_dirty {
                    let ms = self.transfer.d2h_ms(b.bytes, b.convert);
                    g.stats.d2h_writebacks += 1;
                    g.stats.d2h_bytes += b.bytes;
                    g.stats.transfer_ms += ms;
                    if fusedml_trace::is_enabled() {
                        fusedml_trace::sim_span(
                            "mem",
                            "writeback.d2h",
                            "pcie",
                            ms,
                            &[("block", name.into()), ("bytes", b.bytes.into())],
                        );
                    }
                    return ms;
                }
            }
        }
        0.0
    }

    /// Is the block currently device-resident?
    pub fn is_resident(&self, name: &str) -> bool {
        self.inner
            .lock()
            .blocks
            .get(name)
            .map(|b| b.on_device)
            .unwrap_or(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mm(capacity: u64) -> MemoryManager {
        MemoryManager::new(capacity, TransferModel::native())
    }

    #[test]
    fn basic_residency_and_hits() {
        let m = mm(1000);
        m.register("a", 400, false);
        let t1 = m.ensure_on_device("a").unwrap();
        assert!(t1 > 0.0);
        assert!(m.is_resident("a"));
        let t2 = m.ensure_on_device("a").unwrap();
        assert_eq!(t2, 0.0);
        assert_eq!(m.stats().hits, 1);
        assert_eq!(m.used(), 400);
    }

    #[test]
    fn lru_eviction_order() {
        let m = mm(1000);
        m.register("a", 400, false);
        m.register("b", 400, false);
        m.register("c", 400, false);
        m.ensure_on_device("a").unwrap();
        m.ensure_on_device("b").unwrap();
        m.ensure_on_device("a").unwrap(); // touch a: b becomes LRU
        m.ensure_on_device("c").unwrap(); // evicts b
        assert!(m.is_resident("a"));
        assert!(!m.is_resident("b"));
        assert!(m.is_resident("c"));
        assert_eq!(m.stats().evictions, 1);
    }

    #[test]
    fn dirty_eviction_writes_back() {
        let m = mm(1000);
        m.register("a", 600, false);
        m.register("b", 600, false);
        m.ensure_on_device("a").unwrap();
        m.mark_device_dirty("a");
        m.ensure_on_device("b").unwrap(); // must evict + write back a
        let s = m.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.d2h_writebacks, 1);
        assert_eq!(s.d2h_bytes, 600);
    }

    #[test]
    fn pinned_blocks_survive() {
        let m = mm(1000);
        m.register("x", 600, false);
        m.register("y", 600, false);
        m.ensure_on_device("x").unwrap();
        m.pin("x");
        let err = m.ensure_on_device("y").unwrap_err();
        assert!(matches!(err, MemError::OutOfMemory { .. }));
        m.unpin("x");
        m.ensure_on_device("y").unwrap();
        assert!(!m.is_resident("x"));
    }

    #[test]
    fn oversized_block_rejected() {
        let m = mm(100);
        m.register("huge", 200, false);
        assert!(matches!(
            m.ensure_on_device("huge"),
            Err(MemError::TooLarge { .. })
        ));
    }

    #[test]
    fn release_writes_back_dirty() {
        let m = mm(1000);
        m.register("a", 300, true);
        m.ensure_on_device("a").unwrap();
        m.mark_device_dirty("a");
        let ms = m.release("a");
        assert!(ms > 0.0);
        assert_eq!(m.used(), 0);
        assert!(!m.is_resident("a"));
    }

    #[test]
    fn conversion_charged_through_transfer_model() {
        let fast = MemoryManager::new(10_000_000_000, TransferModel::native());
        let slow = MemoryManager::new(10_000_000_000, TransferModel::systemml());
        fast.register("m", 1_000_000_000, true);
        slow.register("m", 1_000_000_000, true);
        let tf = fast.ensure_on_device("m").unwrap();
        let ts = slow.ensure_on_device("m").unwrap();
        assert!(ts > 2.0 * tf, "systemml {ts} vs native {tf}");
    }
}
