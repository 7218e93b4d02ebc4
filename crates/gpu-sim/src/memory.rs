//! Simulated global (device) memory.
//!
//! Buffers are arrays of `AtomicU64` cells so that thread blocks executing in
//! parallel on host threads can perform device `atomicAdd` correctly (f64
//! values are bit-cast into the cells, CAS-updated — the same technique CUDA
//! uses to implement double-precision atomics on cc < 6.0 hardware). A
//! launch on one host worker is the only thread touching the cells while it
//! runs, so it adds with a plain load and store instead.
//!
//! Every buffer carries a disjoint base address from a bump allocator so that
//! the cache and coalescing models can reason about real-looking addresses.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};

use crate::pool::BufferPool;

/// Element type stored in a buffer. Integer index arrays (CSR `col_idx`,
/// `row_off`) are 4-byte elements for traffic accounting even though each
/// occupies one 8-byte host cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Elem {
    F64,
    U32,
}

impl Elem {
    /// Size in bytes charged to the memory system per element.
    pub fn bytes(self) -> u64 {
        match self {
            Elem::F64 => 8,
            Elem::U32 => 4,
        }
    }
}

#[derive(Debug)]
struct BufferInner {
    name: String,
    base_addr: u64,
    elem: Elem,
    /// Logical element count; the addressable extent of the buffer.
    len: usize,
    /// Backing store, `cells.len() >= len` (capacity is bucketed to a power
    /// of two so the pool can match freed blocks to later requests).
    cells: Box<[AtomicU64]>,
    /// Pool the backing store returns to when the last handle drops.
    pool: Weak<BufferPool>,
}

impl Drop for BufferInner {
    fn drop(&mut self) {
        if let Some(pool) = self.pool.upgrade() {
            pool.reclaim(std::mem::take(&mut self.cells));
        }
    }
}

/// A handle to a device-memory buffer. Cloning shares the allocation.
#[derive(Debug, Clone)]
pub struct GpuBuffer {
    inner: Arc<BufferInner>,
}

impl GpuBuffer {
    /// Unpooled constructor for unit tests; production allocations go
    /// through [`GpuBuffer::with_pool`] via `Gpu::alloc`.
    #[cfg(test)]
    pub(crate) fn new(name: &str, base_addr: u64, elem: Elem, len: usize) -> Self {
        GpuBuffer::with_pool(name, base_addr, elem, len, Weak::new(), None)
    }

    /// Construct a buffer whose backing store recycles through `pool`,
    /// reusing `recycled` cells when the pool had a fitting block.
    ///
    /// Zero-on-reuse: the logical prefix of a recycled block is cleared so
    /// the buffer is indistinguishable from a fresh allocation.
    pub(crate) fn with_pool(
        name: &str,
        base_addr: u64,
        elem: Elem,
        len: usize,
        pool: Weak<BufferPool>,
        recycled: Option<Box<[AtomicU64]>>,
    ) -> Self {
        let cells = match recycled {
            Some(cells) => {
                debug_assert!(cells.len() >= len, "recycled block too small for {name}");
                for c in cells.iter().take(len) {
                    c.store(0, Ordering::Relaxed);
                }
                cells
            }
            None => (0..crate::pool::bucket_for(len))
                .map(|_| AtomicU64::new(0))
                .collect(),
        };
        GpuBuffer {
            inner: Arc::new(BufferInner {
                name: name.to_string(),
                base_addr,
                elem,
                len,
                cells,
                pool,
            }),
        }
    }

    pub fn name(&self) -> &str {
        &self.inner.name
    }

    pub fn len(&self) -> usize {
        self.inner.len
    }

    pub fn is_empty(&self) -> bool {
        self.inner.len == 0
    }

    pub fn elem(&self) -> Elem {
        self.inner.elem
    }

    /// Device byte footprint of this buffer.
    pub fn size_bytes(&self) -> u64 {
        self.len() as u64 * self.inner.elem.bytes()
    }

    /// Simulated device byte address of element 0: where the bump
    /// allocator placed the buffer.
    pub fn base_addr(&self) -> u64 {
        self.inner.base_addr
    }

    /// Simulated device byte address of element `idx` (for the cache and
    /// coalescing models).
    #[inline]
    pub(crate) fn addr_of(&self, idx: usize) -> u64 {
        debug_assert!(idx < self.len(), "address out of bounds in {}", self.name());
        self.inner.base_addr + idx as u64 * self.inner.elem.bytes()
    }

    // ----- raw cell access (used by the execution engine and host API) -----

    /// The cells of the buffer's elements. The backing store can be longer
    /// than the buffer (capacity is bucketed), so the logical length is the
    /// bound, in release builds too: an index in the slack would otherwise
    /// read what a freed buffer left there.
    #[inline]
    pub(crate) fn cells(&self) -> &[AtomicU64] {
        &self.inner.cells[..self.inner.len]
    }

    /// The panic of an element access at `idx`, past the buffer's length.
    #[cold]
    #[inline(never)]
    // A kernel indexing past a buffer is a bug in the kernel, which panics
    // as slice indexing does.
    #[allow(clippy::panic)]
    pub(crate) fn out_of_bounds(&self, idx: usize) -> ! {
        panic!(
            "index {idx} out of bounds for {} of length {}",
            self.name(),
            self.len()
        )
    }

    /// The cell of element `idx`.
    #[inline]
    fn cell(&self, idx: usize) -> &AtomicU64 {
        self.cells()
            .get(idx)
            .unwrap_or_else(|| self.out_of_bounds(idx))
    }

    #[inline]
    pub(crate) fn raw_load(&self, idx: usize) -> u64 {
        self.cell(idx).load(Ordering::Relaxed)
    }

    #[inline]
    pub(crate) fn raw_store(&self, idx: usize, bits: u64) {
        self.cell(idx).store(bits, Ordering::Relaxed);
    }

    /// u32 add on element `idx`; returns the old value. See [`add_u32`].
    #[inline]
    pub(crate) fn raw_add_u32(&self, idx: usize, val: u32, plain: bool) -> u32 {
        add_u32(self.cell(idx), val, plain)
    }

    /// f64 add on element `idx`; returns the old value. See [`add_f64`].
    #[inline]
    pub(crate) fn raw_add_f64(&self, idx: usize, val: f64, plain: bool) -> f64 {
        add_f64(self.cell(idx), val, plain)
    }

    // ----- host-side (cudaMemcpy-like) access; not event counted -----

    #[inline]
    pub fn host_read_f64(&self, idx: usize) -> f64 {
        debug_assert_eq!(self.inner.elem, Elem::F64);
        f64::from_bits(self.raw_load(idx))
    }

    pub fn host_write_f64(&self, idx: usize, v: f64) {
        debug_assert_eq!(self.inner.elem, Elem::F64);
        self.raw_store(idx, v.to_bits());
    }

    #[inline]
    pub fn host_read_u32(&self, idx: usize) -> u32 {
        debug_assert_eq!(self.inner.elem, Elem::U32);
        self.raw_load(idx) as u32
    }

    pub fn host_write_u32(&self, idx: usize, v: u32) {
        debug_assert_eq!(self.inner.elem, Elem::U32);
        self.raw_store(idx, v as u64);
    }

    /// Copy a host slice into the buffer (the simulated `cudaMemcpy` H2D;
    /// transfer *cost* is modelled separately by `fusedml-runtime`).
    pub fn copy_from_f64(&self, src: &[f64]) {
        assert_eq!(
            src.len(),
            self.len(),
            "H2D size mismatch for {}",
            self.name()
        );
        for (i, &v) in src.iter().enumerate() {
            self.raw_store(i, v.to_bits());
        }
    }

    pub fn copy_from_u32(&self, src: &[u32]) {
        assert_eq!(
            src.len(),
            self.len(),
            "H2D size mismatch for {}",
            self.name()
        );
        for (i, &v) in src.iter().enumerate() {
            self.raw_store(i, v as u64);
        }
    }

    /// Read the whole buffer back to the host (`cudaMemcpy` D2H).
    pub fn to_vec_f64(&self) -> Vec<f64> {
        debug_assert_eq!(self.inner.elem, Elem::F64);
        (0..self.len()).map(|i| self.host_read_f64(i)).collect()
    }

    pub fn to_vec_u32(&self) -> Vec<u32> {
        debug_assert_eq!(self.inner.elem, Elem::U32);
        (0..self.len()).map(|i| self.host_read_u32(i)).collect()
    }

    /// Zero every element (the simulated `cudaMemset`).
    pub fn zero(&self) {
        for i in 0..self.len() {
            self.raw_store(i, 0);
        }
    }

    /// Flip one bit of one element's raw cell — the corruption fault
    /// class's mutation primitive. Not event-counted: silent corruption by
    /// definition leaves no trace in the performance model.
    pub(crate) fn corrupt_bit(&self, idx: usize, bit: u32) {
        let cur = self.raw_load(idx);
        self.raw_store(idx, cur ^ (1u64 << (bit % 64)));
    }

    /// FNV-1a digest over the logical cells — the integrity layer's
    /// device-side checksum, comparable against [`fnv1a_cells`] of the host
    /// data that produced the buffer. Host-side work, not event-counted.
    pub fn fnv_checksum(&self) -> u64 {
        fnv1a_cells(self.cells().iter().map(|c| c.load(Ordering::Relaxed)))
    }
}

/// Add `val` to the u32 in `cell` and return the old value. With `plain`
/// the add is a relaxed load and store, which is exact only while no other
/// thread updates the cell: a launch on one host worker. Otherwise it is a
/// `fetch_add`. Both wrap the 64-bit cell alike, so the cell's bits agree.
#[inline]
pub(crate) fn add_u32(cell: &AtomicU64, val: u32, plain: bool) -> u32 {
    if plain {
        let cur = cell.load(Ordering::Relaxed);
        cell.store(cur.wrapping_add(u64::from(val)), Ordering::Relaxed);
        cur as u32
    } else {
        cell.fetch_add(u64::from(val), Ordering::Relaxed) as u32
    }
}

/// Add `val` to the f64 bit-cast into `cell` and return the old value. With
/// `plain` the add is a relaxed load and store, which is exact only while
/// no other thread updates the cell: a launch on one host worker. Otherwise
/// it is a compare-exchange loop. Both store `old + val`, so the bits agree.
#[inline]
pub(crate) fn add_f64(cell: &AtomicU64, val: f64, plain: bool) -> f64 {
    let mut cur = cell.load(Ordering::Relaxed);
    if plain {
        cell.store(f64::to_bits(f64::from_bits(cur) + val), Ordering::Relaxed);
        return f64::from_bits(cur);
    }
    loop {
        let new = f64::to_bits(f64::from_bits(cur) + val);
        match cell.compare_exchange_weak(cur, new, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return f64::from_bits(cur),
            Err(actual) => cur = actual,
        }
    }
}

/// FNV-1a over a stream of 64-bit cell values, one step per cell: the
/// state is xored with the whole cell, then multiplied by the FNV prime.
/// Both halves of a step are bijections of the state (the prime is odd), so
/// changing any one cell, by any number of bits, changes the digest. Host
/// slices digest through the same cell encoding the device stores use:
/// `f64::to_bits` for f64 elements, zero-extension for u32 elements.
pub fn fnv1a_cells(cells: impl Iterator<Item = u64>) -> u64 {
    cells.fold(0xcbf29ce484222325, |h, v| {
        (h ^ v).wrapping_mul(0x100000001b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_f64() {
        let b = GpuBuffer::new("x", 0x1000, Elem::F64, 4);
        b.copy_from_f64(&[1.0, -2.5, 3.25, 0.0]);
        assert_eq!(b.to_vec_f64(), vec![1.0, -2.5, 3.25, 0.0]);
        assert_eq!(b.size_bytes(), 32);
    }

    #[test]
    fn roundtrip_u32() {
        let b = GpuBuffer::new("idx", 0x2000, Elem::U32, 3);
        b.copy_from_u32(&[7, 0, u32::MAX]);
        assert_eq!(b.to_vec_u32(), vec![7, 0, u32::MAX]);
        assert_eq!(b.size_bytes(), 12);
    }

    #[test]
    fn atomic_add_accumulates() {
        for plain in [false, true] {
            let b = GpuBuffer::new("w", 0, Elem::F64, 1);
            let old = b.raw_add_f64(0, 1.5, plain);
            assert_eq!(old, 0.0);
            b.raw_add_f64(0, 2.5, plain);
            assert_eq!(b.host_read_f64(0), 4.0);
        }
    }

    #[test]
    fn atomic_add_is_thread_safe() {
        let b = GpuBuffer::new("w", 0, Elem::F64, 1);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let b = b.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        b.raw_add_f64(0, 1.0, false);
                    }
                });
            }
        });
        assert_eq!(b.host_read_f64(0), 4000.0);
    }

    #[test]
    fn plain_and_atomic_adds_leave_the_same_bits() {
        let f = GpuBuffer::new("w", 0, Elem::F64, 2);
        let u = GpuBuffer::new("c", 0x100, Elem::U32, 2);
        // Rounding f64 sums, and a u32 add that carries past 32 bits.
        u.raw_store(0, u64::from(u32::MAX) - 1);
        u.raw_store(1, u64::from(u32::MAX) - 1);
        for v in [0.1, 1e16, -3.25, 0.7, f64::MIN_POSITIVE] {
            let olds = [f.raw_add_f64(0, v, true), f.raw_add_f64(1, v, false)];
            assert_eq!(olds[0].to_bits(), olds[1].to_bits());
            assert_eq!(f.raw_load(0), f.raw_load(1));
            let olds = [u.raw_add_u32(0, 3, true), u.raw_add_u32(1, 3, false)];
            assert_eq!(olds[0], olds[1]);
            assert_eq!(u.raw_load(0), u.raw_load(1));
        }
    }

    #[test]
    fn checksum_detects_single_bit_flips() {
        // Every bit of every cell, of an f64 and of a u32 buffer.
        let host_f64 = [1.0, 2.0, -0.0, f64::MAX, 3.5e-300, 0.0, 7.25, 8.0];
        let f = GpuBuffer::new("x", 0x1000, Elem::F64, host_f64.len());
        f.copy_from_f64(&host_f64);
        let host_u32 = [7u32, 0, u32::MAX, 1 << 31, 12345];
        let u = GpuBuffer::new("idx", 0x2000, Elem::U32, host_u32.len());
        u.copy_from_u32(&host_u32);
        for (b, host) in [
            (&f, fnv1a_cells(host_f64.iter().map(|v| v.to_bits()))),
            (&u, fnv1a_cells(host_u32.iter().map(|&v| u64::from(v)))),
        ] {
            let clean = b.fnv_checksum();
            assert_eq!(clean, host, "{}: no flip, host digest", b.name());
            for idx in 0..b.len() {
                for bit in 0..64 {
                    b.corrupt_bit(idx, bit);
                    assert_ne!(b.fnv_checksum(), clean, "{} cell {idx} bit {bit}", b.name());
                    b.corrupt_bit(idx, bit); // flip back
                }
            }
            assert_eq!(b.fnv_checksum(), clean);
        }
    }

    #[test]
    fn u32_checksum_matches_zero_extended_host_cells() {
        let b = GpuBuffer::new("idx", 0x2000, Elem::U32, 3);
        b.copy_from_u32(&[7, 0, u32::MAX]);
        let host = fnv1a_cells([7u32, 0, u32::MAX].into_iter().map(u64::from));
        assert_eq!(b.fnv_checksum(), host);
    }

    #[test]
    fn addresses_respect_element_size() {
        let f = GpuBuffer::new("f", 0x100, Elem::F64, 8);
        let u = GpuBuffer::new("u", 0x200, Elem::U32, 8);
        assert_eq!(f.addr_of(2) - f.addr_of(0), 16);
        assert_eq!(u.addr_of(2) - u.addr_of(0), 8);
    }
}
