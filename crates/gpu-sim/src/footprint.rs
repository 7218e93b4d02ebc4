//! Load footprints: what a warp load touches, found once and replayed.
//!
//! A lane-form load finds its distinct lines and the sectors it touches in
//! each by deduplicating its lanes' addresses, then probes the caches line
//! by line. When the lanes' elements are fixed — a sparse matrix's index
//! structure decides them, and nothing writes it after upload — the lines
//! and sectors, relative to the buffer's base, are the same on every
//! launch. [`Footprints`] records them once, with the dedup the lane form
//! runs, and [`WarpCtx::load_u32_replay`] and its siblings count a load
//! from its [`LoadFootprint`]: the same probes, in the same order, against
//! the caches as they are at the replay.
//!
//! Lines are stored relative to the buffer's first line, so a buffer must
//! start on a line ([`Gpu`] allocates every buffer so), and a replay
//! checks it.
//!
//! [`WarpCtx::load_u32_replay`]: crate::WarpCtx::load_u32_replay
//! [`Gpu`]: crate::Gpu

use crate::device::DeviceSpec;
use crate::exec::{line_masks, FirstSeen, WARP_LANES};
use crate::memory::Elem;
use crate::shared::replays_and_repeats;

/// The footprints of many warp loads in flat storage: each load's lines, in
/// first-appearance order, as line numbers from its buffer's first line,
/// with the sectors the load touches in each. A load's footprint is a range
/// of these lines, which its recorder keeps ([`Footprints::get`]).
///
/// A line is one `u32`: its number above the `log2(sectors per line)` low
/// bits, which hold its touched sectors less one.
#[derive(Debug)]
pub struct Footprints {
    /// log2 of the line and sector sizes the footprints were recorded on.
    line_shift: u32,
    sector_shift: u32,
    lines: Vec<u32>,
    /// The dedup of the load being recorded.
    dedup: FirstSeen,
}

impl Footprints {
    /// An empty store for loads on `spec`'s lines and sectors.
    pub fn new(spec: &DeviceSpec) -> Self {
        Footprints {
            line_shift: spec.cache_line_bytes.trailing_zeros(),
            sector_shift: spec.sector_bytes.trailing_zeros(),
            lines: Vec::new(),
            dedup: FirstSeen::new(),
        }
    }

    /// Record the footprint of one warp load of `elem` elements whose
    /// active lanes read the elements `elems`, in lane order, on `spec`
    /// (whose lines and sectors must be those of [`Footprints::new`]'s):
    /// the lines the lane form finds, in its order. Returns the load's
    /// line count. Panics if a line's entry does not fit in 32 bits, which
    /// only a buffer of more than 2^26 lines can cause.
    pub fn push(&mut self, spec: &DeviceSpec, elem: Elem, elems: &[usize]) -> usize {
        assert!(
            elems.len() <= WARP_LANES,
            "{} lanes in one warp load",
            elems.len()
        );
        assert_eq!(
            (
                spec.cache_line_bytes.trailing_zeros(),
                spec.sector_bytes.trailing_zeros()
            ),
            (self.line_shift, self.sector_shift),
            "footprint recorded on another line or sector size"
        );
        let mut addrs = [0u64; WARP_LANES];
        for (a, &e) in addrs.iter_mut().zip(elems) {
            *a = e as u64 * elem.bytes();
        }
        let mut masks = [0u64; WARP_LANES];
        line_masks(
            spec,
            &addrs[..elems.len()],
            elem,
            &mut self.dedup,
            &mut masks,
        );
        let count_bits = self.line_shift - self.sector_shift;
        let lines = self.dedup.as_slice();
        for (&line, mask) in lines.iter().zip(masks) {
            let entry = (line << count_bits) | u64::from(mask.count_ones() - 1);
            // The documented limit above: only a buffer of more than 2^26
            // lines overflows an entry.
            #[allow(clippy::panic)]
            let entry = u32::try_from(entry)
                .unwrap_or_else(|_| panic!("footprint line {line} past 32-bit entries"));
            self.lines.push(entry);
        }
        lines.len()
    }

    /// The footprint of a load of `lanes` lanes whose lines are the `lines`
    /// recorded from position `at` on.
    #[inline]
    pub fn get(&self, at: usize, lines: usize, lanes: usize) -> LoadFootprint<'_> {
        LoadFootprint {
            lines: &self.lines[at..at + lines],
            lanes,
            line_shift: self.line_shift,
            sector_shift: self.sector_shift,
        }
    }

    /// Lines recorded so far.
    pub fn line_count(&self) -> usize {
        self.lines.len()
    }

    /// Drop spare capacity once every load is recorded.
    pub fn shrink_to_fit(&mut self) {
        self.lines.shrink_to_fit();
    }
}

/// One warp load's footprint: its distinct lines, in first-appearance
/// order, relative to its buffer's first line, each with the sectors the
/// load touches in it, and the load's lane count. Replay it with
/// [`WarpCtx::load_u32_replay`] and its siblings.
///
/// [`WarpCtx::load_u32_replay`]: crate::WarpCtx::load_u32_replay
#[derive(Debug, Clone, Copy)]
pub struct LoadFootprint<'a> {
    lines: &'a [u32],
    lanes: usize,
    line_shift: u32,
    sector_shift: u32,
}

impl LoadFootprint<'_> {
    /// Call `f` with each line's number from the buffer's first line, and
    /// the sectors the load touches in it, in order.
    #[inline(always)]
    pub(crate) fn each_line(&self, mut f: impl FnMut(u64, u64)) {
        let count_bits = self.line_shift - self.sector_shift;
        let count_mask = (1 << count_bits) - 1;
        for &e in self.lines {
            let e = u64::from(e);
            f(e >> count_bits, (e & count_mask) + 1);
        }
    }

    /// Panic unless the footprint was recorded on these line and sector
    /// sizes, for a load of `lanes` lanes.
    #[inline]
    pub(crate) fn check(&self, line_shift: u32, sector_shift: u32, lanes: usize) {
        assert!(
            (self.line_shift, self.sector_shift) == (line_shift, sector_shift),
            "footprint recorded on another line or sector size"
        );
        assert!(
            self.lanes == lanes,
            "footprint of {} lanes replayed for a load of {lanes}",
            self.lanes
        );
    }
}

/// The shared-memory bank conflicts of one warp's `atomicAdd`s, counted
/// once: the replays of its busiest bank plus the lanes that repeat a word
/// an earlier lane added to (same-word atomics serialize like conflicts).
/// [`WarpCtx::shared_atomic_add_replay`] takes it in place of recounting.
///
/// [`WarpCtx::shared_atomic_add_replay`]: crate::WarpCtx::shared_atomic_add_replay
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BankConflicts(u8);

impl BankConflicts {
    /// The conflicts of one warp's atomic adds to the shared-memory
    /// `words`, in lane order, on `banks` banks.
    pub fn of(words: &[usize], banks: usize) -> Self {
        let (replays, repeats) = replays_and_repeats(words, banks);
        // Each is at most 31 for a warp's 32 lanes.
        BankConflicts((replays + repeats) as u8)
    }

    /// The conflicts as the count `Counters::shared_bank_conflicts` adds.
    #[inline]
    pub(crate) fn count(self) -> u64 {
        u64::from(self.0)
    }
}
