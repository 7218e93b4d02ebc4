//! Set-associative LRU cache model used for the per-SM L2 slice and the
//! per-SM read-only (texture) cache.
//!
//! The model operates on 128-byte line addresses. It is what gives the fused
//! kernels their temporal-locality win (§3): the second scan of a CSR row
//! hits in cache when the row was recently loaded by the same vector of
//! threads, halving DRAM traffic exactly as the paper argues.

/// Tag of an empty way. A real tag is `line >> set bits` and stays below
/// it for every address under [`CacheModel::addr_limit`], which `Gpu`'s
/// allocator never passes.
const EMPTY: u32 = u32::MAX;

/// A set-associative cache with LRU replacement, tracked at line
/// granularity.
///
/// Each set keeps its 32-bit tags in recency order, most recently used
/// first, so empty ways trail the valid ones and the last way is the LRU
/// victim. Ways are symmetric, so the order is all the state a set has:
/// the hit and miss sequence is that of an LRU cache that stamps each way
/// with its last use.
///
/// A flush is O(1): it advances `epoch`, and a set last touched in an
/// earlier epoch reads as empty on its next probe. Construction fills
/// nothing either: every set starts in epoch 0, before the first.
#[derive(Debug, Clone)]
pub struct CacheModel {
    /// log2(line size in bytes).
    line_shift: u32,
    /// log2(number of sets).
    set_bits: u32,
    ways: usize,
    /// `ways` tags per set, most recently used first.
    tags: Vec<u32>,
    /// The epoch each set was last touched in.
    set_epoch: Vec<u32>,
    epoch: u32,
    hits: u64,
    misses: u64,
}

impl CacheModel {
    /// Build a cache of `capacity_bytes` with the given line size and
    /// associativity. Capacity is rounded down to a power-of-two set count;
    /// a degenerate capacity yields a 1-set cache.
    pub fn new(capacity_bytes: usize, line_bytes: usize, ways: usize) -> Self {
        assert!(
            line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        let ways = ways.max(1);
        let lines = (capacity_bytes / line_bytes).max(ways);
        // Round the set count down to a power of two for cheap indexing.
        let num_sets = 1usize << (lines / ways).max(1).ilog2();
        CacheModel {
            line_shift: line_bytes.trailing_zeros(),
            set_bits: num_sets.trailing_zeros(),
            ways,
            // Zeroed allocations: no page is written until its set is.
            tags: vec![0; num_sets * ways],
            set_epoch: vec![0; num_sets],
            epoch: 1,
            hits: 0,
            misses: 0,
        }
    }

    /// Line size in bytes.
    pub fn line_bytes(&self) -> usize {
        1usize << self.line_shift
    }

    /// The first byte address past the tag range: every address below it
    /// has a 32-bit tag. Addresses at or above it would alias.
    pub fn addr_limit(&self) -> u64 {
        let limit = u128::from(EMPTY) << (self.line_shift + self.set_bits);
        u64::try_from(limit).unwrap_or(u64::MAX)
    }

    /// Probe the cache with a byte address. Returns `true` on hit. On miss
    /// the line is installed, evicting the LRU way of its set.
    // Inlined: the simulator probes once per line of every warp memory
    // instruction, and an out-of-line call is a measurable share of that.
    #[inline]
    pub fn access(&mut self, byte_addr: u64) -> bool {
        debug_assert!(byte_addr < self.addr_limit(), "{byte_addr:#x} has no tag");
        let line = byte_addr >> self.line_shift;
        let set = line as usize & ((1 << self.set_bits) - 1);
        let tag = (line >> self.set_bits) as u32;
        let ways = &mut self.tags[set * self.ways..(set + 1) * self.ways];
        if self.set_epoch[set] != self.epoch {
            self.set_epoch[set] = self.epoch;
            ways.fill(EMPTY);
        }
        // Put the tag in front and move each tag behind it one way back,
        // up to the tag's old way (a hit) or the first empty way (a miss
        // into free space). A full set that misses drops its LRU tag.
        let mut carry = tag;
        for way in ways.iter_mut() {
            let t = std::mem::replace(way, carry);
            if t == tag {
                self.hits += 1;
                return true;
            }
            if t == EMPTY {
                break;
            }
            carry = t;
        }
        self.misses += 1;
        false
    }

    /// Count `n` probes of the line this cache was just probed with,
    /// without making them. That probe, hit or miss, left the line most
    /// recently used in its set, so a second one is a hit that changes no
    /// state; this counts the hits, so [`CacheModel::hits`] stays what the
    /// probes would make it.
    #[inline]
    pub(crate) fn repeat_hits(&mut self, n: u64) {
        self.hits += n;
    }

    /// Invalidate all lines (e.g. between launches if desired; the
    /// simulator keeps caches warm across launches by default, matching
    /// real hardware).
    pub fn flush(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Once every 2^32 flushes: restart the epochs.
            self.set_epoch.fill(0);
            self.epoch = 1;
        }
    }

    pub fn hits(&self) -> u64 {
        self.hits
    }

    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Total capacity in bytes.
    pub fn capacity_bytes(&self) -> usize {
        self.set_epoch.len() * self.ways * self.line_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The stamp-based LRU this model replaced: `u64` tags and last-use
    /// stamps per way, the victim being the first way with the smallest
    /// stamp. Kept as the reference the compact model must agree with.
    struct StampLru {
        line_shift: u32,
        num_sets: usize,
        ways: usize,
        tags: Vec<u64>,
        stamps: Vec<u64>,
        clock: u64,
    }

    impl StampLru {
        fn new(capacity_bytes: usize, line_bytes: usize, ways: usize) -> Self {
            let ways = ways.max(1);
            let lines = (capacity_bytes / line_bytes).max(ways);
            let num_sets = 1usize << (lines / ways).max(1).ilog2();
            StampLru {
                line_shift: line_bytes.trailing_zeros(),
                num_sets,
                ways,
                tags: vec![u64::MAX; num_sets * ways],
                stamps: vec![0; num_sets * ways],
                clock: 0,
            }
        }

        fn access(&mut self, byte_addr: u64) -> bool {
            let line = byte_addr >> self.line_shift;
            let base = (line as usize & (self.num_sets - 1)) * self.ways;
            self.clock += 1;
            let tags = &mut self.tags[base..base + self.ways];
            let stamps = &mut self.stamps[base..base + self.ways];
            let (mut lru, mut oldest) = (0, u64::MAX);
            for w in 0..self.ways {
                if tags[w] == line {
                    stamps[w] = self.clock;
                    return true;
                }
                if stamps[w] < oldest {
                    (lru, oldest) = (w, stamps[w]);
                }
            }
            tags[lru] = line;
            stamps[lru] = self.clock;
            false
        }

        fn flush(&mut self) {
            self.tags.fill(u64::MAX);
            self.stamps.fill(0);
        }
    }

    /// SplitMix64.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// One seeded address stream: phases of hot reuse (a small working
    /// set), streaming (a sequential scan larger than the cache) and random
    /// probes over a wide range, with a flush between some phases.
    fn stream(seed: u64, capacity: u64, flushes: bool) -> Vec<Option<u64>> {
        let mut rng = Rng(seed);
        let mut out = Vec::new();
        for _ in 0..24 {
            match rng.below(3) {
                0 => {
                    let base = rng.below(1 << 30) & !127;
                    let span = 1 + rng.below(capacity / 2);
                    for _ in 0..400 {
                        out.push(Some(base + rng.below(span)));
                    }
                }
                1 => {
                    let base = rng.below(1 << 30);
                    let stride = [8, 64, 128, 1024][rng.below(4) as usize];
                    for i in 0..(3 * capacity / stride).min(2000) {
                        out.push(Some(base + i * stride));
                    }
                }
                _ => {
                    for _ in 0..400 {
                        out.push(Some(rng.below(1 << 36)));
                    }
                }
            }
            if flushes && rng.below(3) == 0 {
                out.push(None);
            }
        }
        out
    }

    /// Drive both models through `ops` (`None` = flush) and require the same
    /// hit/miss verdict on every probe.
    fn assert_agree(c: &mut CacheModel, r: &mut StampLru, ops: &[Option<u64>], what: &str) {
        for (i, op) in ops.iter().enumerate() {
            match *op {
                Some(a) => assert_eq!(c.access(a), r.access(a), "{what}: probe {i} at {a:#x}"),
                None => {
                    c.flush();
                    r.flush();
                }
            }
        }
    }

    #[test]
    fn hit_miss_sequence_matches_the_stamp_lru() {
        for (seed, (capacity, line, ways)) in [
            (4096, 128, 4),
            (512, 128, 2),
            (1536 * 1024, 128, 16),
            (48 * 1024, 128, 4),
            (1000, 32, 3),
            (128, 128, 1),
            (64, 128, 8),
        ]
        .into_iter()
        .enumerate()
        {
            for flushes in [false, true] {
                let ops = stream(
                    seed as u64 * 2 + u64::from(flushes),
                    capacity as u64,
                    flushes,
                );
                let mut c = CacheModel::new(capacity, line, ways);
                let mut r = StampLru::new(capacity, line, ways);
                let what = format!("{capacity}B/{line}B/{ways}-way, flushes {flushes}");
                assert_agree(&mut c, &mut r, &ops, &what);
                assert_eq!(c.hits() + c.misses(), ops.iter().flatten().count() as u64);
            }
        }
    }

    #[test]
    fn a_repeat_hit_after_a_probe_acts_as_a_second_probe() {
        for (seed, (capacity, line, ways)) in [(4096, 128, 4), (512, 128, 2), (64, 128, 8)]
            .into_iter()
            .enumerate()
        {
            let ops = stream(100 + seed as u64, capacity as u64, true);
            // `c` counts every third probe's repeat; `twice` and the stamp
            // LRU make it.
            let mut c = CacheModel::new(capacity, line, ways);
            let mut twice = CacheModel::new(capacity, line, ways);
            let mut r = StampLru::new(capacity, line, ways);
            for (i, op) in ops.iter().enumerate() {
                match *op {
                    Some(a) => {
                        let hit = c.access(a);
                        assert_eq!(hit, r.access(a), "probe {i} at {a:#x}");
                        assert_eq!(hit, twice.access(a), "probe {i} at {a:#x}");
                        if i % 3 == 0 {
                            c.repeat_hits(1);
                            assert!(r.access(a), "probe {i}: a second probe hits");
                            assert!(twice.access(a), "probe {i}: a second probe hits");
                        }
                    }
                    None => {
                        c.flush();
                        twice.flush();
                        r.flush();
                    }
                }
                assert_eq!((c.hits(), c.misses()), (twice.hits(), twice.misses()));
            }
        }
    }

    #[test]
    fn hit_miss_sequence_matches_across_an_epoch_wrap() {
        let (capacity, line, ways) = (4096, 128, 4);
        let mut c = CacheModel::new(capacity, line, ways);
        let mut r = StampLru::new(capacity, line, ways);
        c.epoch = u32::MAX - 3;
        let ops = stream(99, capacity as u64, true);
        // A flush every 97 probes: the fourth wraps the epoch, early in the
        // stream, with sets of every age still holding lines.
        let mut wrapped = Vec::new();
        for (i, op) in ops.iter().enumerate() {
            wrapped.push(*op);
            if i % 97 == 0 {
                wrapped.push(None);
            }
        }
        assert_agree(&mut c, &mut r, &wrapped, "epoch wrap");
        let flushes = wrapped.iter().filter(|o| o.is_none()).count() as u32;
        assert!(flushes > 8);
        assert_eq!(c.epoch, flushes - 3, "the epoch wrapped once, to 1");
    }

    #[test]
    fn addresses_below_the_limit_have_distinct_tags() {
        let mut c = CacheModel::new(1024, 128, 2);
        assert_eq!(c.addr_limit(), u64::from(u32::MAX) << (7 + 2));
        // The highest line below the limit and the line one set-stride
        // below it share a set and must not alias.
        let top = c.addr_limit() - 128;
        let below = top - (4 << 7);
        assert!(!c.access(top));
        assert!(!c.access(below));
        assert!(c.access(top));
        assert!(c.access(below));
    }

    #[test]
    fn repeated_access_hits() {
        let mut c = CacheModel::new(4096, 128, 4);
        assert!(!c.access(0));
        assert!(c.access(0));
        assert!(c.access(64)); // same 128B line
        assert!(!c.access(128)); // next line
        assert_eq!(c.hits(), 2);
        assert_eq!(c.misses(), 2);
    }

    #[test]
    fn capacity_eviction() {
        // 2 sets x 2 ways x 128B = 512B cache.
        let mut c = CacheModel::new(512, 128, 2);
        assert_eq!(c.capacity_bytes(), 512);
        // Fill set 0 (lines 0, 2 map to set 0 with 2 sets).
        assert!(!c.access(0));
        assert!(!c.access(2 * 128));
        // Both resident.
        assert!(c.access(0));
        assert!(c.access(2 * 128));
        // Third line in the same set evicts LRU (line 0).
        assert!(!c.access(4 * 128));
        assert!(!c.access(0));
    }

    #[test]
    fn lru_order_respected() {
        let mut c = CacheModel::new(512, 128, 2);
        c.access(0); // miss, install line 0
        c.access(256); // set 0 with 2 sets? line 2 -> set 0. install
        c.access(0); // touch line 0 so line 2 is LRU
        c.access(512); // line 4 -> set 0, evicts line 2
        assert!(c.access(0), "recently used line must survive");
        assert!(!c.access(256), "LRU line must have been evicted");
    }

    #[test]
    fn flush_clears() {
        let mut c = CacheModel::new(1024, 128, 2);
        c.access(0);
        assert!(c.access(0));
        c.flush();
        assert!(!c.access(0));
    }

    #[test]
    fn working_set_larger_than_capacity_thrashes() {
        let mut c = CacheModel::new(1024, 128, 2);
        // Stream 100 distinct lines twice: second pass must still miss
        // mostly because the working set exceeds capacity.
        for pass in 0..2 {
            for i in 0..100u64 {
                let hit = c.access(i * 128);
                if pass == 0 {
                    assert!(!hit);
                }
            }
        }
        assert!(c.misses() > 150);
    }
}
