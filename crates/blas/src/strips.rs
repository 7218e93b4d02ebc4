//! Strip footprints: a CSR matrix's fused row steps, counted once per
//! upload.
//!
//! The fused CSR kernels scan each row with a vector of `VS` lanes: in
//! strip `k`, lane `l` of a vector reads its row's element `row_off[r] + l
//! % VS + k * VS`, if the row has it. A warp of `W` lanes holds `W / VS`
//! consecutive rows, and each warp's rows start at a multiple of `W / VS`,
//! so a warp's strip is fixed by its *row group* and its index. Which
//! lanes a strip holds, the lines and sectors of its `col_idx`, `values`
//! and `y` loads relative to each buffer's base, and the bank conflicts of
//! its shared-memory scatter depend only on `row_off`, `col_idx`, `VS`, `W`
//! and the device's line, sector and bank geometry. A [`StripTable`]
//! records them for every row group and strip, and the kernels replay it
//! in every launch, reading only the values lane by lane.
//!
//! The table lives in host memory; it grows with the strips and their
//! lines, so linearly with `nnz`. It is valid while nothing writes the
//! matrix's `row_off` or `col_idx`, which no kernel does after upload; in
//! debug builds [`GpuCsr::strip_table`] digests both at every lookup and
//! panics if either changed.

use crate::dev::GpuCsr;
use fusedml_gpu_sim::{BankConflicts, DeviceSpec, Elem, Footprints, LoadFootprint, WARP_LANES};
use std::sync::{Arc, Mutex, PoisonError};

/// What a table depends on besides the matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Geometry {
    vs: usize,
    lanes: usize,
    line_bytes: usize,
    sector_bytes: usize,
    banks: usize,
}

impl Geometry {
    fn new(spec: &DeviceSpec, vs: usize, lanes: usize) -> Self {
        assert!(
            vs.is_power_of_two() && lanes <= WARP_LANES && lanes % vs == 0,
            "strips of {vs}-lane vectors on {lanes}-lane warps"
        );
        Geometry {
            vs,
            lanes,
            line_bytes: spec.cache_line_bytes,
            sector_bytes: spec.sector_bytes,
            banks: spec.shared_banks,
        }
    }
}

/// One strip of a row group: its lanes, the line counts of its three
/// footprints (stored one after another), and its scatter's conflicts.
#[derive(Debug, Clone, Copy)]
struct Entry {
    mask: u32,
    lines: [u8; 3],
    conflicts: BankConflicts,
}

/// The strips of every row group of one CSR matrix for one vector size,
/// warp width and device geometry. See the [module docs](self).
#[derive(Debug)]
pub struct StripTable {
    geometry: Geometry,
    /// The rows of a group, `W / VS`.
    group_rows: usize,
    /// Each row group's first strip, and after the last group the strip
    /// count.
    group_strips: Vec<u32>,
    /// Each row group's first footprint line.
    group_lines: Vec<usize>,
    strips: Vec<Entry>,
    footprints: Footprints,
    /// Digests of `row_off` and `col_idx` as the table read them.
    #[cfg(debug_assertions)]
    digests: (u64, u64),
}

/// One strip of one warp's row step: its lanes, each lane's element
/// offset from its first, the footprints of its loads and its shared
/// scatter's bank conflicts.
#[derive(Debug, Clone, Copy)]
pub struct Strip<'a> {
    /// Bit `l` is set when lane `l` has an element in this strip.
    pub mask: u32,
    /// Lane `l` reads element `row_off[r] + l % VS + offset`.
    pub offset: usize,
    /// The footprint of the strip's `col_idx` load.
    pub col_idx: LoadFootprint<'a>,
    /// The footprint of the strip's `values` load.
    pub values: LoadFootprint<'a>,
    /// The footprint of the strip's texture load of `y` at its columns.
    pub y: LoadFootprint<'a>,
    /// The bank conflicts of shared-memory atomic adds to its columns.
    pub conflicts: BankConflicts,
}

impl Strip<'_> {
    /// Whether lane `lane` has an element in this strip.
    #[inline]
    pub fn has(&self, lane: usize) -> bool {
        self.mask >> lane & 1 != 0
    }

    /// The lanes with an element.
    #[inline]
    pub fn active(&self) -> u64 {
        u64::from(self.mask.count_ones())
    }
}

/// The strips of one row group, in order.
pub struct Strips<'a> {
    table: &'a StripTable,
    strips: std::ops::Range<usize>,
    line: usize,
    offset: usize,
}

impl<'a> Iterator for Strips<'a> {
    type Item = Strip<'a>;

    #[inline]
    fn next(&mut self) -> Option<Strip<'a>> {
        let e = *self.table.strips.get(self.strips.next()?)?;
        let lanes = e.mask.count_ones() as usize;
        let fp = &self.table.footprints;
        let [c, v, y] = e.lines.map(usize::from);
        let at = self.line;
        self.line += c + v + y;
        let offset = self.offset;
        self.offset += self.table.geometry.vs;
        Some(Strip {
            mask: e.mask,
            offset,
            col_idx: fp.get(at, c, lanes),
            values: fp.get(at + c, v, lanes),
            y: fp.get(at + c + v, y, lanes),
            conflicts: e.conflicts,
        })
    }
}

impl StripTable {
    /// Record every strip of `x` on `g`: the lanes' elements as the fused
    /// kernels step through them, and the lane form's footprint of each
    /// load. Reads `x` from the device's cells, not counted.
    fn build(spec: &DeviceSpec, x: &GpuCsr, g: Geometry) -> Self {
        let (vs, lanes) = (g.vs, g.lanes);
        let group_rows = lanes / vs;
        let groups = x.rows.div_ceil(group_rows);
        let (col_idx, elems_in) = (&x.col_idx, x.col_idx.len());
        let mut group_strips = Vec::with_capacity(groups + 1);
        let mut group_lines = Vec::with_capacity(groups + 1);
        let mut strips = Vec::new();
        let mut footprints = Footprints::new(spec);
        for r0 in (0..x.rows).step_by(group_rows) {
            group_strips.push(strips.len() as u32);
            group_lines.push(footprints.line_count());
            let n = ((x.rows - r0) * vs).min(lanes);
            let mut first = [0usize; WARP_LANES];
            let mut end = [0usize; WARP_LANES];
            for (j, r) in (r0..r0 + n / vs).enumerate() {
                let (start, stop) = (
                    x.row_off.host_read_u32(r) as usize,
                    x.row_off.host_read_u32(r + 1) as usize,
                );
                for l in j * vs..(j + 1) * vs {
                    (first[l], end[l]) = (start + l % vs, stop);
                }
            }
            for offset in (0..).step_by(vs) {
                // Branch-free: which lanes have an element varies from
                // strip to strip.
                let mut mask = 0u32;
                let mut elems = [0usize; WARP_LANES];
                let mut na = 0;
                for l in 0..n {
                    let e = first[l] + offset;
                    let has = e < end[l];
                    mask |= u32::from(has) << l;
                    elems[na] = e;
                    na += usize::from(has);
                }
                if mask == 0 {
                    break;
                }
                let elems = &elems[..na];
                let mut cols = [0usize; WARP_LANES];
                let mut readable = true;
                for (c, &e) in cols.iter_mut().zip(elems) {
                    readable &= e < elems_in;
                    *c = if readable {
                        col_idx.host_read_u32(e) as usize
                    } else {
                        0
                    };
                    readable &= *c < x.cols;
                }
                let cols = &cols[..na];
                // An element past `col_idx`, or a column past `y` and the
                // aggregation target, makes the kernel's read at it panic,
                // as the lane form's did: the group ends at this strip.
                if !readable {
                    strips.push(Entry {
                        mask,
                        lines: [0; 3],
                        conflicts: BankConflicts::default(),
                    });
                    break;
                }
                let lines = [
                    footprints.push(spec, Elem::U32, elems),
                    footprints.push(spec, Elem::F64, elems),
                    footprints.push(spec, Elem::F64, cols),
                ];
                strips.push(Entry {
                    mask,
                    // At most one line a lane.
                    lines: lines.map(|l| l as u8),
                    conflicts: BankConflicts::of(cols, g.banks),
                });
            }
        }
        assert!(
            u32::try_from(strips.len()).is_ok(),
            "{} strips in one table",
            strips.len()
        );
        group_strips.push(strips.len() as u32);
        group_lines.push(footprints.line_count());
        strips.shrink_to_fit();
        footprints.shrink_to_fit();
        StripTable {
            geometry: g,
            group_rows,
            group_strips,
            group_lines,
            strips,
            footprints,
            #[cfg(debug_assertions)]
            digests: digests(x),
        }
    }

    /// The vector size the table was built for.
    pub fn vs(&self) -> usize {
        self.geometry.vs
    }

    /// The strips of the row group whose first row is `first_row`, which
    /// must be a multiple of the group's `W / VS` rows.
    #[inline]
    pub fn strips(&self, first_row: usize) -> Strips<'_> {
        debug_assert_eq!(
            first_row % self.group_rows,
            0,
            "row {first_row} starts no row group"
        );
        let g = first_row / self.group_rows;
        Strips {
            table: self,
            strips: self.group_strips[g] as usize..self.group_strips[g + 1] as usize,
            line: self.group_lines[g],
            offset: 0,
        }
    }
}

/// Digests of `x`'s `row_off` and `col_idx` cells.
#[cfg(debug_assertions)]
fn digests(x: &GpuCsr) -> (u64, u64) {
    (x.row_off.fnv_checksum(), x.col_idx.fnv_checksum())
}

/// The strip tables built for one matrix, shared by its clones.
#[derive(Clone, Default)]
pub(crate) struct StripTables(Arc<Mutex<Vec<Arc<StripTable>>>>);

impl std::fmt::Debug for StripTables {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "StripTables({})", self.len())
    }
}

impl StripTables {
    fn len(&self) -> usize {
        self.0.lock().unwrap_or_else(PoisonError::into_inner).len()
    }
}

impl GpuCsr {
    /// The strip table of this matrix for fused launches of `vs`-lane
    /// vectors on `lanes`-lane warps on `spec`: built on the first call
    /// for that geometry, then shared by every later call, on this matrix
    /// or a clone. Building reads `row_off` and `col_idx` on the host; it
    /// allocates no device memory and draws no fault.
    ///
    /// Nothing may write `row_off` or `col_idx` after the first call: in
    /// debug builds every call digests both and panics if one changed.
    pub fn strip_table(&self, spec: &DeviceSpec, vs: usize, lanes: usize) -> Arc<StripTable> {
        let g = Geometry::new(spec, vs, lanes);
        // A panic cannot leave the list half-updated: it only ever gains
        // a whole table.
        let mut tables = self.strips.0.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(t) = tables.iter().find(|t| t.geometry == g) {
            #[cfg(debug_assertions)]
            assert!(
                digests(self) == t.digests,
                "{} or {} changed after its strip table was built",
                self.row_off.name(),
                self.col_idx.name()
            );
            return Arc::clone(t);
        }
        let t = Arc::new(StripTable::build(spec, self, g));
        tables.push(Arc::clone(&t));
        t
    }

    /// How many strip tables this matrix and its clones have built: one
    /// per vector size, warp width and device geometry launched with.
    pub fn strip_tables(&self) -> usize {
        self.strips.len()
    }
}
