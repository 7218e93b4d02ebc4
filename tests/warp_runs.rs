//! The contiguous-run warp operations against the lane-closure forms they
//! stand for: the loads `WarpCtx::load_f64_run` and `load_u32_grouped` with
//! `per = 1` against `|l| (l < lanes).then_some(first + l)`, and
//! `store_f64_run`, `atomic_add_f64_run`, `shared_load_run` and
//! `shared_store_run` against their lane forms with `|l| (l <
//! lanes).then(|| (first + l, vals[l]))` (or, for the shared load, the
//! load's closure).
//!
//! For every start offset within a line, every run length from 0 to 32
//! lanes, a full warp and a partial one (a 40-thread block), and cold and
//! warmed caches, the run form must read the lane form's values, leave the
//! same output bits, and count every `Counters` field the same. Twin
//! devices with identical allocation sequences run the two forms, on one
//! host worker, and for the atomic run also on two. A fixed probe
//! afterwards loads each line of both buffers in a launch of its own, so
//! its counters show where the line sits: the run form must leave the
//! caches as the lane form does. An out-of-bounds run must panic with the
//! lane form's message.
//!
//! The grouped runs `load_u32_grouped` and `load_f64_tex_grouped` stand
//! for `|l| (l < lanes).then_some(first + l / per)`, and a load replayed
//! from its recorded footprint (`load_u32_replay`, `load_f64_replay`,
//! `load_f64_tex_replay`) for its lane form. Those cases also compare each
//! SM's L2 and texture hits. A replay reads the cells as they are, takes
//! any number of footprints, and panics on a footprint of other lanes.

use fusedml_gpu_sim::{
    Counters, DeviceSpec, Elem, Footprints, Gpu, GpuBuffer, LaunchConfig, LoadFootprint, WarpCtx,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

/// Elements of the f64 and the u32 buffer: eight 128-byte lines each.
const F64_LEN: usize = 128;
const U32_LEN: usize = 256;

/// Every scalar `Counters` field by name, and the sampled atomic-address
/// histogram.
type Fields = ([(&'static str, u64); 21], Vec<(u64, u32)>);

/// The [`Fields`] of `c`. The destructuring has no `..`, so a new field
/// fails to compile here until it is compared too.
fn fields(c: &Counters) -> Fields {
    let Counters {
        gld_instructions,
        gld_transactions,
        gst_instructions,
        gst_transactions,
        dram_read_bytes,
        dram_write_bytes,
        l2_read_bytes,
        tex_read_bytes,
        tex_transactions,
        global_atomics,
        global_atomics_int,
        global_atomic_warp_conflicts,
        shared_accesses,
        shared_atomics,
        shared_bank_conflicts,
        shuffle_instructions,
        divergent_instructions,
        inactive_lanes,
        flops,
        barriers,
        kernel_launches,
        atomic_addr_samples,
    } = c;
    let scalars = [
        ("gld_instructions", *gld_instructions),
        ("gld_transactions", *gld_transactions),
        ("gst_instructions", *gst_instructions),
        ("gst_transactions", *gst_transactions),
        ("dram_read_bytes", *dram_read_bytes),
        ("dram_write_bytes", *dram_write_bytes),
        ("l2_read_bytes", *l2_read_bytes),
        ("tex_read_bytes", *tex_read_bytes),
        ("tex_transactions", *tex_transactions),
        ("global_atomics", *global_atomics),
        ("global_atomics_int", *global_atomics_int),
        (
            "global_atomic_warp_conflicts",
            *global_atomic_warp_conflicts,
        ),
        ("shared_accesses", *shared_accesses),
        ("shared_atomics", *shared_atomics),
        ("shared_bank_conflicts", *shared_bank_conflicts),
        ("shuffle_instructions", *shuffle_instructions),
        ("divergent_instructions", *divergent_instructions),
        ("inactive_lanes", *inactive_lanes),
        ("flops", *flops),
        ("barriers", *barriers),
        ("kernel_launches", *kernel_launches),
    ];
    let samples = atomic_addr_samples.iter().map(|(&a, &n)| (a, n)).collect();
    (scalars, samples)
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Form {
    Run,
    Lanes,
}

/// One simulated device with its two buffers, allocated in a fixed order.
struct Device {
    gpu: Gpu,
    f: GpuBuffer,
    u: GpuBuffer,
}

impl Device {
    fn new(spec: &DeviceSpec) -> Self {
        Self::with_workers(spec, 1)
    }

    fn with_workers(spec: &DeviceSpec, workers: usize) -> Self {
        let gpu = Gpu::with_host_threads(spec.clone(), workers);
        let f_host: Vec<f64> = (0..F64_LEN).map(|i| i as f64 * 1.5 - 7.25).collect();
        let u_host: Vec<u32> = (0..U32_LEN as u32).map(|i| i * 7 + 3).collect();
        let f = gpu.try_upload_f64("f", &f_host).unwrap();
        let u = gpu.try_upload_u32("u", &u_host).unwrap();
        Device { gpu, f, u }
    }

    fn buffer(&self, elem: Elem) -> &GpuBuffer {
        match elem {
            Elem::F64 => &self.f,
            Elem::U32 => &self.u,
        }
    }

    /// Elements of `elem` to a cache line.
    fn line_elems(&self, elem: Elem) -> usize {
        self.gpu.spec().cache_line_bytes / elem.bytes() as usize
    }

    /// Issue one load of elements `first..first + lanes` in `form`; the
    /// values come back as bits.
    fn load(
        &self,
        w: &mut WarpCtx,
        elem: Elem,
        form: Form,
        first: usize,
        lanes: usize,
    ) -> [u64; 32] {
        let idx = |l: usize| (l < lanes).then_some(first + l);
        match (elem, form) {
            (Elem::F64, Form::Run) => w.load_f64_run(&self.f, first, lanes).map(f64::to_bits),
            (Elem::F64, Form::Lanes) => w.load_f64(&self.f, idx).map(f64::to_bits),
            (Elem::U32, Form::Run) => w.load_u32_grouped(&self.u, first, lanes, 1).map(u64::from),
            (Elem::U32, Form::Lanes) => w.load_u32(&self.u, idx).map(u64::from),
        }
    }

    /// One block of `threads` threads whose every warp issues the same
    /// load: each warp's values, and the launch's counters.
    fn run(
        &self,
        elem: Elem,
        form: Form,
        first: usize,
        lanes: usize,
        threads: usize,
    ) -> (Vec<[u64; 32]>, Counters) {
        let values = Mutex::new(Vec::new());
        let stats = self
            .gpu
            .try_launch("run", LaunchConfig::new(1, threads), |blk| {
                blk.each_warp(|w| {
                    let v = self.load(w, elem, form, first, lanes);
                    values.lock().unwrap().push(v);
                });
            })
            .unwrap();
        (values.into_inner().unwrap(), stats.counters)
    }

    /// Put some lines of both buffers in L2 and some f64 lines in the
    /// texture cache (a fixed pattern around the runs' lines).
    fn warm(&self) {
        let (fl, ul) = (self.line_elems(Elem::F64), self.line_elems(Elem::U32));
        self.gpu
            .try_launch("warm", LaunchConfig::new(1, 32), |blk| {
                blk.each_warp(|w| {
                    for line in [0, 2, 3, 5] {
                        w.load_f64(&self.f, |l| (l < fl).then_some(line * fl + l));
                    }
                    for line in [1, 4] {
                        w.load_f64_tex(&self.f, |l| (l < fl).then_some(line * fl + l));
                    }
                    for line in [1, 2, 6] {
                        w.load_u32(&self.u, |l| (l < ul).then_some(line * ul + l));
                    }
                });
            })
            .unwrap();
    }

    /// The counters of one launch per line of either buffer that loads
    /// the line's first element: through the texture cache for the f64
    /// buffer, through L2 for the u32 buffer.
    fn probe(&self) -> Vec<Counters> {
        let mut out = Vec::new();
        for elem in [Elem::F64, Elem::U32] {
            let (buf, fl) = (self.buffer(elem), self.line_elems(elem));
            for line in 0..buf.len() / fl {
                let at = line * fl;
                let stats = self
                    .gpu
                    .try_launch("probe", LaunchConfig::new(1, 32), |blk| {
                        blk.each_warp(|w| match elem {
                            Elem::F64 => {
                                w.load_f64_tex(buf, |l| (l == 0).then_some(at));
                            }
                            Elem::U32 => {
                                w.load_u32(buf, |l| (l == 0).then_some(at));
                            }
                        });
                    })
                    .unwrap();
                out.push(stats.counters);
            }
        }
        out
    }
}

/// Run every case of the sweep over `lanes_sweep` on twin `spec` devices.
fn sweep(spec: &DeviceSpec, lanes_sweep: &[usize]) {
    let run_dev = Device::new(spec);
    let lane_dev = Device::new(spec);
    assert_eq!(run_dev.f.base_addr(), lane_dev.f.base_addr());
    assert_eq!(run_dev.u.base_addr(), lane_dev.u.base_addr());
    let mut cases = 0;
    for elem in [Elem::F64, Elem::U32] {
        let line_elems = run_dev.line_elems(elem);
        for offset in 0..line_elems {
            // Runs start in the second line, so a warmed first line
            // precedes them.
            let first = line_elems + offset;
            for &lanes in lanes_sweep {
                for threads in [32, 40] {
                    for warm in [false, true] {
                        let case = format!(
                            "{}: {elem:?} run {first}.. of {lanes} lanes, {threads} threads, warm {warm}",
                            spec.name
                        );
                        for d in [&run_dev, &lane_dev] {
                            d.gpu.flush_caches();
                            if warm {
                                d.warm();
                            }
                        }
                        let (run_vals, run_counters) =
                            run_dev.run(elem, Form::Run, first, lanes, threads);
                        let (lane_vals, lane_counters) =
                            lane_dev.run(elem, Form::Lanes, first, lanes, threads);
                        assert_eq!(run_vals, lane_vals, "{case}: values");
                        assert_eq!(
                            fields(&run_counters),
                            fields(&lane_counters),
                            "{case}: counters"
                        );
                        let (run_probe, lane_probe) = (run_dev.probe(), lane_dev.probe());
                        for (line, (r, l)) in run_probe.iter().zip(&lane_probe).enumerate() {
                            assert_eq!(fields(r), fields(l), "{case}: probe launch {line}");
                        }
                        cases += 1;
                    }
                }
            }
        }
    }
    let offsets = (spec.cache_line_bytes / 8) + (spec.cache_line_bytes / 4);
    assert_eq!(cases, offsets * lanes_sweep.len() * 4);
}

#[test]
fn run_loads_count_what_lane_loads_count() {
    let lanes: Vec<usize> = (0..=32).collect();
    sweep(&DeviceSpec::gtx_titan(), &lanes);
}

/// Other sector sizes. With 16-byte sectors a line has eight, past the
/// lane form's 4-bit count table; 4-byte sectors are narrower than an f64
/// element, so each f64 lane charges the two sectors it spans.
#[test]
fn run_loads_match_on_devices_with_other_sector_sizes() {
    for sector_bytes in [16, 4] {
        let spec = DeviceSpec {
            sector_bytes,
            ..DeviceSpec::gtx_titan()
        };
        sweep(&spec, &[0, 1, 3, 8, 17, 31, 32]);
    }
}

/// The panic message of `f`, if it panics.
fn panic_message(f: impl FnOnce()) -> Option<String> {
    let payload = catch_unwind(AssertUnwindSafe(f)).err()?;
    Some(
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default(),
    )
}

#[test]
fn an_out_of_bounds_run_panics_as_the_lane_form_does() {
    let spec = DeviceSpec::gtx_titan();
    for elem in [Elem::F64, Elem::U32] {
        let len = Device::new(&spec).buffer(elem).len();
        // Past the end, wholly past it, and empty (which reads nothing).
        for (first, lanes) in [(len - 8, 16), (len + 2, 1), (len + 2, 0)] {
            let message = |form| {
                let d = Device::new(&spec);
                panic_message(|| {
                    d.run(elem, form, first, lanes, 32);
                })
            };
            let (run, lane) = (message(Form::Run), message(Form::Lanes));
            assert_eq!(run, lane, "{elem:?} run {first}.. of {lanes} lanes");
            if lanes > 0 {
                let name = if elem == Elem::F64 { "f" } else { "u" };
                let at = first.max(len);
                let expected = format!("index {at} out of bounds for {name} of length {len}");
                assert_eq!(run.as_deref(), Some(expected.as_str()));
            } else {
                assert_eq!(run, None);
            }
        }
    }
}

// ---------------- stores, atomics and shared accesses ----------------

/// Words of the shared array the shared-memory runs address.
const SHARED_LEN: usize = 96;

/// The run operations besides loads.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Op {
    Store,
    AtomicAdd,
    SharedLoad,
    SharedStore,
}

const OPS: [Op; 4] = [Op::Store, Op::AtomicAdd, Op::SharedLoad, Op::SharedStore];

impl Op {
    fn is_shared(self) -> bool {
        matches!(self, Op::SharedLoad | Op::SharedStore)
    }
}

/// The values warp `warp` stores or adds: multiples of 1/4 this small
/// sum exactly, so adds from several workers leave the same bits in any
/// order.
fn run_vals(warp: usize) -> [f64; 32] {
    std::array::from_fn(|l| 1.0 + l as f64 * 0.25 + warp as f64 * 16.0)
}

impl Device {
    /// One launch of `blocks` blocks of `threads` threads whose every warp
    /// issues `op` in `form` on the run of `lanes` lanes from `first`: the
    /// bits each warp read (shared loads) and the output bits (each
    /// block's shared array for shared ops, else the f64 buffer), and the
    /// launch's counters. Warp 0 first fills the shared array with
    /// distinct values, in the lane form.
    fn run_op(
        &self,
        op: Op,
        form: Form,
        first: usize,
        lanes: usize,
        threads: usize,
        blocks: usize,
    ) -> (Vec<u64>, Counters) {
        let out = Mutex::new(Vec::new());
        let cfg = LaunchConfig::new(blocks, threads).with_shared_bytes(SHARED_LEN * 8);
        let stats = self
            .gpu
            .try_launch("run_op", cfg, |blk| {
                let sh = blk.shared_f64(SHARED_LEN);
                blk.each_warp(|w| {
                    if w.warp_id() == 0 {
                        for base in (0..SHARED_LEN).step_by(32) {
                            w.shared_store(sh, |l| Some((base + l, (base + l) as f64 * 0.5 - 3.0)));
                        }
                    }
                });
                blk.each_warp(|w| {
                    let vals = run_vals(w.warp_id());
                    let src = |l: usize| (l < lanes).then(|| (first + l, vals[l]));
                    match (op, form) {
                        (Op::Store, Form::Run) => w.store_f64_run(&self.f, first, lanes, &vals),
                        (Op::Store, Form::Lanes) => w.store_f64(&self.f, src),
                        (Op::AtomicAdd, Form::Run) => {
                            w.atomic_add_f64_run(&self.f, first, lanes, &vals);
                        }
                        (Op::AtomicAdd, Form::Lanes) => w.atomic_add_f64(&self.f, src),
                        (Op::SharedLoad, _) => {
                            let v = if form == Form::Run {
                                w.shared_load_run(sh, first, lanes)
                            } else {
                                w.shared_load(sh, |l| (l < lanes).then_some(first + l))
                            };
                            out.lock().unwrap().extend(v.map(f64::to_bits));
                        }
                        (Op::SharedStore, Form::Run) => w.shared_store_run(sh, first, lanes, &vals),
                        (Op::SharedStore, Form::Lanes) => w.shared_store(sh, src),
                    }
                });
                if op.is_shared() {
                    let words = (0..SHARED_LEN).map(|i| blk.shared_peek(sh, i).to_bits());
                    out.lock().unwrap().extend(words);
                }
            })
            .unwrap();
        let mut out = out.into_inner().unwrap();
        if !op.is_shared() {
            out.extend(self.f.to_vec_f64().into_iter().map(f64::to_bits));
        }
        (out, stats.counters)
    }

    /// The counters of one launch of `blocks` blocks per line of either
    /// buffer, whose every block loads the line's first element through
    /// L2, so they show on how many of those blocks' SMs the line sits in
    /// L2.
    fn probe_l2(&self, blocks: usize) -> Vec<Counters> {
        let mut out = Vec::new();
        for elem in [Elem::F64, Elem::U32] {
            let (buf, fl) = (self.buffer(elem), self.line_elems(elem));
            for line in 0..buf.len() / fl {
                let at = line * fl;
                let cfg = LaunchConfig::new(blocks, 32);
                let stats = self
                    .gpu
                    .try_launch("probe_l2", cfg, |blk| {
                        blk.each_warp(|w| match elem {
                            Elem::F64 => {
                                w.load_f64(buf, |l| (l == 0).then_some(at));
                            }
                            Elem::U32 => {
                                w.load_u32(buf, |l| (l == 0).then_some(at));
                            }
                        });
                    })
                    .unwrap();
                out.push(stats.counters);
            }
        }
        out
    }
}

/// Run every case of `op` on twin `spec` devices of `workers` host
/// workers, in launches of `blocks` blocks. Global runs start at every
/// element of the buffer's second line, shared runs at every bank of the
/// array's second row of banks.
fn sweep_op(spec: &DeviceSpec, op: Op, workers: usize, blocks: usize) {
    let run_dev = Device::with_workers(spec, workers);
    let lane_dev = Device::with_workers(spec, workers);
    assert_eq!(run_dev.f.base_addr(), lane_dev.f.base_addr());
    let starts = if op.is_shared() {
        spec.shared_banks
    } else {
        run_dev.line_elems(Elem::F64)
    };
    let mut cases = 0;
    for first in starts..2 * starts {
        for lanes in 0..=32 {
            for threads in [32, 40] {
                for warm in [false, true] {
                    let case = format!(
                        "{}: {op:?} run {first}.. of {lanes} lanes, {threads} threads, \
                         {workers} workers, warm {warm}",
                        spec.name
                    );
                    for d in [&run_dev, &lane_dev] {
                        d.gpu.flush_caches();
                        if warm {
                            d.warm();
                        }
                    }
                    let (run_out, run_counters) =
                        run_dev.run_op(op, Form::Run, first, lanes, threads, blocks);
                    let (lane_out, lane_counters) =
                        lane_dev.run_op(op, Form::Lanes, first, lanes, threads, blocks);
                    assert_eq!(run_out, lane_out, "{case}: values");
                    assert_eq!(
                        fields(&run_counters),
                        fields(&lane_counters),
                        "{case}: counters"
                    );
                    let (run_probe, lane_probe) =
                        (run_dev.probe_l2(blocks), lane_dev.probe_l2(blocks));
                    for (line, (r, l)) in run_probe.iter().zip(&lane_probe).enumerate() {
                        assert_eq!(fields(r), fields(l), "{case}: probe launch {line}");
                    }
                    cases += 1;
                }
            }
        }
    }
    assert_eq!(cases, starts * 33 * 4);
}

#[test]
fn run_stores_atomics_and_shared_accesses_count_what_lane_forms_count() {
    for op in OPS {
        sweep_op(&DeviceSpec::gtx_titan(), op, 1, 1);
    }
}

/// Four blocks over two workers: the atomic run takes the compare-exchange
/// path there, and the blocks land on four SMs.
#[test]
fn the_atomic_run_matches_its_lane_form_on_two_workers() {
    sweep_op(&DeviceSpec::gtx_titan(), Op::AtomicAdd, 2, 4);
}

/// 4-byte sectors, so each f64 lane spans two, and 16 banks, so a shared
/// run of more than 16 words replays.
#[test]
fn runs_match_with_narrow_sectors_and_sixteen_banks() {
    let spec = DeviceSpec {
        sector_bytes: 4,
        shared_banks: 16,
        ..DeviceSpec::gtx_titan()
    };
    for op in OPS {
        sweep_op(&spec, op, 1, 1);
    }
}

#[test]
fn out_of_bounds_store_atomic_and_shared_runs_panic_as_lane_forms_do() {
    let spec = DeviceSpec::gtx_titan();
    for op in OPS {
        let len = if op.is_shared() { SHARED_LEN } else { F64_LEN };
        // Past the end, wholly past it, and empty (which touches nothing).
        for (first, lanes) in [(len - 8, 16), (len + 2, 1), (len + 2, 0)] {
            let message = |form| {
                let d = Device::new(&spec);
                panic_message(|| {
                    d.run_op(op, form, first, lanes, 32, 1);
                })
            };
            let (run, lane) = (message(Form::Run), message(Form::Lanes));
            assert_eq!(run, lane, "{op:?} run {first}.. of {lanes} lanes");
            assert_eq!(run.is_some(), lanes > 0, "{op:?}: {run:?}");
        }
    }
}

// ---------------- grouped runs and re-issued loads ----------------

impl Device {
    /// Issue one load of `lanes` lanes from `first`, `per` lanes to an
    /// element, in `form`: of the u32 buffer through L2, of the f64
    /// buffer through the texture cache. The values come back as bits.
    fn grouped_load(
        &self,
        w: &mut WarpCtx,
        elem: Elem,
        form: Form,
        (first, lanes, per): (usize, usize, usize),
    ) -> [u64; 32] {
        let idx = |l: usize| (l < lanes).then_some(first + l / per);
        match (elem, form) {
            (Elem::U32, Form::Run) => w
                .load_u32_grouped(&self.u, first, lanes, per)
                .map(u64::from),
            (Elem::U32, Form::Lanes) => w.load_u32(&self.u, idx).map(u64::from),
            (Elem::F64, Form::Run) => w
                .load_f64_tex_grouped(&self.f, first, lanes, per)
                .map(f64::to_bits),
            (Elem::F64, Form::Lanes) => w.load_f64_tex(&self.f, idx).map(f64::to_bits),
        }
    }

    /// One block of `threads` threads whose every warp issues the same
    /// grouped load: each warp's values, and the launch's counters.
    fn run_grouped(
        &self,
        elem: Elem,
        form: Form,
        run: (usize, usize, usize),
        threads: usize,
    ) -> (Vec<[u64; 32]>, Counters) {
        let values = Mutex::new(Vec::new());
        let stats = self
            .gpu
            .try_launch("grouped", LaunchConfig::new(1, threads), |blk| {
                blk.each_warp(|w| {
                    let v = self.grouped_load(w, elem, form, run);
                    values.lock().unwrap().push(v);
                });
            })
            .unwrap();
        (values.into_inner().unwrap(), stats.counters)
    }
}

/// Compare what twin devices `a` and `b` were left with after a case:
/// each SM's L2 and texture hits, and the probe launches' counters.
fn assert_same_caches(a: &Device, b: &Device, case: &str) {
    assert_eq!(a.gpu.cache_hits(), b.gpu.cache_hits(), "{case}: cache hits");
    for (line, (x, y)) in a.probe().iter().zip(&b.probe()).enumerate() {
        assert_eq!(fields(x), fields(y), "{case}: probe launch {line}");
    }
}

/// Every grouped case over `lanes_sweep` on twin `spec` devices: `per`
/// from 1 to 32, runs from every offset of a line, full and partial warps,
/// cold and warm caches.
fn sweep_grouped(spec: &DeviceSpec, lanes_sweep: &[usize]) {
    let run_dev = Device::new(spec);
    let lane_dev = Device::new(spec);
    let mut cases = 0;
    for elem in [Elem::U32, Elem::F64] {
        let line_elems = run_dev.line_elems(elem);
        for offset in 0..line_elems {
            let first = line_elems + offset;
            for per in [1, 2, 4, 8, 16, 32] {
                for &lanes in lanes_sweep {
                    for threads in [32, 40] {
                        for warm in [false, true] {
                            let case = format!(
                                "{}: {elem:?} run {first}.. of {lanes} lanes, {per} per element, \
                                 {threads} threads, warm {warm}",
                                spec.name
                            );
                            for d in [&run_dev, &lane_dev] {
                                d.gpu.flush_caches();
                                if warm {
                                    d.warm();
                                }
                            }
                            let run = (first, lanes, per);
                            let (run_vals, run_counters) =
                                run_dev.run_grouped(elem, Form::Run, run, threads);
                            let (lane_vals, lane_counters) =
                                lane_dev.run_grouped(elem, Form::Lanes, run, threads);
                            assert_eq!(run_vals, lane_vals, "{case}: values");
                            assert_eq!(
                                fields(&run_counters),
                                fields(&lane_counters),
                                "{case}: counters"
                            );
                            assert_same_caches(&run_dev, &lane_dev, &case);
                            cases += 1;
                        }
                    }
                }
            }
        }
    }
    let offsets = (spec.cache_line_bytes / 8) + (spec.cache_line_bytes / 4);
    assert_eq!(cases, offsets * 6 * lanes_sweep.len() * 4);
}

/// `load_u32_grouped` and `load_f64_tex_grouped` against their lane forms
/// with `|l| (l < lanes).then_some(first + l / per)`.
#[test]
fn grouped_loads_count_what_lane_loads_count() {
    let lanes: Vec<usize> = (0..=32).collect();
    sweep_grouped(&DeviceSpec::gtx_titan(), &lanes);
}

/// 4-byte sectors: each f64 element spans two.
#[test]
fn grouped_loads_match_with_narrow_sectors() {
    let spec = DeviceSpec {
        sector_bytes: 4,
        ..DeviceSpec::gtx_titan()
    };
    sweep_grouped(&spec, &[0, 1, 3, 8, 17, 31, 32]);
}

#[test]
fn an_out_of_bounds_grouped_run_panics_as_the_lane_form_does() {
    let spec = DeviceSpec::gtx_titan();
    for elem in [Elem::U32, Elem::F64] {
        let len = Device::new(&spec).buffer(elem).len();
        for per in [1, 2, 8, 32] {
            // Past the end, wholly past it, empty, and (for wide groups)
            // ending at the last element.
            for (first, lanes) in [(len - 3, 32), (len + 2, 1), (len + 2, 0), (len - 1, per)] {
                let message = |form| {
                    let d = Device::new(&spec);
                    panic_message(|| {
                        d.run_grouped(elem, form, (first, lanes, per), 32);
                    })
                };
                let (run, lane) = (message(Form::Run), message(Form::Lanes));
                let case = format!("{elem:?} run {first}.. of {lanes} lanes, {per} per element");
                assert_eq!(run, lane, "{case}");
                let past = lanes > 0 && first + (lanes - 1) / per >= len;
                if past {
                    let name = if elem == Elem::F64 { "f" } else { "u" };
                    let at = first.max(len);
                    let expected = format!("index {at} out of bounds for {name} of length {len}");
                    assert_eq!(run.as_deref(), Some(expected.as_str()), "{case}");
                } else {
                    assert_eq!(run, None, "{case}");
                }
            }
        }
    }
}

/// A GTX Titan whose L2 holds four lines, in two sets of two ways: a few
/// loads between a load and its replay evict the lines it read, and a load
/// whose lines crowd one set keeps the last ones it probed.
fn small_l2(sector_bytes: usize) -> DeviceSpec {
    DeviceSpec {
        l2_bytes: 4 * 128,
        l2_ways: 2,
        sector_bytes,
        ..DeviceSpec::gtx_titan()
    }
}

/// Elements of the lanes of a replayed load: every lane, or a run with
/// lanes predicated off, strided, scattered or descending.
fn replay_pattern(pattern: usize, lane: usize, lanes: usize, len: usize) -> Option<usize> {
    if lane >= lanes {
        return None;
    }
    match pattern {
        0 => Some(lane),
        1 => (lane % 3 != 1).then_some(len / 2 + lane / 4),
        2 => Some(lane * 5 % len),
        3 => Some(lane * 37 % len),
        _ => Some(len - 1 - lane),
    }
}

/// The lanes below `active` that `elem` gives an element, as a lane mask,
/// and their elements in lane order.
fn lanes_of(active: usize, elem: impl Fn(usize) -> Option<usize>) -> (u32, Vec<usize>) {
    let mut mask = 0;
    let mut elems = Vec::new();
    for l in 0..active {
        if let Some(e) = elem(l) {
            mask |= 1 << l;
            elems.push(e);
        }
    }
    (mask, elems)
}

/// The footprints of one warp's u32 load of `u` and f64 load of `f` at
/// `pattern` over `lanes` lanes, recorded on `spec` for a warp of `active`
/// lanes: `(mask, u32 lines, f64 lines)`, the u32 load's lines first.
fn record(
    fps: &mut Footprints,
    spec: &DeviceSpec,
    (pattern, lanes): (usize, usize),
    active: usize,
) -> (u32, usize, usize) {
    let (mask, ue) = lanes_of(active, |l| replay_pattern(pattern, l, lanes, U32_LEN));
    let (_, fe) = lanes_of(active, |l| replay_pattern(pattern, l, lanes, F64_LEN));
    (
        mask,
        fps.push(spec, Elem::U32, &ue),
        fps.push(spec, Elem::F64, &fe),
    )
}

/// Every warp issues a u32 and an f64 load of `pattern` over `lanes`
/// lanes, then loads the first `between` lines of `evict`, one load each,
/// then issues both loads again, the second one first. In `Form::Run` all
/// four are replayed from footprints recorded before the launch, in
/// `Form::Lanes` they are lane-form loads. With `tex` the f64 loads go
/// through the texture cache. Returns every value read and the launch's
/// counters.
fn replay_case(
    d: &Device,
    evict: &GpuBuffer,
    form: Form,
    (pattern, lanes, between): (usize, usize, usize),
    threads: usize,
    tex: bool,
) -> (Vec<u64>, Counters) {
    let spec = d.gpu.spec().clone();
    let mut fps = Footprints::new(&spec);
    // Warp `w`'s footprints: a full warp's, or the 40-thread block's last
    // eight lanes'.
    let recorded: Vec<_> = (0..threads.div_ceil(32))
        .map(|w| {
            let active = (threads - 32 * w).min(32);
            let at = fps.line_count();
            (at, record(&mut fps, &spec, (pattern, lanes), active))
        })
        .collect();
    let values = Mutex::new(Vec::new());
    let (ul, fl) = (U32_LEN, F64_LEN);
    let line = d.line_elems(Elem::F64);
    let stats = d
        .gpu
        .try_launch("replay", LaunchConfig::new(1, threads), |blk| {
            blk.each_warp(|w| {
                let ui = |l: usize| replay_pattern(pattern, l, lanes, ul);
                let fi = |l: usize| replay_pattern(pattern, l, lanes, fl);
                let (at, (mask, nu, nf)) = recorded[w.warp_id()];
                let n = mask.count_ones() as usize;
                let (ufp, ffp) = (fps.get(at, nu, n), fps.get(at + nu, nf, n));
                let mut out = Vec::new();
                let load_u = |w: &mut WarpCtx| match form {
                    Form::Run => w.load_u32_replay(&d.u, ufp, mask, |l| ui(l).unwrap()),
                    Form::Lanes => w.load_u32(&d.u, ui),
                };
                let load_f = |w: &mut WarpCtx, fp: LoadFootprint| match (form, tex) {
                    (Form::Run, false) => w.load_f64_replay(&d.f, fp, mask, |l| fi(l).unwrap()),
                    (Form::Run, true) => w.load_f64_tex_replay(&d.f, fp, mask, |l| fi(l).unwrap()),
                    (Form::Lanes, false) => w.load_f64(&d.f, fi),
                    (Form::Lanes, true) => w.load_f64_tex(&d.f, fi),
                };
                out.extend(load_u(w).map(u64::from));
                out.extend(load_f(w, ffp).map(f64::to_bits));
                for k in 0..between {
                    w.load_f64(evict, |l| (l < line).then_some(k * line + l));
                }
                out.extend(load_f(w, ffp).map(f64::to_bits));
                out.extend(load_u(w).map(u64::from));
                values.lock().unwrap().extend(out);
            });
        })
        .unwrap();
    (values.into_inner().unwrap(), stats.counters)
}

/// A load replayed from its footprint against its lane form: the same
/// values and counts, and the caches left alike, for global and texture
/// loads, with 0, 1 or 16 lines loaded between a load and its second issue
/// (one evicts a line of one set; 16 evict every line of the small L2, so
/// every replayed probe misses), on 32- and 4-byte sectors.
#[test]
fn a_replayed_load_counts_what_its_lane_form_counts() {
    for sector_bytes in [32, 4] {
        let spec = small_l2(sector_bytes);
        let (run_dev, lane_dev) = (Device::new(&spec), Device::new(&spec));
        let evict_host = vec![0.5; 16 * run_dev.line_elems(Elem::F64)];
        let run_evict = run_dev.gpu.try_upload_f64("e", &evict_host).unwrap();
        let lane_evict = lane_dev.gpu.try_upload_f64("e", &evict_host).unwrap();
        let mut missed = 0;
        for tex in [false, true] {
            for pattern in 0..5 {
                for lanes in [0, 1, 5, 16, 31, 32] {
                    for threads in [32, 40] {
                        // DRAM bytes of the cold case with nothing in between.
                        let mut cold_dram = 0;
                        for between in [0, 1, 16] {
                            for warm in [false, true] {
                                let case = format!(
                                    "{sector_bytes}-byte sectors, texture {tex}: pattern \
                                     {pattern}, {lanes} lanes, {between} lines between, \
                                     {threads} threads, warm {warm}"
                                );
                                for d in [&run_dev, &lane_dev] {
                                    d.gpu.flush_caches();
                                    if warm {
                                        d.warm();
                                    }
                                }
                                let case_of = (pattern, lanes, between);
                                let (run_vals, run_counters) = replay_case(
                                    &run_dev,
                                    &run_evict,
                                    Form::Run,
                                    case_of,
                                    threads,
                                    tex,
                                );
                                let (lane_vals, lane_counters) = replay_case(
                                    &lane_dev,
                                    &lane_evict,
                                    Form::Lanes,
                                    case_of,
                                    threads,
                                    tex,
                                );
                                assert_eq!(run_vals, lane_vals, "{case}: values");
                                assert_eq!(
                                    fields(&run_counters),
                                    fields(&lane_counters),
                                    "{case}: counters"
                                );
                                assert_same_caches(&run_dev, &lane_dev, &case);
                                let dram = run_counters.dram_read_bytes;
                                if !warm && between == 0 {
                                    cold_dram = dram;
                                }
                                if !warm && between == 16 {
                                    // Past the 16 evicting lines, the second
                                    // loads fetch their lines from DRAM
                                    // again, some of which hit with nothing
                                    // between.
                                    assert!(dram >= cold_dram + 16 * 128, "{case}: {dram}");
                                    missed += usize::from(dram > cold_dram + 16 * 128);
                                }
                            }
                        }
                    }
                }
            }
        }
        assert!(missed > 0);
    }
}

/// A replay reads its lanes' cells when it is issued: a write after the
/// footprint was recorded shows in the values, and the counts are those of
/// the lane form. A footprint of other lanes, or recorded on another sector
/// size, panics.
#[test]
fn a_replay_reads_the_cells_as_they_are_and_checks_its_footprint() {
    let spec = DeviceSpec::gtx_titan();
    let (run_dev, lane_dev) = (Device::new(&spec), Device::new(&spec));
    let mut fps = Footprints::new(&spec);
    let elems: Vec<usize> = (3..35).collect();
    let lines = fps.push(&spec, Elem::U32, &elems);
    let issue = |d: &Device, form: Form| {
        let out = Mutex::new(Vec::new());
        let stats = d
            .gpu
            .try_launch("written", LaunchConfig::new(1, 32), |blk| {
                blk.each_warp(|w| {
                    w.store_u32(&d.u, |l| (l == 0).then_some((8, 60)));
                    let vals = match form {
                        Form::Run => w.load_u32_replay(&d.u, fps.get(0, lines, 32), !0, |l| l + 3),
                        Form::Lanes => w.load_u32(&d.u, |l| Some(l + 3)),
                    };
                    out.lock().unwrap().extend(vals);
                });
            })
            .unwrap();
        (out.into_inner().unwrap(), fields(&stats.counters))
    };
    let (run, lane) = (issue(&run_dev, Form::Run), issue(&lane_dev, Form::Lanes));
    assert_eq!(run, lane);
    assert_eq!(run.0[5], 60, "element 8 as written");
    assert_same_caches(&run_dev, &lane_dev, "after a write");

    let replay = |d: &Device, mask: u32, fp: LoadFootprint| {
        panic_message(|| {
            d.gpu
                .try_launch("checked", LaunchConfig::new(1, 32), |blk| {
                    blk.each_warp(|w| {
                        w.load_u32_replay(&d.u, fp, mask, |l| l + 3);
                    });
                })
                .unwrap();
        })
    };
    let short = (1u32 << 31) - 1;
    assert_eq!(
        replay(&run_dev, short, fps.get(0, lines, 32)).as_deref(),
        Some("footprint of 32 lanes replayed for a load of 31")
    );
    let narrow = Device::new(&small_l2(4));
    assert_eq!(
        replay(&narrow, !0, fps.get(0, lines, 32)).as_deref(),
        Some("footprint recorded on another line or sector size")
    );
}

/// One warp replays 200 loads from one store, each after its lane form on
/// a twin device: a store holds any number of footprints, and each replay
/// counts what its lane form counts.
#[test]
fn a_footprint_store_replays_any_number_of_loads() {
    let spec = small_l2(32);
    let (run_dev, lane_dev) = (Device::new(&spec), Device::new(&spec));
    let mut fps = Footprints::new(&spec);
    let loads: Vec<(usize, usize, u32)> = (0..200)
        .map(|k| {
            let elem = |l: usize| (l % 3 != 0).then_some((k * 13 + l * (k % 7 + 1)) % U32_LEN);
            let (mask, elems) = lanes_of(32, elem);
            (fps.line_count(), fps.push(&spec, Elem::U32, &elems), mask)
        })
        .collect();
    let issue = |d: &Device, form: Form| {
        let out = Mutex::new(Vec::new());
        let stats = d
            .gpu
            .try_launch("many", LaunchConfig::new(1, 64), |blk| {
                blk.each_warp(|w| {
                    for (k, &(at, lines, mask)) in loads.iter().enumerate() {
                        let elem = |l: usize| (k * 13 + l * (k % 7 + 1)) % U32_LEN;
                        let fp = fps.get(at, lines, mask.count_ones() as usize);
                        let vals = match form {
                            Form::Run => w.load_u32_replay(&d.u, fp, mask, elem),
                            Form::Lanes => {
                                w.load_u32(&d.u, |l| (mask >> l & 1 != 0).then(|| elem(l)))
                            }
                        };
                        out.lock().unwrap().extend(vals);
                    }
                });
            })
            .unwrap();
        (out.into_inner().unwrap(), fields(&stats.counters))
    };
    assert_eq!(issue(&run_dev, Form::Run), issue(&lane_dev, Form::Lanes));
    assert_same_caches(&run_dev, &lane_dev, "200 loads");
}
