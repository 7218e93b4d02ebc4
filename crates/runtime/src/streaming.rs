//! Out-of-core (streaming) execution — the extension §3 sketches: "In
//! situations where such an amortization is not feasible, the developed
//! methods can easily be adapted to a streaming design for 'out-of-core'
//! computation."
//!
//! The matrix is split into row chunks; each chunk crosses PCIe through a
//! multi-queue [`CopyEngine`] and its fused pattern contribution is
//! evaluated on device. The pipeline schedule is a genuine event model
//! ([`pipeline_wall`]): up to `depth` staged chunks may be in flight, each
//! H2D queue serializes its own transfers at a static bandwidth share, and
//! kernels serialize on the single compute engine — `depth = 1` is exactly
//! the serial model, `depth = 2` is classic double buffering, deeper
//! pipelines ride out slow transfers.
//!
//! Two things make consecutive solver iterations cheap:
//!
//! * **Chunk residency** — a byte-budgeted cache of device-resident chunks
//!   ([`StreamConfig::resident_bytes_cap`]). Admission is epoch-based: an
//!   entry may only be evicted by a *later* pass, never by the pass that
//!   last touched it, so a partial budget converges to a stable resident
//!   prefix instead of thrashing on every scan. Resident chunks skip the
//!   copy engine entirely.
//! * **Launch-plan hoisting** — per-chunk launch plans are memoized by
//!   chunk shape, so a streamed pass plans once per *distinct chunk shape*
//!   (body + remainder = at most two), not once per chunk, and later
//!   passes plan not at all.
//!
//! The chunks are the ranges of a [`RowRanges`] core, the one the sharded
//! executor uses too, and numerics follow its bit-identity contract: each
//! chunk's kernel writes only the per-row products `u_r = v_r * (X[r,:] y)`
//! (with the intra-row reduction order pinned by the *full* matrix's VS),
//! and the epilogue `w[c] (+)= alpha * u_r * X[r,c]` runs on the host in
//! ascending global row order with `beta * z` applied once at
//! initialization. Chunk size, pipeline depth, queue count and residency
//! budget therefore change the cost model only — the result bits never
//! move.

use crate::transfer::TransferModel;
use fusedml_blas::{level1, try_csrmv, GpuCsr, SpmvStyle};
use fusedml_core::sparse_fused::try_fused_xt_p_shared;
use fusedml_core::sparse_large::try_fused_xt_p_global;
use fusedml_core::{
    try_fused_pattern_shard, PatternSpec, PlanCacheStats, RowRangeExecutor, RowRanges,
};
use fusedml_gpu_sim::{
    estimate_fused_kernel, pipeline_wall, ChainOp, ChunkCost, CopyEngine, CopyEngineSpec,
    CopyEngineStats, Counters, DeviceError, DeviceSpec, Gpu, GpuBuffer,
};
use fusedml_matrix::CsrMatrix;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

/// Why a streamed evaluation could not run. Shape and spec mismatches are
/// caller bugs reported as typed errors at the public entry (they were
/// `assert!` panics before); device faults propagate from the executor.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamError {
    /// `rows_per_chunk` was zero.
    InvalidChunk,
    /// The pipeline depth was zero.
    InvalidDepth,
    /// The copy engine was configured with zero queues.
    InvalidQueues,
    /// An operand's length does not match the matrix shape.
    ShapeMismatch {
        what: &'static str,
        expected: usize,
        got: usize,
    },
    /// A `PatternSpec` flag disagrees with the operands provided.
    SpecMismatch { what: &'static str, enabled: bool },
    /// The device failed while evaluating a chunk.
    Device(DeviceError),
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::InvalidChunk => write!(f, "chunk size must be positive"),
            StreamError::InvalidDepth => write!(f, "pipeline depth must be positive"),
            StreamError::InvalidQueues => write!(f, "copy engine needs at least one queue"),
            StreamError::ShapeMismatch {
                what,
                expected,
                got,
            } => write!(f, "{what} length mismatch: expected {expected}, got {got}"),
            StreamError::SpecMismatch { what, enabled } => write!(
                f,
                "PatternSpec.with_{what} is {enabled} but the {what} operand is {}",
                if *enabled { "absent" } else { "present" }
            ),
            StreamError::Device(e) => write!(f, "device fault during streamed chunk: {e}"),
        }
    }
}

impl std::error::Error for StreamError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StreamError::Device(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DeviceError> for StreamError {
    fn from(e: DeviceError) -> Self {
        StreamError::Device(e)
    }
}

/// `Ok` when operand `what` has the `expected` length.
fn expect_len(what: &'static str, expected: usize, got: usize) -> Result<(), StreamError> {
    if got == expected {
        Ok(())
    } else {
        Err(StreamError::ShapeMismatch {
            what,
            expected,
            got,
        })
    }
}

/// How a [`SparseStreamer`] chunks, pipelines and caches. `None` fields
/// are filled in by the cost-model search ([`choose_stream_plan`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamConfig {
    /// Rows per streamed chunk; `None` lets the cost search choose.
    pub rows_per_chunk: Option<usize>,
    /// Staged chunks in flight (1 = serial, 2 = double buffering);
    /// `None` lets the cost search choose.
    pub depth: Option<usize>,
    /// Independent H2D copy-engine queues (each gets a static
    /// `bandwidth / queues` share of the link).
    pub queues: usize,
    /// Byte budget for device-resident chunks (0 = re-stream everything).
    pub resident_bytes_cap: u64,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            rows_per_chunk: None,
            depth: None,
            queues: 1,
            resident_bytes_cap: 0,
        }
    }
}

impl StreamConfig {
    /// Everything chosen by the cost-model search.
    pub fn auto() -> Self {
        StreamConfig::default()
    }

    /// Pin the chunk size and pipeline depth explicitly.
    pub fn fixed(rows_per_chunk: usize, depth: usize) -> Self {
        StreamConfig {
            rows_per_chunk: Some(rows_per_chunk),
            depth: Some(depth),
            ..StreamConfig::default()
        }
    }

    pub fn with_queues(mut self, queues: usize) -> Self {
        self.queues = queues;
        self
    }

    pub fn with_residency(mut self, resident_bytes_cap: u64) -> Self {
        self.resident_bytes_cap = resident_bytes_cap;
        self
    }
}

/// Report of a streamed pattern evaluation.
///
/// The pipeline fields added by the copy-engine rework carry serde
/// defaults so reports serialized before the rework still deserialize
/// (they were produced by the fixed depth-2 double-buffer model).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamReport {
    pub chunks: usize,
    /// Total bytes moved host -> device.
    pub h2d_bytes: u64,
    /// Sum of per-chunk transfer times (including the lead-in vectors).
    pub transfer_ms: f64,
    /// Sum of per-chunk kernel times.
    pub kernel_ms: f64,
    /// Modelled wall time of the pipeline schedule: up to `depth` staged
    /// chunks in flight, per-queue transfer serialization, kernels
    /// serialized on the compute engine.
    pub overlapped_ms: f64,
    /// Wall time without overlap (single buffer), for comparison.
    pub serial_ms: f64,
    /// Pipeline depth the schedule ran at (pre-rework reports: 2).
    #[serde(default = "legacy_depth")]
    pub depth: usize,
    /// Residency byte budget in effect (pre-rework reports: 0).
    #[serde(default)]
    pub resident_bytes_cap: u64,
    /// Chunks served from device residency instead of the bus.
    #[serde(default)]
    pub residency_hits: u64,
    /// Compute-engine idle time inside [`Self::overlapped_ms`] (initial
    /// fill included): the bubble a deeper pipeline or residency removes.
    #[serde(default)]
    pub bubble_ms: f64,
}

/// Serde default for [`StreamReport::depth`]: reports from before the
/// copy-engine rework came out of the hard-coded double-buffer model.
/// Only the `Deserialize` derive calls it, and the compile-surface serde
/// stub of offline builds (`.stubs/`) derives nothing.
#[allow(dead_code)]
fn legacy_depth() -> usize {
    2
}

/// Per-process flow-id source so concurrent streamers never share arrows.
static NEXT_FLOW_ID: AtomicU64 = AtomicU64::new(1);

/// How many steady-state (warm-residency) passes the cost search prices
/// against one cold pass: solvers run many iterations over the same
/// matrix, so the fuse-across-iteration schedule should optimize for the
/// warm loop, not the first touch.
const SEARCH_STEADY_PASSES: f64 = 9.0;

/// Deepest pipeline the search considers.
const SEARCH_MAX_DEPTH: usize = 4;

/// The chunk size and pipeline depth the out-of-core cost search
/// ([`choose_stream_plan`]) selected for one matrix on one device, plus
/// the modeled wall time of one streamed pattern evaluation under that
/// configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamPlan {
    /// Rows per streamed chunk.
    pub rows_per_chunk: usize,
    /// Pipeline depth (staging buffers in flight).
    pub depth: usize,
    /// Modeled wall milliseconds of one full streamed pass under the
    /// selected configuration (cold residency).
    pub modeled_ms: f64,
}

/// CSR bytes of a row slice with `rows` rows and `nnz` nonzeros (8-byte
/// value and 4-byte column index per nonzero, `rows + 1` 4-byte offsets)
/// — the same accounting [`ChainOp`] uses.
fn csr_slice_bytes(rows: usize, nnz: u64) -> u64 {
    nnz * 12 + (rows as u64 + 1) * 4
}

/// Cost-model search for the streaming configuration: sweep chunk sizes
/// (power-of-two fractions of the matrix) and pipeline depths, price each
/// candidate with the fused-kernel estimate plus the copy-engine pipeline
/// schedule, and score one cold pass plus `SEARCH_STEADY_PASSES` warm
/// passes under the residency budget. Deterministic in its arguments;
/// [`SparseStreamer::try_new`] runs it once per streamer whose config
/// leaves the chunk size or depth open.
pub fn choose_stream_plan(
    device: &DeviceSpec,
    rows: usize,
    cols: usize,
    nnz: u64,
    engine: &CopyEngineSpec,
    resident_bytes_cap: u64,
) -> StreamPlan {
    let rows = rows.max(1);
    let lead_ms = engine.h2d_ms(cols as u64 * 8);
    let mut candidates: Vec<usize> = (0..=6).map(|s| rows.div_ceil(1 << s)).collect();
    candidates.sort_unstable();
    candidates.dedup();
    candidates.reverse(); // largest chunks first: ties keep the coarsest

    let mut best: Option<(f64, StreamPlan)> = None;
    for &rpc in &candidates {
        let mut cold = Vec::new();
        let mut warm = Vec::new();
        let mut resident_bytes = 0u64;
        let mut feasible = true;
        let mut row0 = 0usize;
        while row0 < rows {
            let c_rows = rpc.min(rows - row0);
            let c_nnz = ((nnz as u128 * c_rows as u128) / rows as u128).max(1) as u64;
            let Some(est) = estimate_fused_kernel(
                device,
                &[
                    ChainOp::SpMv {
                        rows: c_rows,
                        cols,
                        nnz: c_nnz,
                    },
                    ChainOp::Map {
                        len: c_rows,
                        side_inputs: 1,
                        flops_per_elem: 1,
                    },
                    ChainOp::SpTmv {
                        rows: c_rows,
                        cols,
                        nnz: c_nnz,
                    },
                ],
            ) else {
                feasible = false;
                break;
            };
            let kernel_ms = est.modeled_ms();
            let bytes = csr_slice_bytes(c_rows, c_nnz);
            let transfer_ms = engine.h2d_ms(bytes);
            cold.push(ChunkCost {
                transfer_ms,
                kernel_ms,
            });
            // Warm pass: the greedy resident prefix stays on device.
            let resident = resident_bytes + bytes <= resident_bytes_cap;
            if resident {
                resident_bytes += bytes;
            }
            warm.push(ChunkCost {
                transfer_ms: if resident { 0.0 } else { transfer_ms },
                kernel_ms,
            });
            row0 += c_rows;
        }
        if !feasible {
            continue;
        }
        let lead = ChunkCost {
            transfer_ms: lead_ms,
            kernel_ms: 0.0,
        };
        let mut cold_sched = vec![lead];
        cold_sched.extend_from_slice(&cold);
        let mut warm_sched = vec![lead];
        warm_sched.extend_from_slice(&warm);
        for depth in 1..=SEARCH_MAX_DEPTH {
            let cold_wall = pipeline_wall(depth, engine.queues, 0.0, &cold_sched).wall_ms;
            let warm_wall = pipeline_wall(depth, engine.queues, 0.0, &warm_sched).wall_ms;
            let score = cold_wall + SEARCH_STEADY_PASSES * warm_wall;
            if best.map_or(true, |(b, _)| score + 1e-12 < b) {
                best = Some((
                    score,
                    StreamPlan {
                        rows_per_chunk: rpc,
                        depth,
                        modeled_ms: cold_wall,
                    },
                ));
            }
        }
    }
    best.map(|(_, plan)| plan).unwrap_or(StreamPlan {
        rows_per_chunk: rows,
        depth: 2,
        modeled_ms: 0.0,
    })
}

/// A chunk kept device-resident under the residency budget.
struct ResidentChunk {
    dev: GpuCsr,
    bytes: u64,
    /// Pass (epoch) that last touched the entry. Entries touched in the
    /// *current* pass are never evicted — that admission guard is what
    /// turns LRU into a stable resident prefix instead of scan-thrash.
    last_used: u64,
}

/// Persistent streaming executor over one CSR matrix: chunk residency,
/// multi-queue copy-engine pipeline, hoisted per-shape launch plans, and
/// the sharded bit-identity contract for all three matrix products a
/// solver needs (pattern / `X y` / `alpha X^T u`).
pub struct SparseStreamer<'g> {
    gpu: &'g Gpu,
    transfer: TransferModel,
    engine: CopyEngine,
    depth: usize,
    queues: usize,
    resident_bytes_cap: u64,
    /// The chunks, in order. Its wall clock runs the modeled pipeline wall
    /// of each pass, not the sum of launches.
    ranges: RowRanges,
    resident: Vec<Option<ResidentChunk>>,
    resident_bytes: u64,
    epoch: u64,
    residency_hits_total: u64,
    y_rep: GpuBuffer,
    w_partial: GpuBuffer,
    released: bool,
}

impl<'g> SparseStreamer<'g> {
    /// Chunk `x` and set up the streaming pipeline. `None` config fields
    /// are resolved by [`choose_stream_plan`], run here once; a solver
    /// loop that keeps the streamer never searches again.
    pub fn try_new(
        gpu: &'g Gpu,
        x: &CsrMatrix,
        transfer: TransferModel,
        cfg: StreamConfig,
    ) -> Result<Self, StreamError> {
        if cfg.queues == 0 {
            return Err(StreamError::InvalidQueues);
        }
        if cfg.rows_per_chunk == Some(0) {
            return Err(StreamError::InvalidChunk);
        }
        if cfg.depth == Some(0) {
            return Err(StreamError::InvalidDepth);
        }
        let (rows, cols) = (x.rows(), x.cols());
        let engine_spec = CopyEngineSpec::new(cfg.queues, transfer.pcie.clone());

        let (rows_per_chunk, depth) = match (cfg.rows_per_chunk, cfg.depth) {
            (Some(rpc), Some(d)) => (rpc, d),
            (rpc, d) => {
                let searched = choose_stream_plan(
                    gpu.spec(),
                    rows,
                    cols,
                    x.nnz() as u64,
                    &engine_spec,
                    cfg.resident_bytes_cap,
                );
                (
                    rpc.unwrap_or(searched.rows_per_chunk),
                    d.unwrap_or(searched.depth),
                )
            }
        };

        let mut ranges = RowRanges::new(x);
        let step = rows_per_chunk.min(rows.max(1));
        let mut row0 = 0usize;
        while row0 < rows {
            let c_rows = step.min(rows - row0);
            ranges.push(x, row0, row0 + c_rows);
            row0 += c_rows;
        }
        let resident = (0..ranges.len()).map(|_| None).collect();

        let y_rep = gpu.try_alloc_f64("stream.y", cols)?;
        let w_partial = gpu.try_alloc_f64("stream.w_partial", cols)?;
        Ok(SparseStreamer {
            gpu,
            transfer,
            engine: CopyEngine::new(engine_spec),
            depth,
            queues: cfg.queues,
            resident_bytes_cap: cfg.resident_bytes_cap,
            ranges,
            resident,
            resident_bytes: 0,
            epoch: 0,
            residency_hits_total: 0,
            y_rep,
            w_partial,
            released: false,
        })
    }

    /// The device the chunks stream to.
    pub fn gpu(&self) -> &'g Gpu {
        self.gpu
    }

    /// Chunk count of the resolved schedule.
    pub fn chunk_count(&self) -> usize {
        self.ranges.len()
    }

    /// Rows per body chunk of the resolved schedule.
    pub fn rows_per_chunk(&self) -> usize {
        self.ranges
            .iter()
            .next()
            .map_or(self.ranges.rows().max(1), |c| c.host.rows())
    }

    /// Pipeline depth of the resolved schedule.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Bytes currently held by device-resident chunks.
    pub fn resident_bytes(&self) -> u64 {
        self.resident_bytes
    }

    /// Chunks served from residency since construction.
    pub fn residency_hits_total(&self) -> u64 {
        self.residency_hits_total
    }

    /// Copy-engine traffic since construction.
    pub fn copy_stats(&self) -> CopyEngineStats {
        self.engine.stats()
    }

    /// Enable/disable launch-plan memoization (the default follows the
    /// process-wide setting).
    pub fn set_plan_cache(&mut self, enabled: bool) {
        self.ranges.set_plan_cache(enabled);
    }

    /// Per-chunk launch-plan traffic: `plans_computed` is the number of
    /// distinct chunk shapes planned (at most two — body and remainder),
    /// not the number of chunks.
    pub fn plan_stats(&self) -> PlanCacheStats {
        self.ranges.plan_stats()
    }

    /// [`Self::plan_stats`] by what it counts: every plan a streamer
    /// computes is a chunk plan.
    pub fn chunk_plan_stats(&self) -> PlanCacheStats {
        self.ranges.plan_stats()
    }

    pub fn launch_count(&self) -> usize {
        self.ranges.launch_count()
    }

    /// Hardware counters merged over every launch since the last reset.
    pub fn counters_total(&self) -> Counters {
        self.ranges.counters_total()
    }

    /// Clear the per-run ledger (launches + wall). Residency, plans and
    /// copy-engine totals persist — they are cross-iteration state.
    pub fn reset(&mut self) {
        self.ranges.reset();
    }

    /// Release every device allocation (persistent vectors and resident
    /// chunks). The streamer must not be used afterwards; dropping calls
    /// this automatically.
    pub fn release(&mut self) {
        if self.released {
            return;
        }
        self.released = true;
        self.gpu.free(&self.y_rep);
        self.gpu.free(&self.w_partial);
        for i in 0..self.resident.len() {
            self.evict(i);
        }
    }

    fn free_csr(&self, dev: &GpuCsr) {
        self.gpu.free(&dev.row_off);
        self.gpu.free(&dev.col_idx);
        self.gpu.free(&dev.values);
    }

    /// Give back a chunk's per-pass device buffers, on every exit path of
    /// a pass: its vector slice, if any, and the matrix chunk itself when
    /// it is transient rather than resident.
    fn free_transients(&self, dev: &GpuCsr, transient: bool, slice: Option<&GpuBuffer>) {
        if let Some(slice) = slice {
            self.gpu.free(slice);
        }
        if transient {
            self.free_csr(dev);
        }
    }

    fn evict(&mut self, i: usize) {
        if let Some(rc) = self.resident[i].take() {
            self.resident_bytes -= rc.bytes;
            self.free_csr(&rc.dev);
        }
    }

    /// Device handle for chunk `i`: resident hit (zero transfer), a new
    /// admission under the byte budget, or a transient upload the caller
    /// frees after the kernel. Returns `(dev, h2d_bytes, hit, transient)`.
    fn try_acquire_chunk(&mut self, i: usize) -> Result<(GpuCsr, u64, bool, bool), StreamError> {
        if let Some(rc) = &mut self.resident[i] {
            rc.last_used = self.epoch;
            self.residency_hits_total += 1;
            return Ok((rc.dev.clone(), 0, true, false));
        }
        let dev = GpuCsr::try_upload(self.gpu, "stream.chunk", &self.ranges[i].host)?;
        let bytes = dev.size_bytes();
        if bytes <= self.resident_bytes_cap {
            // Make room from entries no pass is currently using. Entries
            // touched this epoch are off limits: the pass that admitted
            // the prefix must not be the one that evicts it.
            while self.resident_bytes + bytes > self.resident_bytes_cap {
                let victim = self
                    .resident
                    .iter()
                    .enumerate()
                    .filter_map(|(j, rc)| rc.as_ref().map(|rc| (rc.last_used, j)))
                    .filter(|&(lu, _)| lu < self.epoch)
                    .min();
                match victim {
                    Some((_, j)) => self.evict(j),
                    None => break,
                }
            }
            if self.resident_bytes + bytes <= self.resident_bytes_cap {
                self.resident_bytes += bytes;
                self.resident[i] = Some(ResidentChunk {
                    dev: dev.clone(),
                    bytes,
                    last_used: self.epoch,
                });
                return Ok((dev, bytes, false, false));
            }
        }
        Ok((dev, bytes, false, true))
    }

    /// Charge one H2D transfer on `queue`: bus time from the copy engine
    /// (per-queue bandwidth share) plus the host-side JNI/format-conversion
    /// overhead the PCIe-only engine does not model (zero for native).
    fn charge_h2d(&self, queue: usize, bytes: u64) -> f64 {
        let bus = self.engine.charge_h2d(queue, bytes);
        let host_extra = self.transfer.h2d_ms(bytes, false) - self.transfer.pcie.transfer_ms(bytes);
        bus + host_extra.max(0.0)
    }

    fn new_report(&self) -> StreamReport {
        StreamReport {
            chunks: 0,
            h2d_bytes: 0,
            transfer_ms: 0.0,
            kernel_ms: 0.0,
            overlapped_ms: 0.0,
            serial_ms: 0.0,
            depth: self.depth,
            resident_bytes_cap: self.resident_bytes_cap,
            residency_hits: 0,
            bubble_ms: 0.0,
        }
    }

    /// Run the event-driven pipeline schedule over this pass's chunk
    /// costs and fill in the derived report fields. The lead-in vector
    /// transfer enters the schedule as a zero-kernel chunk so every
    /// kernel start implicitly waits for its operands — which also keeps
    /// `depth = 1` exactly equal to the serial model.
    fn finish(
        &mut self,
        mut report: StreamReport,
        lead_ms: f64,
        lead_bytes: u64,
        costs: &[ChunkCost],
    ) -> StreamReport {
        let mut sched = Vec::with_capacity(costs.len() + 1);
        if lead_bytes > 0 {
            sched.push(ChunkCost {
                transfer_ms: lead_ms,
                kernel_ms: 0.0,
            });
        }
        sched.extend_from_slice(costs);
        let pm = pipeline_wall(self.depth, self.queues, 0.0, &sched);
        report.overlapped_ms = pm.wall_ms;
        report.bubble_ms = pm.bubble_ms;
        report.serial_ms = report.transfer_ms + report.kernel_ms;
        self.ranges.add_wall_ms(pm.wall_ms);
        report
    }

    /// `w = alpha * X^T (v (.) (X y)) + beta * z`, streamed. Host-slice
    /// API with the canonical ascending-row epilogue; see the module docs
    /// for the bit-identity contract.
    pub fn try_pattern_host(
        &mut self,
        spec: PatternSpec,
        v: Option<&[f64]>,
        y: &[f64],
        z: Option<&[f64]>,
        w: &mut [f64],
    ) -> Result<StreamReport, StreamError> {
        let (rows, cols) = (self.ranges.rows(), self.ranges.cols());
        expect_len("y", cols, y.len())?;
        if let Some(v) = v {
            expect_len("v", rows, v.len())?;
        }
        if let Some(z) = z {
            expect_len("z", cols, z.len())?;
        }
        expect_len("w", cols, w.len())?;
        if spec.with_v != v.is_some() {
            return Err(StreamError::SpecMismatch {
                what: "v",
                enabled: spec.with_v,
            });
        }
        if spec.with_z != z.is_some() {
            return Err(StreamError::SpecMismatch {
                what: "z",
                enabled: spec.with_z,
            });
        }

        self.epoch += 1;
        let mut report = self.new_report();
        self.y_rep.copy_from_f64(y);
        let lead_bytes = (cols * 8) as u64;
        let lead_ms = self.charge_h2d(0, lead_bytes);
        report.h2d_bytes += lead_bytes;
        report.transfer_ms += lead_ms;
        if fusedml_trace::is_enabled() {
            fusedml_trace::sim_span(
                "stream",
                "vectors.h2d",
                "pcie",
                lead_ms,
                &[("bytes", lead_bytes.into())],
            );
        }

        // Canonical epilogue initialization: beta * z before any chunk
        // contribution, so the summation order is chunking-invariant.
        self.ranges.epilogue_init(w, spec.beta, z);

        let mut costs = Vec::with_capacity(self.ranges.len());
        let mut next_q = 1usize; // queue 0 carried the lead-in
        for i in 0..self.ranges.len() {
            let (start, c_rows) = (self.ranges[i].start, self.ranges[i].host.rows());
            let flow_id = if fusedml_trace::is_enabled() {
                let id = NEXT_FLOW_ID.fetch_add(1, Ordering::Relaxed);
                // Arrow root on the host track: binds to the enclosing
                // solver-iteration wall span in the export.
                fusedml_trace::wall_flow_start("stream", "iter.flow", "host", id);
                id
            } else {
                0
            };

            let (dev, x_bytes, hit, transient) = self.try_acquire_chunk(i)?;
            if hit {
                report.residency_hits += 1;
            }
            let vd = v
                .map(|v| {
                    self.gpu
                        .try_upload_f64("stream.v_chunk", &v[start..start + c_rows])
                })
                .transpose()
                .inspect_err(|_| self.free_transients(&dev, transient, None))?;
            let chunk_bytes = x_bytes + if v.is_some() { c_rows as u64 * 8 } else { 0 };
            let t_ms = if chunk_bytes > 0 {
                let q = next_q % self.queues;
                next_q += 1;
                self.charge_h2d(q, chunk_bytes)
            } else {
                0.0
            };
            if fusedml_trace::is_enabled() && chunk_bytes > 0 {
                fusedml_trace::sim_flow_step("stream", "chunk.h2d", "pcie", flow_id);
                fusedml_trace::sim_span(
                    "stream",
                    "chunk.h2d",
                    "pcie",
                    t_ms,
                    &[
                        ("chunk", i.into()),
                        ("rows", c_rows.into()),
                        ("bytes", chunk_bytes.into()),
                        ("resident_hit", u64::from(hit).into()),
                    ],
                );
            }

            let plan = self
                .ranges
                .plan(self.gpu.spec(), c_rows)
                .inspect_err(|_| self.free_transients(&dev, transient, vd.as_ref()))?;
            let ud = self
                .gpu
                .try_alloc_f64("stream.u", c_rows)
                .inspect_err(|_| self.free_transients(&dev, transient, vd.as_ref()))?;
            let run = (|| -> Result<f64, StreamError> {
                let fill = level1::try_fill(self.gpu, &self.w_partial, 0.0)?;
                if fusedml_trace::is_enabled() {
                    // Arrow head lands on the chunk's fused kernel span.
                    fusedml_trace::sim_flow_end(
                        "stream",
                        "chunk.kernel",
                        self.gpu.track(),
                        flow_id,
                    );
                }
                let ks = try_fused_pattern_shard(
                    self.gpu,
                    &plan,
                    &dev,
                    vd.as_ref(),
                    &self.y_rep,
                    &ud,
                    &self.w_partial,
                    spec.alpha,
                )?;
                let kernel_ms = fill.sim_ms() + ks.sim_ms();
                self.ranges.launches.push(fill);
                self.ranges.launches.push(ks);
                Ok(kernel_ms)
            })();
            let u = ud.to_vec_f64();
            self.gpu.free(&ud);
            self.free_transients(&dev, transient, vd.as_ref());
            let kernel_ms = run?;

            // Canonical epilogue: ascending global rows, so every bit of
            // w is independent of the chunk layout.
            self.ranges[i].epilogue_rows(w, spec.alpha, &u);

            costs.push(ChunkCost {
                transfer_ms: t_ms,
                kernel_ms,
            });
            report.chunks += 1;
            report.h2d_bytes += chunk_bytes;
            report.transfer_ms += t_ms;
            report.kernel_ms += kernel_ms;
        }
        Ok(self.finish(report, lead_ms, lead_bytes, &costs))
    }

    /// `out = X * y` (length m), streamed: row-local work, so trivially
    /// chunking-invariant.
    pub fn try_mv_host(&mut self, y: &[f64], out: &mut [f64]) -> Result<StreamReport, StreamError> {
        let cols = self.ranges.cols();
        expect_len("y", cols, y.len())?;
        expect_len("out", self.ranges.rows(), out.len())?;
        self.epoch += 1;
        let mut report = self.new_report();
        self.y_rep.copy_from_f64(y);
        let lead_bytes = (cols * 8) as u64;
        let lead_ms = self.charge_h2d(0, lead_bytes);
        report.h2d_bytes += lead_bytes;
        report.transfer_ms += lead_ms;

        let mut costs = Vec::with_capacity(self.ranges.len());
        let mut next_q = 1usize;
        let vs = self.ranges.base_vs();
        for i in 0..self.ranges.len() {
            let (start, c_rows) = (self.ranges[i].start, self.ranges[i].host.rows());
            let (dev, x_bytes, hit, transient) = self.try_acquire_chunk(i)?;
            if hit {
                report.residency_hits += 1;
            }
            let t_ms = if x_bytes > 0 {
                let q = next_q % self.queues;
                next_q += 1;
                self.charge_h2d(q, x_bytes)
            } else {
                0.0
            };
            let p = self
                .gpu
                .try_alloc_f64("stream.p", c_rows)
                .inspect_err(|_| self.free_transients(&dev, transient, None))?;
            let run = (|| -> Result<f64, StreamError> {
                // VS fixed from the full matrix (see `RowRanges::base_vs`).
                let s = try_csrmv(self.gpu, &dev, &self.y_rep, &p, SpmvStyle::Vector { vs })?;
                let kernel_ms = s.sim_ms();
                self.ranges.launches.push(s);
                Ok(kernel_ms)
            })();
            let p_host = p.to_vec_f64();
            self.gpu.free(&p);
            self.free_transients(&dev, transient, None);
            let kernel_ms = run?;
            out[start..start + c_rows].copy_from_slice(&p_host);

            costs.push(ChunkCost {
                transfer_ms: t_ms,
                kernel_ms,
            });
            report.chunks += 1;
            report.h2d_bytes += x_bytes;
            report.transfer_ms += t_ms;
            report.kernel_ms += kernel_ms;
        }
        Ok(self.finish(report, lead_ms, lead_bytes, &costs))
    }

    /// `out = alpha * X^T * u` (length n), streamed, with the canonical
    /// ascending-row host epilogue.
    pub fn try_tmv_host(
        &mut self,
        alpha: f64,
        u: &[f64],
        out: &mut [f64],
    ) -> Result<StreamReport, StreamError> {
        expect_len("u", self.ranges.rows(), u.len())?;
        expect_len("out", self.ranges.cols(), out.len())?;
        self.epoch += 1;
        let mut report = self.new_report();

        let mut costs = Vec::with_capacity(self.ranges.len());
        for i in 0..self.ranges.len() {
            let (start, c_rows) = (self.ranges[i].start, self.ranges[i].host.rows());
            let (dev, x_bytes, hit, transient) = self.try_acquire_chunk(i)?;
            if hit {
                report.residency_hits += 1;
            }
            let vd = self
                .gpu
                .try_upload_f64("stream.v_chunk", &u[start..start + c_rows])
                .inspect_err(|_| self.free_transients(&dev, transient, None))?;
            let chunk_bytes = x_bytes + c_rows as u64 * 8;
            // No lead-in transfer here (u streams with the chunks), so
            // chunk i maps straight onto queue i.
            let q = i % self.queues;
            let t_ms = self.charge_h2d(q, chunk_bytes);

            let plan = self
                .ranges
                .plan(self.gpu.spec(), c_rows)
                .inspect_err(|_| self.free_transients(&dev, transient, Some(&vd)))?;
            let run = (|| -> Result<f64, StreamError> {
                let fill = level1::try_fill(self.gpu, &self.w_partial, 0.0)?;
                let s = if plan.use_shared_w {
                    try_fused_xt_p_shared(self.gpu, &plan, alpha, &dev, &vd, &self.w_partial)?
                } else {
                    try_fused_xt_p_global(self.gpu, &plan, alpha, &dev, &vd, &self.w_partial)?
                };
                let kernel_ms = fill.sim_ms() + s.sim_ms();
                self.ranges.launches.push(fill);
                self.ranges.launches.push(s);
                Ok(kernel_ms)
            })();
            self.free_transients(&dev, transient, Some(&vd));
            let kernel_ms = run?;

            costs.push(ChunkCost {
                transfer_ms: t_ms,
                kernel_ms,
            });
            report.chunks += 1;
            report.h2d_bytes += chunk_bytes;
            report.transfer_ms += t_ms;
            report.kernel_ms += kernel_ms;
        }

        self.ranges.epilogue_tmv(out, alpha, u);
        Ok(self.finish(report, 0.0, 0, &costs))
    }
}

impl Drop for SparseStreamer<'_> {
    fn drop(&mut self) {
        self.release();
    }
}

/// The products without their reports, for the one `MatrixEngine`
/// adapter over row-range executors.
impl RowRangeExecutor for SparseStreamer<'_> {
    fn ranges(&self) -> &RowRanges {
        &self.ranges
    }

    fn ranges_mut(&mut self) -> &mut RowRanges {
        &mut self.ranges
    }

    fn try_pattern_host(
        &mut self,
        spec: PatternSpec,
        v: Option<&[f64]>,
        y: &[f64],
        z: Option<&[f64]>,
        w: &mut [f64],
    ) -> Result<(), DeviceError> {
        SparseStreamer::try_pattern_host(self, spec, v, y, z, w).map_err(device_err)?;
        Ok(())
    }

    fn try_mv_host(&mut self, y: &[f64], out: &mut [f64]) -> Result<(), DeviceError> {
        SparseStreamer::try_mv_host(self, y, out).map_err(device_err)?;
        Ok(())
    }

    fn try_tmv_host(&mut self, alpha: f64, u: &[f64], out: &mut [f64]) -> Result<(), DeviceError> {
        SparseStreamer::try_tmv_host(self, alpha, u, out).map_err(device_err)?;
        Ok(())
    }
}

/// Map a streaming failure onto the backend error surface. Device faults
/// pass through (the recovery ladder consumes them); shape and
/// configuration errors from inside a backend call are caller bugs,
/// reported the way the other device backends report them — a panic.
// A shape or configuration error here is backend misuse, as above.
#[allow(clippy::panic)]
fn device_err(e: StreamError) -> DeviceError {
    match e {
        StreamError::Device(e) => e,
        other => panic!("streamed backend misuse: {other}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusedml_gpu_sim::{DeviceGroup, DeviceSpec, FaultProfile, InterconnectSpec};
    use fusedml_matrix::gen::{random_vector, uniform_sparse};
    use fusedml_matrix::reference;

    fn gpu() -> Gpu {
        Gpu::with_host_threads(DeviceSpec::gtx_titan(), 1)
    }

    fn bits(w: &[f64]) -> Vec<u64> {
        w.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn streamed_result_matches_reference() {
        let g = gpu();
        let x = uniform_sparse(1000, 200, 0.05, 31);
        let y = random_vector(200, 1);
        let v = random_vector(1000, 2);
        let z = random_vector(200, 3);
        let spec = PatternSpec::full(1.5, -0.5);
        // 137 deliberately does not divide 1000.
        let cfg = StreamConfig::fixed(137, 2);
        let mut s = SparseStreamer::try_new(&g, &x, TransferModel::native(), cfg).unwrap();
        let mut w = vec![0.0; 200];
        let report = s
            .try_pattern_host(spec, Some(&v), &y, Some(&z), &mut w)
            .unwrap();
        let expect = reference::pattern_csr(1.5, &x, Some(&v), &y, -0.5, Some(&z));
        assert!(reference::rel_l2_error(&w, &expect) < 1e-10);
        assert_eq!(report.chunks, 8);
        assert!(report.h2d_bytes > x.size_bytes());
    }

    #[test]
    fn single_chunk_equals_whole_matrix() {
        let g = gpu();
        let x = uniform_sparse(400, 100, 0.05, 32);
        let y = random_vector(100, 4);
        let cfg = StreamConfig::fixed(10_000, 2);
        let mut s = SparseStreamer::try_new(&g, &x, TransferModel::native(), cfg).unwrap();
        let mut w = vec![0.0; 100];
        let report = s
            .try_pattern_host(PatternSpec::xtxy(), None, &y, None, &mut w)
            .unwrap();
        assert_eq!(report.chunks, 1);
        let expect = reference::pattern_csr(1.0, &x, None, &y, 0.0, None);
        assert!(reference::rel_l2_error(&w, &expect) < 1e-10);
    }

    #[test]
    fn overlap_beats_serial_execution() {
        let g = gpu();
        let x = uniform_sparse(8000, 256, 0.05, 33);
        let y = random_vector(256, 5);
        let cfg = StreamConfig::fixed(1000, 2);
        let mut s = SparseStreamer::try_new(&g, &x, TransferModel::native(), cfg).unwrap();
        let report = s
            .try_pattern_host(PatternSpec::xtxy(), None, &y, None, &mut [0.0; 256])
            .unwrap();
        assert!(report.chunks == 8);
        assert!(
            report.overlapped_ms < report.serial_ms,
            "overlap {} vs serial {}",
            report.overlapped_ms,
            report.serial_ms
        );
        // Overlapped time is bounded below by the slower pipeline stage.
        assert!(report.overlapped_ms >= report.transfer_ms.max(report.kernel_ms) * 0.99);
    }

    #[test]
    fn streaming_releases_all_device_memory() {
        // Regression: the per-chunk v slice leaked one device buffer per
        // chunk (and the long-lived vectors were never freed), so memory
        // grew linearly with the chunk count under with_v=true.
        let g = gpu();
        let x = uniform_sparse(1000, 150, 0.05, 40);
        let y = random_vector(150, 41);
        let v = random_vector(1000, 42);
        let before = g.allocated_bytes();
        let cfg = StreamConfig::fixed(100, 2);
        let mut s = SparseStreamer::try_new(&g, &x, TransferModel::native(), cfg).unwrap();
        let report = s
            .try_pattern_host(PatternSpec::xtvxy(), Some(&v), &y, None, &mut [0.0; 150])
            .unwrap();
        drop(s);
        assert_eq!(report.chunks, 10);
        assert_eq!(
            g.allocated_bytes(),
            before,
            "streaming leaked {} bytes across {} chunks",
            g.allocated_bytes() - before,
            report.chunks
        );
    }

    /// A pass that fails at any of its allocations gives back every
    /// device byte it took: the transient matrix chunk, the `v` or `u`
    /// slice and the row-value or product buffer.
    #[test]
    fn failed_passes_release_all_device_memory() {
        let x = uniform_sparse(400, 32, 0.1, 43);
        let y = random_vector(32, 44);
        let u = random_vector(400, 45);
        // Four transient 100-row chunks: three CSR parts plus, per pass,
        // the v slice and u (pattern), p (mv) or the u slice (tmv).
        for (pass, allocs) in [("pattern", 20), ("mv", 16), ("tmv", 16)] {
            // The streamer itself takes the first two allocations.
            for n in 2..2 + allocs {
                let profile = FaultProfile::seeded(1).with_memory_pressure(n, 1.0);
                let g = gpu().with_fault_profile(profile);
                let cfg = StreamConfig::fixed(100, 2);
                let mut s = SparseStreamer::try_new(&g, &x, TransferModel::native(), cfg).unwrap();
                let res = match pass {
                    "pattern" => {
                        let spec = PatternSpec::xtvxy();
                        s.try_pattern_host(spec, Some(&u), &y, None, &mut [0.0; 32])
                    }
                    "mv" => s.try_mv_host(&y, &mut [0.0; 400]),
                    _ => s.try_tmv_host(1.0, &u, &mut [0.0; 32]),
                };
                assert!(
                    matches!(res, Err(StreamError::Device(_))),
                    "{pass} pass must fail at allocation {}",
                    n + 1
                );
                drop(s);
                assert_eq!(
                    g.allocated_bytes(),
                    0,
                    "{pass} pass failing at allocation {} leaked",
                    n + 1
                );
            }
        }
    }

    #[test]
    fn pool_reuses_chunk_staging_after_warmup() {
        // Regression: every chunk used to allocate fresh backing stores for
        // its CSR staging and v slice; with the buffer pool, steady-state
        // chunks recycle the previous chunk's blocks, and a second
        // identical evaluation allocates nothing at all.
        let g = gpu();
        let x = uniform_sparse(1200, 150, 0.05, 60);
        let y = random_vector(150, 61);
        let v = random_vector(1200, 62);
        let spec = PatternSpec {
            alpha: 1.0,
            with_v: true,
            beta: 0.0,
            with_z: false,
        };
        let run = || {
            let cfg = StreamConfig::fixed(128, 2);
            let mut s = SparseStreamer::try_new(&g, &x, TransferModel::native(), cfg).unwrap();
            let mut w = vec![0.0; 150];
            s.try_pattern_host(spec, Some(&v), &y, None, &mut w)
                .unwrap();
            w
        };
        run(); // warm-up populates the pool buckets
        let warm = g.pool_stats();
        assert!(
            warm.hits > 0,
            "steady-state chunks must recycle earlier chunk staging"
        );
        let w = run();
        let hot = g.pool_stats();
        assert_eq!(
            hot.misses, warm.misses,
            "second identical run must cause zero net allocator traffic"
        );
        assert!(hot.hits > warm.hits);
        // Recycled staging must not perturb the result.
        let expect = reference::pattern_csr(1.0, &x, Some(&v), &y, 0.0, None);
        assert!(reference::rel_l2_error(&w, &expect) < 1e-10);
    }

    #[test]
    fn invalid_inputs_yield_typed_errors() {
        let g = gpu();
        let x = uniform_sparse(20, 12, 0.3, 36);
        let y = random_vector(12, 7);
        let t = TransferModel::native();
        let mut w = vec![0.0; 12];

        let e = SparseStreamer::try_new(&g, &x, t.clone(), StreamConfig::fixed(0, 2)).err();
        assert_eq!(e, Some(StreamError::InvalidChunk));

        let mut s = SparseStreamer::try_new(&g, &x, t.clone(), StreamConfig::fixed(4, 2)).unwrap();
        let bad_y = random_vector(5, 8);
        let e = s
            .try_pattern_host(PatternSpec::xtxy(), None, &bad_y, None, &mut w)
            .unwrap_err();
        assert_eq!(
            e,
            StreamError::ShapeMismatch {
                what: "y",
                expected: 12,
                got: 5
            }
        );

        let bad_v = random_vector(3, 9);
        let spec_v = PatternSpec {
            alpha: 1.0,
            with_v: true,
            beta: 0.0,
            with_z: false,
        };
        let e = s
            .try_pattern_host(spec_v, Some(&bad_v), &y, None, &mut w)
            .unwrap_err();
        assert!(matches!(e, StreamError::ShapeMismatch { what: "v", .. }));

        // Spec says with_v but no v operand supplied.
        let e = s
            .try_pattern_host(spec_v, None, &y, None, &mut w)
            .unwrap_err();
        assert_eq!(
            e,
            StreamError::SpecMismatch {
                what: "v",
                enabled: true
            }
        );

        // z operand supplied but spec has with_z=false.
        let z = random_vector(12, 10);
        let e = s
            .try_pattern_host(PatternSpec::xtxy(), None, &y, Some(&z), &mut w)
            .unwrap_err();
        assert_eq!(
            e,
            StreamError::SpecMismatch {
                what: "z",
                enabled: false
            }
        );

        // Degenerate pipeline configurations are typed errors too.
        let e = SparseStreamer::try_new(&g, &x, t.clone(), StreamConfig::fixed(4, 0)).err();
        assert_eq!(e, Some(StreamError::InvalidDepth));
        let e = SparseStreamer::try_new(&g, &x, t, StreamConfig::fixed(4, 2).with_queues(0)).err();
        assert_eq!(e, Some(StreamError::InvalidQueues));
    }

    /// Parametrized sweep over chunk sizes (dividing and non-dividing,
    /// larger than the matrix) and every v/z operand combination: the
    /// streamed result must match the single-shot reference and the
    /// overlap model must never exceed the serial model.
    #[test]
    fn streaming_correct_across_chunkings_and_operands() {
        let g = gpu();
        let m = 730;
        let n = 96;
        let x = uniform_sparse(m, n, 0.05, 50);
        let y = random_vector(n, 51);
        let v = random_vector(m, 52);
        let z = random_vector(n, 53);

        for rows_per_chunk in [1usize, 97, 365, 730, 731, 10_000] {
            for (with_v, with_z) in [(false, false), (true, false), (false, true), (true, true)] {
                let spec = PatternSpec {
                    alpha: 1.25,
                    with_v,
                    beta: if with_z { -0.75 } else { 0.0 },
                    with_z,
                };
                let before = g.allocated_bytes();
                let cfg = StreamConfig::fixed(rows_per_chunk, 2);
                let mut s = SparseStreamer::try_new(&g, &x, TransferModel::native(), cfg).unwrap();
                let mut w = vec![0.0; n];
                let report = s
                    .try_pattern_host(
                        spec,
                        with_v.then_some(&v[..]),
                        &y,
                        with_z.then_some(&z[..]),
                        &mut w,
                    )
                    .unwrap();
                drop(s);
                let expect = reference::pattern_csr(
                    1.25,
                    &x,
                    with_v.then_some(&v),
                    &y,
                    spec.beta,
                    with_z.then_some(&z),
                );
                assert!(
                    reference::rel_l2_error(&w, &expect) < 1e-10,
                    "chunk={rows_per_chunk} v={with_v} z={with_z}"
                );
                assert_eq!(report.chunks, m.div_ceil(rows_per_chunk.min(m)));
                assert!(
                    report.overlapped_ms <= report.serial_ms + 1e-9,
                    "chunk={rows_per_chunk}: overlap {} > serial {}",
                    report.overlapped_ms,
                    report.serial_ms
                );
                assert_eq!(g.allocated_bytes(), before, "chunk={rows_per_chunk} leaked");
            }
        }
    }

    /// The bit-identity contract: chunking, depth, queue count and
    /// residency budget change the cost model only — the streamed bits
    /// equal the single-chunk (non-streamed) run and the single-shard
    /// sharded executor bit for bit.
    #[test]
    fn streamed_bits_match_non_streamed_fused_path() {
        let g = gpu();
        let m = 530;
        let n = 48;
        let x = uniform_sparse(m, n, 0.1, 70);
        let y = random_vector(n, 71);
        let v = random_vector(m, 72);
        let z = random_vector(n, 73);
        let spec = PatternSpec::full(1.25, -0.5);

        // Non-streamed reference: a single chunk through the same path.
        let mut reference_w = vec![0.0; n];
        {
            let mut s =
                SparseStreamer::try_new(&g, &x, TransferModel::native(), StreamConfig::fixed(m, 1))
                    .unwrap();
            s.try_pattern_host(spec, Some(&v), &y, Some(&z), &mut reference_w)
                .unwrap();
        }

        // The same bits as the one-shard sharded executor (the shared
        // reproducible-reduction contract).
        let group = DeviceGroup::new(
            DeviceSpec::gtx_titan(),
            1,
            InterconnectSpec::pcie_gen3_x16(),
            &FaultProfile::disabled(),
        );
        let mut sharded = fusedml_core::ShardedExecutor::try_new(&group, &x).unwrap();
        let mut w_sharded = vec![0.0; n];
        sharded
            .try_pattern_host(spec, Some(&v), &y, Some(&z), &mut w_sharded)
            .unwrap();
        assert_eq!(bits(&reference_w), bits(&w_sharded));

        for (chunk, depth, cap) in [
            (97usize, 1usize, 0u64),
            (97, 2, 0),
            (97, 3, 1 << 14),
            (97, 4, u64::MAX),
            (128, 3, 1 << 15),
            (530, 2, u64::MAX),
        ] {
            let mut s = SparseStreamer::try_new(
                &g,
                &x,
                TransferModel::native(),
                StreamConfig::fixed(chunk, depth)
                    .with_queues(2)
                    .with_residency(cap),
            )
            .unwrap();
            let mut w = vec![0.0; n];
            // Two passes: the warm pass must produce the same bits even
            // when it runs entirely from residency.
            for _ in 0..2 {
                s.try_pattern_host(spec, Some(&v), &y, Some(&z), &mut w)
                    .unwrap();
                assert_eq!(
                    bits(&reference_w),
                    bits(&w),
                    "chunk={chunk} depth={depth} cap={cap}"
                );
            }
        }
    }

    #[test]
    fn mv_and_tmv_stream_correctly_and_bit_stably() {
        let g = gpu();
        let m = 410;
        let n = 64;
        let x = uniform_sparse(m, n, 0.08, 80);
        let y = random_vector(n, 81);
        let u = random_vector(m, 82);

        let run = |chunk: usize, cap: u64| {
            let mut s = SparseStreamer::try_new(
                &g,
                &x,
                TransferModel::native(),
                StreamConfig::fixed(chunk, 3).with_residency(cap),
            )
            .unwrap();
            let mut p = vec![0.0; m];
            let mut w = vec![0.0; n];
            s.try_mv_host(&y, &mut p).unwrap();
            s.try_tmv_host(1.5, &u, &mut w).unwrap();
            (p, w)
        };
        let (p_ref, w_ref) = run(m, 0);
        assert!(reference::rel_l2_error(&p_ref, &reference::csr_mv(&x, &y)) < 1e-12);
        let mut expect_w = reference::csr_tmv(&x, &u);
        reference::scal(1.5, &mut expect_w);
        assert!(reference::rel_l2_error(&w_ref, &expect_w) < 1e-10);
        for chunk in [57, 200] {
            for cap in [0u64, u64::MAX] {
                let (p, w) = run(chunk, cap);
                assert_eq!(bits(&p_ref), bits(&p), "mv chunk={chunk} cap={cap}");
                assert_eq!(bits(&w_ref), bits(&w), "tmv chunk={chunk} cap={cap}");
            }
        }
    }

    /// Full residency budget: the second pass streams zero matrix bytes,
    /// every chunk is a residency hit, and the modeled wall drops.
    #[test]
    fn residency_serves_warm_passes_from_device() {
        let g = gpu();
        let x = uniform_sparse(2000, 128, 0.05, 90);
        let y = random_vector(128, 91);
        let before = g.allocated_bytes();
        let mut s = SparseStreamer::try_new(
            &g,
            &x,
            TransferModel::native(),
            StreamConfig::fixed(250, 3).with_residency(u64::MAX),
        )
        .unwrap();
        let mut w = vec![0.0; 128];
        let cold = s
            .try_pattern_host(PatternSpec::xtxy(), None, &y, None, &mut w)
            .unwrap();
        assert_eq!(cold.residency_hits, 0);
        let warm = s
            .try_pattern_host(PatternSpec::xtxy(), None, &y, None, &mut w)
            .unwrap();
        assert_eq!(warm.residency_hits, warm.chunks as u64);
        // Warm pass only moves the lead-in vector.
        assert_eq!(warm.h2d_bytes, 128 * 8);
        assert!(warm.h2d_bytes < cold.h2d_bytes);
        assert!(
            warm.overlapped_ms < cold.overlapped_ms,
            "warm {} vs cold {}",
            warm.overlapped_ms,
            cold.overlapped_ms
        );
        s.release();
        assert_eq!(g.allocated_bytes(), before, "residency leaked");
    }

    /// Partial budget: epoch-based admission converges to a stable
    /// resident prefix — the same chunks hit pass after pass instead of
    /// LRU thrashing to zero hits on every scan.
    #[test]
    fn partial_residency_budget_is_stable_not_thrashing() {
        let g = gpu();
        let x = uniform_sparse(1600, 96, 0.05, 95);
        let y = random_vector(96, 96);
        // Budget for roughly half the chunks.
        let cap = x.size_bytes() / 2;
        let mut s = SparseStreamer::try_new(
            &g,
            &x,
            TransferModel::native(),
            StreamConfig::fixed(200, 2).with_residency(cap),
        )
        .unwrap();
        let mut w = vec![0.0; 96];
        s.try_pattern_host(PatternSpec::xtxy(), None, &y, None, &mut w)
            .unwrap();
        let pass2 = s
            .try_pattern_host(PatternSpec::xtxy(), None, &y, None, &mut w)
            .unwrap();
        let pass3 = s
            .try_pattern_host(PatternSpec::xtxy(), None, &y, None, &mut w)
            .unwrap();
        assert!(
            pass2.residency_hits > 0,
            "a partial budget must keep some chunks resident"
        );
        assert!(pass2.residency_hits < pass2.chunks as u64);
        assert_eq!(
            pass2.residency_hits, pass3.residency_hits,
            "the resident prefix must be stable across passes"
        );
        assert!(s.resident_bytes() <= cap);
    }

    #[test]
    fn zero_budget_keeps_nothing_resident() {
        let g = gpu();
        let x = uniform_sparse(600, 64, 0.08, 97);
        let y = random_vector(64, 98);
        let mut s =
            SparseStreamer::try_new(&g, &x, TransferModel::native(), StreamConfig::fixed(100, 2))
                .unwrap();
        let mut w = vec![0.0; 64];
        for _ in 0..2 {
            let r = s
                .try_pattern_host(PatternSpec::xtxy(), None, &y, None, &mut w)
                .unwrap();
            assert_eq!(r.residency_hits, 0);
        }
        assert_eq!(s.resident_bytes(), 0);
    }

    /// Launch-plan hoisting: a streamed pass plans once per distinct
    /// chunk shape (body + remainder), not once per chunk, and warm
    /// passes plan not at all.
    #[test]
    fn chunk_plans_are_hoisted_per_shape_not_per_chunk() {
        let g = gpu();
        let x = uniform_sparse(1000, 80, 0.05, 99);
        let y = random_vector(80, 100);
        let mut s = SparseStreamer::try_new(
            &g,
            &x,
            TransferModel::native(),
            StreamConfig::fixed(137, 2), // 8 chunks: 7 x 137 + 1 x 41
        )
        .unwrap();
        s.set_plan_cache(true);
        let mut w = vec![0.0; 80];
        s.try_pattern_host(PatternSpec::xtxy(), None, &y, None, &mut w)
            .unwrap();
        let stats = s.chunk_plan_stats();
        assert_eq!(
            stats.plans_computed(),
            2,
            "8 chunks, 2 distinct shapes, 2 tuner runs"
        );
        assert_eq!(stats.hits, 6);
        // A second pass (and tmv, which shares the shape key) is all hits.
        s.try_pattern_host(PatternSpec::xtxy(), None, &y, None, &mut w)
            .unwrap();
        let u = random_vector(1000, 101);
        s.try_tmv_host(1.0, &u, &mut w).unwrap();
        assert_eq!(s.chunk_plan_stats().plans_computed(), 2);
    }

    /// The pipeline schedule: depth 1 is exactly the serial model, and
    /// the modeled wall is non-increasing in depth.
    #[test]
    fn pipeline_depth_one_is_serial_and_wall_is_monotone() {
        let x = uniform_sparse(3000, 160, 0.05, 110);
        let y = random_vector(160, 111);
        let mut prev = f64::INFINITY;
        for depth in 1..=4 {
            // Fresh device per depth: the simulator keeps its L2 warm
            // across launches, so sharing one device would make kernel
            // costs depend on run order rather than on the schedule.
            let g = gpu();
            let mut s = SparseStreamer::try_new(
                &g,
                &x,
                TransferModel::native(),
                StreamConfig::fixed(400, depth),
            )
            .unwrap();
            let mut w = vec![0.0; 160];
            let r = s
                .try_pattern_host(PatternSpec::xtxy(), None, &y, None, &mut w)
                .unwrap();
            if depth == 1 {
                assert!(
                    (r.overlapped_ms - r.serial_ms).abs() < 1e-9,
                    "depth 1 must equal the serial model: {} vs {}",
                    r.overlapped_ms,
                    r.serial_ms
                );
                assert!((r.bubble_ms - r.transfer_ms).abs() < 1e-9);
            }
            assert!(
                r.overlapped_ms <= prev + 1e-9,
                "wall must be non-increasing in depth: {} at depth {depth} after {prev}",
                r.overlapped_ms
            );
            prev = r.overlapped_ms;
        }
    }

    /// `auto()` resolves the schedule through the configuration search
    /// and produces a usable, correct one.
    #[test]
    fn auto_config_resolves_a_usable_schedule() {
        let g = gpu();
        let x = uniform_sparse(4000, 200, 0.05, 120);
        let y = random_vector(200, 121);
        let mut s =
            SparseStreamer::try_new(&g, &x, TransferModel::native(), StreamConfig::auto()).unwrap();
        assert!(s.depth() >= 1 && s.depth() <= SEARCH_MAX_DEPTH);
        assert!(s.rows_per_chunk() >= 1);
        let mut w = vec![0.0; 200];
        let r = s
            .try_pattern_host(PatternSpec::xtxy(), None, &y, None, &mut w)
            .unwrap();
        let expect = reference::pattern_csr(1.0, &x, None, &y, 0.0, None);
        assert!(reference::rel_l2_error(&w, &expect) < 1e-10);
        assert!(r.overlapped_ms <= r.serial_ms + 1e-9);
    }

    #[test]
    fn stream_plan_search_is_deterministic_and_prefers_overlap() {
        let spec = DeviceSpec::gtx_titan();
        let engine = CopyEngineSpec::new(2, fusedml_gpu_sim::PcieSpec::gen3_x16());
        let a = choose_stream_plan(&spec, 100_000, 512, 5_000_000, &engine, 0);
        let b = choose_stream_plan(&spec, 100_000, 512, 5_000_000, &engine, 0);
        assert_eq!(a, b);
        assert!(a.depth >= 2, "a transfer-bound workload should pipeline");
        assert!(a.rows_per_chunk < 100_000, "streaming should chunk");
        assert!(a.modeled_ms > 0.0);
    }

    /// Flow events tie a pattern evaluation to its chunk transfers and
    /// kernels: one arrow per chunk from the host track through the pcie
    /// span into the device kernel span.
    #[test]
    fn trace_flows_link_iteration_to_transfer_and_kernel() {
        let g = gpu();
        let x = uniform_sparse(300, 40, 0.1, 130);
        let y = random_vector(40, 131);
        let cfg = StreamConfig::fixed(100, 2);
        let mut s = SparseStreamer::try_new(&g, &x, TransferModel::native(), cfg).unwrap();
        fusedml_trace::enable();
        let _ = fusedml_trace::take();
        let report = s
            .try_pattern_host(PatternSpec::xtxy(), None, &y, None, &mut [0.0; 40])
            .unwrap();
        let events = fusedml_trace::take();
        fusedml_trace::disable();
        let starts: Vec<_> = events
            .iter()
            .filter(|e| matches!(e.kind, fusedml_trace::EventKind::FlowStart))
            .collect();
        let steps: Vec<_> = events
            .iter()
            .filter(|e| matches!(e.kind, fusedml_trace::EventKind::FlowStep))
            .collect();
        let ends: Vec<_> = events
            .iter()
            .filter(|e| matches!(e.kind, fusedml_trace::EventKind::FlowEnd))
            .collect();
        assert_eq!(starts.len(), report.chunks);
        assert_eq!(steps.len(), report.chunks);
        assert_eq!(ends.len(), report.chunks);
        for ((s, t), e) in starts.iter().zip(&steps).zip(&ends) {
            assert_eq!(s.flow_id, t.flow_id);
            assert_eq!(t.flow_id, e.flow_id);
            assert_eq!(s.track, "host");
            assert_eq!(t.track, "pcie");
            assert_eq!(e.track, "device");
        }
    }
}
