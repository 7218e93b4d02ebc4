//! `stream-resident`: one op is one `SparseStreamer::try_pattern_host`
//! pass (`X^T (X y)`) on each of two streamers over the same CSR
//! 20000×1024 matrix at 1% (~2.5 MB, beyond the modeled 1.5 MB L2) in 8
//! chunks, each streamer on its own device:
//!
//! * the resident leg — depth 3 over 2 copy-engine queues with a residency
//!   budget covering the whole matrix, so warm passes skip H2D;
//! * the re-streaming leg — depth 2, 1 queue, residency budget 0, so every
//!   pass moves the whole matrix again.
//!
//! The two legs use the streaming runtime, the copy engine and chunk
//! residency in opposite ways, so a residency gain that costs the
//! streaming path shows up here.

use super::dev_err;
use crate::harness::{check, check_rel_l2, timed, Count, Harness, OpRecord, Params, Phase, SETUPS};
use crate::span::span;
use fusedml_core::PatternSpec;
use fusedml_gpu_sim::{DeviceSpec, Gpu};
use fusedml_matrix::gen::{random_vector, uniform_sparse};
use fusedml_matrix::{reference, CsrMatrix};
use fusedml_runtime::{SparseStreamer, StreamConfig, TransferModel};
use std::sync::Arc;

/// Streamed output vs. `matrix::reference`.
const REL_L2_TOL: f64 = 1e-9;
/// Chunks the matrix is streamed in.
const CHUNKS: usize = 8;

struct Inputs {
    x: CsrMatrix,
    y: Vec<f64>,
}

impl Inputs {
    fn generate(p: Params) -> Inputs {
        let (m, n) = (p.rows(20_000), 1024);
        let x = {
            let _s = span("matrix", "gen::uniform_sparse");
            uniform_sparse(m, n, 0.01, p.seed)
        };
        let _s = span("matrix", "gen::random_vector");
        Inputs {
            y: random_vector(n, p.seed ^ 0x57EA),
            x,
        }
    }
}

/// The two legs' configurations: (resident, re-streaming).
fn configs(x: &CsrMatrix) -> [StreamConfig; 2] {
    let rows_per_chunk = x.rows().div_ceil(CHUNKS);
    [
        StreamConfig::fixed(rows_per_chunk, 3)
            .with_queues(2)
            .with_residency(x.size_bytes()),
        StreamConfig::fixed(rows_per_chunk, 2),
    ]
}

pub fn run(h: &mut Harness) -> Result<(), String> {
    let device = Arc::new(DeviceSpec::gtx_titan());
    let p = h.params();
    for _ in 0..SETUPS {
        h.begin_setup();
        let d = h.phase(Phase::Inputs, || Inputs::generate(p));
        let gpus: Vec<Gpu> = h.phase(Phase::State, || {
            let _s = span("gpu_sim", "Gpu::new");
            (0..2).map(|_| Gpu::new(device.clone())).collect()
        });
        let mut legs = h.phase(Phase::State, || {
            gpus.iter()
                .zip(configs(&d.x))
                .map(|(gpu, cfg)| {
                    let _s = span("runtime", "SparseStreamer::try_new");
                    SparseStreamer::try_new(gpu, &d.x, TransferModel::native(), cfg)
                        .map_err(dev_err)
                })
                .collect::<Result<Vec<_>, _>>()
        })?;
        let expected = h.phase(Phase::Reference, || {
            let _s = span("matrix", "reference::pattern_csr");
            reference::pattern_csr(1.0, &d.x, None, &d.y, 0.0, None)
        });

        let mut op = |_: usize| -> Result<OpRecord, String> {
            let mut rec = OpRecord::default();
            let mut outputs = Vec::with_capacity(legs.len());
            let mut restream_hits = 0;
            for (leg, (s, gpu)) in legs.iter_mut().zip(&gpus).enumerate() {
                let mut w = vec![0.0; d.x.cols()];
                let plans_before = s.plan_stats();
                s.reset();
                {
                    let _s = span("gpu_sim", "flush_caches");
                    gpu.flush_caches();
                }
                let r = timed(&mut rec, || {
                    let _s = span("runtime", "SparseStreamer::try_pattern_host");
                    s.try_pattern_host(PatternSpec::xtxy(), None, &d.y, None, &mut w)
                })
                .map_err(dev_err)?;
                rec.add(Count::ModeledMs, r.overlapped_ms);
                rec.add(Count::ComparedMs, r.overlapped_ms);
                rec.add(Count::ComparatorMs, r.serial_ms);
                rec.add(Count::BubbleMs, r.bubble_ms);
                rec.add(Count::H2dBytes, r.h2d_bytes as f64);
                if leg == 0 {
                    rec.add(Count::ResidencyHits, r.residency_hits as f64);
                    rec.add(Count::ResidencySlots, r.chunks as f64);
                } else {
                    restream_hits = r.residency_hits;
                }
                rec.add(Count::Launches, s.launch_count() as f64);
                rec.add_counters(&s.counters_total());
                let plans = s.plan_stats();
                rec.add(Count::PlanHits, (plans.hits - plans_before.hits) as f64);
                rec.add(
                    Count::PlansComputed,
                    (plans.plans_computed() - plans_before.plans_computed()) as f64,
                );
                outputs.push(w);
            }
            rec.add(Count::GoodUnits, legs.len() as f64);
            rec.modeled_samples.push(rec.get(Count::ModeledMs));
            check(&mut rec, || {
                if restream_hits != 0 {
                    return Err(format!(
                        "re-streaming leg served {restream_hits} chunk(s) from a zero residency budget"
                    ));
                }
                outputs
                    .iter()
                    .try_for_each(|w| check_rel_l2("streamed pass", w, &expected, REL_L2_TOL))
            })?;
            Ok(rec)
        };
        // Every op is the same pair of passes.
        h.finish_setup(1, &mut op);
    }
    Ok(())
}
