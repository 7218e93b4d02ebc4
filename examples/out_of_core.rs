//! Out-of-core (streaming) pattern evaluation — the adaptation §3 of the
//! paper sketches for matrices that do not fit device memory: row chunks
//! stream over PCIe with double buffering while the fused kernel
//! accumulates their contributions.
//!
//! ```text
//! cargo run --release --example out_of_core
//! ```

use fusedml::prelude::*;
use fusedml_matrix::gen::{random_vector, uniform_sparse};
use fusedml_matrix::reference;
use fusedml_runtime::{SparseStreamer, StreamConfig, TransferModel};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Pretend this matrix exceeds device memory and must stream.
    let (m, n) = (200_000, 512);
    let x = uniform_sparse(m, n, 0.01, 99);
    let y = random_vector(n, 100);
    println!(
        "matrix: {m} x {n}, {} nnz ({} MB in CSR)",
        x.nnz(),
        x.size_bytes() / 1_000_000
    );

    let gpu = Gpu::new(DeviceSpec::gtx_titan());
    let spec = PatternSpec::xtxy();

    println!("\nchunk_rows  chunks  transfer_ms  kernel_ms  overlapped_ms  serial_ms");
    let mut last = None;
    for chunk_rows in [10_000usize, 25_000, 50_000, 200_000] {
        gpu.flush_caches();
        // Depth 2 is double buffering; no chunk stays resident.
        let cfg = StreamConfig::fixed(chunk_rows, 2);
        let mut streamer = SparseStreamer::try_new(&gpu, &x, TransferModel::native(), cfg)?;
        let mut w = vec![0.0; n];
        let report = streamer.try_pattern_host(spec, None, &y, None, &mut w)?;
        println!(
            "{chunk_rows:>10}  {:>6}  {:>11.3}  {:>9.3}  {:>13.3}  {:>9.3}",
            report.chunks,
            report.transfer_ms,
            report.kernel_ms,
            report.overlapped_ms,
            report.serial_ms
        );
        last = Some((w, report));
    }

    let (w, single) = last.expect("ran");
    let expect = reference::pattern_csr(1.0, &x, None, &y, 0.0, None);
    let err = reference::rel_l2_error(&w, &expect);
    println!("\nnumerics: streamed result rel-err {err:.2e} vs reference");
    assert!(err < 1e-10);
    assert_eq!(single.chunks, 1, "last config holds the whole matrix");
    println!(
        "==> overlap hides the smaller of transfer/compute; the single-chunk run \
         shows the in-core floor"
    );
    Ok(())
}
