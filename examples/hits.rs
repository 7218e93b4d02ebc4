//! HITS (Hubs and Authorities) on a synthetic power-law web graph — the
//! `X^T (X y)` instantiation of the pattern, one evaluation per power
//! iteration.
//!
//! ```text
//! cargo run --release --example hits
//! ```

use fusedml::prelude::*;
use fusedml_matrix::gen::powerlaw_sparse;
use fusedml_matrix::{Coo, CsrMatrix};
use fusedml_ml::{try_hits, HitsOptions};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A power-law link graph of 30k pages, plus three authority hubs that
    // many pages point to.
    let pages = 30_000;
    let base = powerlaw_sparse(pages, pages, 8.0, 0.8, 77);
    let mut coo = Coo::new(pages, pages);
    for r in 0..pages {
        for (c, _) in base.row_entries(r) {
            coo.push(r, c as usize, 1.0);
        }
        // Every 7th page links to the three celebrities.
        if r % 7 == 0 {
            for celebrity in [11usize, 222, 3333] {
                coo.push(r, celebrity, 1.0);
            }
        }
    }
    let graph = CsrMatrix::from_coo(&coo);
    println!("graph: {pages} pages, {} links", graph.nnz());

    let gpu = Gpu::new(DeviceSpec::gtx_titan());
    let mut backend = FusedBackend::try_new_sparse(&gpu, &graph)?;
    let result = try_hits(&mut backend, HitsOptions::default())?;
    let stats = backend.stats();

    let mut ranked: Vec<(usize, f64)> = result.authorities.iter().copied().enumerate().collect();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
    println!(
        "converged in {} iterations (delta {:.2e}); top authorities:",
        result.iterations, result.delta
    );
    for (page, score) in ranked.iter().take(5) {
        println!("  page {page:>6}: {score:.4}");
    }
    println!(
        "simulated GPU time {:.2} ms across {} launches; patterns: {:?}",
        stats.sim_ms, stats.launches, stats.pattern_counts
    );

    let top3: Vec<usize> = ranked.iter().take(3).map(|(p, _)| *p).collect();
    for celebrity in [11usize, 222, 3333] {
        assert!(
            top3.contains(&celebrity),
            "page {celebrity} should rank in the top 3, got {top3:?}"
        );
    }
    println!("==> the three planted celebrity pages rank top-3, as expected");
    Ok(())
}
