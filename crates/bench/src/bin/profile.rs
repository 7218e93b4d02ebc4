//! `profile` — run one kernel configuration and print the simulator's
//! nvprof-style report (counters, time breakdown, advice).
//!
//! ```text
//! profile fused-sparse  [--rows m] [--cols n] [--density d]
//! profile fused-dense   [--rows m] [--cols n]
//! profile csrmv-t       [--rows m] [--cols n] [--density d]   # baseline scatter
//! profile fused-ell     [--rows m] [--cols n] [--density d]
//! ```

// Dev tool or not, a failed or missing launch is a worded error exit, not
// a panic or a bare unwrap/expect.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic))]

use fusedml_blas::ellmv::GpuEll;
use fusedml_blas::level1::try_fill;
use fusedml_blas::try_csrmv_t_scatter;
use fusedml_blas::{GpuCsr, GpuDense};
use fusedml_core::ell_fused::{plan_ell, try_fused_pattern_ell};
use fusedml_core::executor::FusedExecutor;
use fusedml_core::PatternSpec;
use fusedml_gpu_sim::{profile_report, DeviceSpec, Gpu, LaunchStats};
use fusedml_matrix::gen::{dense_random, random_vector, uniform_sparse};
use fusedml_matrix::EllMatrix;
use std::error::Error;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut kernel = None;
    let mut rows = 50_000usize;
    let mut cols = 512usize;
    let mut density = 0.01f64;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--rows" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => rows = v,
                None => usage(),
            },
            "--cols" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => cols = v,
                None => usage(),
            },
            "--density" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => density = v,
                None => usage(),
            },
            k @ ("fused-sparse" | "fused-dense" | "csrmv-t" | "fused-ell") => {
                kernel = Some(k.to_string())
            }
            _ => {
                usage();
            }
        }
    }
    let Some(kernel) = kernel else {
        usage();
    };
    match run(&kernel, rows, cols, density) {
        Ok(stats) => print!("{}", profile_report(&stats)),
        Err(e) => {
            eprintln!("{kernel}: {e}");
            std::process::exit(1);
        }
    }
}

/// Run `kernel` once on a fresh device and return its (last) launch.
fn run(
    kernel: &str,
    rows: usize,
    cols: usize,
    density: f64,
) -> Result<LaunchStats, Box<dyn Error>> {
    let gpu = Gpu::new(DeviceSpec::gtx_titan());
    let stats = match kernel {
        "fused-sparse" => {
            let x = uniform_sparse(rows, cols, density, 1);
            let xd = GpuCsr::try_upload(&gpu, "X", &x)?;
            let y = gpu.try_upload_f64("y", &random_vector(cols, 2))?;
            let w = gpu.try_alloc_f64("w", cols)?;
            let mut ex = FusedExecutor::new(&gpu);
            println!("plan: {:?}\n", ex.try_sparse_plan(&xd)?);
            ex.try_pattern_sparse(PatternSpec::xtxy(), &xd, None, &y, None, &w)?;
            ex.launches.pop().ok_or("kernel did not launch")?
        }
        "fused-dense" => {
            let x = dense_random(rows, cols, 1);
            let xd = GpuDense::try_upload(&gpu, "X", &x)?;
            let y = gpu.try_upload_f64("y", &random_vector(cols, 2))?;
            let w = gpu.try_alloc_f64("w", cols)?;
            let mut ex = FusedExecutor::new(&gpu);
            println!("plan: {:?}\n", ex.try_dense_plan(&xd)?);
            ex.try_pattern_dense(PatternSpec::xtxy(), &xd, None, &y, None, &w)?;
            ex.launches.pop().ok_or("kernel did not launch")?
        }
        "csrmv-t" => {
            let x = uniform_sparse(rows, cols, density, 1);
            let xd = GpuCsr::try_upload(&gpu, "X", &x)?;
            let p = gpu.try_upload_f64("p", &random_vector(rows, 2))?;
            let w = gpu.try_alloc_f64("w", cols)?;
            try_fill(&gpu, &w, 0.0)?;
            try_csrmv_t_scatter(&gpu, &xd, &p, &w)?
        }
        "fused-ell" => {
            let x = uniform_sparse(rows, cols, density, 1);
            let ell = EllMatrix::from_csr(&x);
            println!(
                "ELL width {} ({}% padding)\n",
                ell.width(),
                (ell.padding_ratio() * 100.0) as u32
            );
            let xd = GpuEll::try_upload(&gpu, "X", &ell)?;
            let y = gpu.try_upload_f64("y", &random_vector(cols, 2))?;
            let w = gpu.try_alloc_f64("w", cols)?;
            try_fill(&gpu, &w, 0.0)?;
            let plan = plan_ell(&gpu, rows, cols);
            try_fused_pattern_ell(&gpu, &plan, PatternSpec::xtxy(), &xd, None, &y, None, &w)?
        }
        _ => usage(),
    };
    Ok(stats)
}

fn usage() -> ! {
    eprintln!(
        "usage: profile <fused-sparse|fused-dense|csrmv-t|fused-ell> \
         [--rows m] [--cols n] [--density d]"
    );
    std::process::exit(2);
}
