//! BLAS Level-1 device kernels: the vector arithmetic Listing 1's conjugate
//! gradient stitches between matrix-vector products (`axpy`, `scal`, `dot`,
//! `nrm2`, element-wise multiply), plus `fill`/`copy` utilities.
//!
//! Each function is a standalone kernel launch — exactly the baseline
//! regime the paper measures against, where every operator pays launch
//! overhead and round-trips its operands through global memory.

use crate::csrmv::capped_grid;
use fusedml_gpu_sim::{DeviceError, Gpu, GpuBuffer, LaunchConfig, LaunchStats, WARP_LANES};

const BS: usize = 256;

fn elementwise<F>(
    gpu: &Gpu,
    name: &'static str,
    n: usize,
    body: F,
) -> Result<LaunchStats, DeviceError>
where
    F: Fn(&mut fusedml_gpu_sim::WarpCtx, usize /* base */) + Sync,
{
    let grid = capped_grid(gpu, n, BS);
    let cfg = LaunchConfig::new(grid, BS).with_regs(16);
    gpu.try_launch(name, cfg, |blk| {
        let grid_threads = blk.grid_dim() * blk.block_dim();
        blk.each_warp(|w| {
            let mut base = w.gtid(0);
            while base < n {
                body(w, base);
                base += grid_threads;
            }
        });
    })
}

/// `buf[i] = value` for all i.
pub fn try_fill(gpu: &Gpu, buf: &GpuBuffer, value: f64) -> Result<LaunchStats, DeviceError> {
    let n = buf.len();
    elementwise(gpu, "fill", n, |w, base| {
        w.store_f64_run(buf, base, n - base, &[value; WARP_LANES]);
    })
}

/// `dst = src`.
pub fn try_copy(gpu: &Gpu, src: &GpuBuffer, dst: &GpuBuffer) -> Result<LaunchStats, DeviceError> {
    assert_eq!(src.len(), dst.len());
    let n = src.len();
    elementwise(gpu, "copy", n, |w, base| {
        let v = w.load_f64_run(src, base, n - base);
        w.store_f64_run(dst, base, n - base, &v);
    })
}

/// `y += a * x` in place.
pub fn try_axpy(
    gpu: &Gpu,
    a: f64,
    x: &GpuBuffer,
    y: &GpuBuffer,
) -> Result<LaunchStats, DeviceError> {
    assert_eq!(x.len(), y.len());
    let n = x.len();
    elementwise(gpu, "axpy", n, |w, base| {
        let xs = w.load_f64_run(x, base, n - base);
        let mut ys = w.load_f64_run(y, base, n - base);
        w.flops(2 * (n - base).min(WARP_LANES) as u64);
        for (y, x) in ys.iter_mut().zip(xs) {
            *y += a * x;
        }
        w.store_f64_run(y, base, n - base, &ys);
    })
}

/// `x *= a` in place.
pub fn try_scal(gpu: &Gpu, a: f64, x: &GpuBuffer) -> Result<LaunchStats, DeviceError> {
    let n = x.len();
    elementwise(gpu, "scal", n, |w, base| {
        let xs = w.load_f64_run(x, base, n - base);
        w.flops((n - base).min(WARP_LANES) as u64);
        w.store_f64_run(x, base, n - base, &xs.map(|x| a * x));
    })
}

/// `out = x .* y` element-wise (the `v ⊙ (...)` step when evaluated as a
/// standalone operator).
pub fn try_ewmul(
    gpu: &Gpu,
    x: &GpuBuffer,
    y: &GpuBuffer,
    out: &GpuBuffer,
) -> Result<LaunchStats, DeviceError> {
    assert_eq!(x.len(), y.len());
    assert_eq!(x.len(), out.len());
    let n = x.len();
    elementwise(gpu, "ewmul", n, |w, base| {
        let mut xs = w.load_f64_run(x, base, n - base);
        let ys = w.load_f64_run(y, base, n - base);
        w.flops((n - base).min(WARP_LANES) as u64);
        for (x, y) in xs.iter_mut().zip(ys) {
            *x *= y;
        }
        w.store_f64_run(out, base, n - base, &xs);
    })
}

/// Dot product `x . y`, reduced hierarchically (shuffle within warps,
/// shared memory within the block, one global atomic per block) into
/// `out[0]`. Returns the scalar alongside the launch stats.
pub fn try_dot(
    gpu: &Gpu,
    x: &GpuBuffer,
    y: &GpuBuffer,
    out: &GpuBuffer,
) -> Result<(f64, LaunchStats), DeviceError> {
    assert_eq!(x.len(), y.len());
    assert!(!out.is_empty());
    out.host_write_f64(0, 0.0);
    let n = x.len();
    let grid = capped_grid(gpu, n, BS);
    let cfg = LaunchConfig::new(grid, BS)
        .with_regs(20)
        .with_shared_bytes(8);
    let stats = gpu.try_launch("dot", cfg, |blk| {
        let block_acc = blk.shared_f64(1);
        let grid_threads = blk.grid_dim() * blk.block_dim();
        blk.each_warp(|w| {
            let mut sum = [0.0f64; WARP_LANES];
            let mut base = w.gtid(0);
            while base < n {
                let xs = w.load_f64_run(x, base, n - base);
                let ys = w.load_f64_run(y, base, n - base);
                for lane in 0..WARP_LANES {
                    if base + lane < n {
                        sum[lane] += xs[lane] * ys[lane];
                    }
                }
                w.flops(2 * (n - base).min(WARP_LANES) as u64);
                base += grid_threads;
            }
            w.shuffle_reduce_sum(&mut sum, 32);
            w.shared_atomic_add(block_acc, |lane| (lane == 0).then_some((0, sum[0])));
        });
        blk.sync();
        blk.each_warp(|w| {
            if w.warp_id() == 0 {
                let v = w.shared_load(block_acc, |lane| (lane == 0).then_some(0));
                w.atomic_add_f64(out, |lane| (lane == 0).then_some((0, v[0])));
            }
        });
    })?;
    Ok((out.host_read_f64(0), stats))
}

/// Squared 2-norm `sum(x .* x)` — `nrm2`'s square, what Listing 1 uses.
pub fn try_nrm2_sq(
    gpu: &Gpu,
    x: &GpuBuffer,
    out: &GpuBuffer,
) -> Result<(f64, LaunchStats), DeviceError> {
    try_dot(gpu, x, x, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusedml_gpu_sim::DeviceSpec;
    use fusedml_matrix::gen::random_vector;
    use fusedml_matrix::reference;

    fn gpu() -> Gpu {
        Gpu::with_host_threads(DeviceSpec::gtx_titan(), 1)
    }

    #[test]
    fn fill_and_copy() {
        let g = gpu();
        let a = g.try_alloc_f64("a", 1000).unwrap();
        try_fill(&g, &a, 3.5).unwrap();
        assert!(a.to_vec_f64().iter().all(|&v| v == 3.5));
        let b = g.try_alloc_f64("b", 1000).unwrap();
        try_copy(&g, &a, &b).unwrap();
        assert_eq!(b.to_vec_f64(), a.to_vec_f64());
    }

    #[test]
    fn axpy_matches_reference() {
        let g = gpu();
        let xh = random_vector(777, 1);
        let yh = random_vector(777, 2);
        let x = g.try_upload_f64("x", &xh).unwrap();
        let y = g.try_upload_f64("y", &yh).unwrap();
        try_axpy(&g, -1.5, &x, &y).unwrap();
        let mut expect = yh.clone();
        reference::axpy(-1.5, &xh, &mut expect);
        assert!(reference::max_abs_diff(&y.to_vec_f64(), &expect) < 1e-12);
    }

    #[test]
    fn scal_and_ewmul() {
        let g = gpu();
        let xh = random_vector(100, 3);
        let x = g.try_upload_f64("x", &xh).unwrap();
        try_scal(&g, 2.0, &x).unwrap();
        let got = x.to_vec_f64();
        assert!(got
            .iter()
            .zip(&xh)
            .all(|(a, b)| (a - 2.0 * b).abs() < 1e-15));

        let yh = random_vector(100, 4);
        let y = g.try_upload_f64("y", &yh).unwrap();
        let out = g.try_alloc_f64("out", 100).unwrap();
        try_ewmul(&g, &x, &y, &out).unwrap();
        let expect: Vec<f64> = got.iter().zip(&yh).map(|(a, b)| a * b).collect();
        assert!(reference::max_abs_diff(&out.to_vec_f64(), &expect) < 1e-15);
    }

    #[test]
    fn dot_matches_reference() {
        let g = gpu();
        let xh = random_vector(4097, 5);
        let yh = random_vector(4097, 6);
        let x = g.try_upload_f64("x", &xh).unwrap();
        let y = g.try_upload_f64("y", &yh).unwrap();
        let out = g.try_alloc_f64("dot", 1).unwrap();
        let (d, stats) = try_dot(&g, &x, &y, &out).unwrap();
        assert!((d - reference::dot(&xh, &yh)).abs() < 1e-9);
        // One atomic per block, not per element.
        assert!(stats.counters.global_atomics <= stats.config.grid_blocks as u64);
    }

    #[test]
    fn nrm2_sq_positive() {
        let g = gpu();
        let xh = random_vector(513, 7);
        let x = g.try_upload_f64("x", &xh).unwrap();
        let out = g.try_alloc_f64("n", 1).unwrap();
        let (n2, _) = try_nrm2_sq(&g, &x, &out).unwrap();
        assert!((n2 - reference::norm2_sq(&xh)).abs() < 1e-9);
    }

    #[test]
    fn dot_is_repeatable() {
        let g = gpu();
        let xh = random_vector(2048, 8);
        let x = g.try_upload_f64("x", &xh).unwrap();
        let out = g.try_alloc_f64("d", 1).unwrap();
        let (a, _) = try_dot(&g, &x, &x, &out).unwrap();
        let (b, _) = try_dot(&g, &x, &x, &out).unwrap();
        assert_eq!(a, b, "sequential simulation must be bitwise repeatable");
    }
}
