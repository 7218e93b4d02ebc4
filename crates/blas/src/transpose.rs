//! Device-side `csr2csc` — explicit sparse transposition, the alternative
//! NVIDIA recommends for `X^T * y` whose amortization cost Fig. 2 studies.
//!
//! Classic three-phase algorithm, each phase a kernel launch:
//! 1. histogram of column occupancy (global atomics),
//! 2. exclusive prefix sum of the histogram (Hillis–Steele, `log2 n`
//!    ping-pong launches — this is why transposition is expensive),
//! 3. scatter of every entry to its column segment via fetch-add cursors
//!    (uncoalesced writes).

use crate::csrmv::capped_grid;
use crate::dev::GpuCsr;
use fusedml_gpu_sim::{DeviceError, Gpu, GpuBuffer, LaunchConfig, LaunchStats, WARP_LANES};

const BS: usize = 256;

/// Zero-fill a u32 buffer on device.
fn fill_u32(gpu: &Gpu, buf: &GpuBuffer, value: u32) -> Result<LaunchStats, DeviceError> {
    let n = buf.len();
    let grid = capped_grid(gpu, n, BS);
    gpu.try_launch(
        "fill_u32",
        LaunchConfig::new(grid, BS).with_regs(12),
        |blk| {
            let grid_threads = blk.grid_dim() * blk.block_dim();
            blk.each_warp(|w| {
                let mut base = w.gtid(0);
                while base < n {
                    w.store_u32(buf, |lane| {
                        (base + lane < n).then_some((base + lane, value))
                    });
                    base += grid_threads;
                }
            });
        },
    )
}

/// Inclusive-to-exclusive Hillis–Steele scan of `src` (u32, length `n`)
/// into `dst` (u32, length `n + 1`, `dst[0] = 0`). Returns one launch per
/// doubling step plus the final shift.
fn exclusive_scan_u32(
    gpu: &Gpu,
    src: &GpuBuffer,
    dst: &GpuBuffer,
    scratch: (&GpuBuffer, &GpuBuffer),
) -> Result<Vec<LaunchStats>, DeviceError> {
    let n = src.len();
    assert_eq!(dst.len(), n + 1);
    let (mut a, mut b) = scratch;
    assert!(a.len() >= n && b.len() >= n);
    let mut launches = Vec::new();

    // Copy src into ping buffer.
    let grid = capped_grid(gpu, n, BS);
    launches.push(gpu.try_launch(
        "scan_init",
        LaunchConfig::new(grid, BS).with_regs(12),
        |blk| {
            let grid_threads = blk.grid_dim() * blk.block_dim();
            blk.each_warp(|w| {
                let mut base = w.gtid(0);
                while base < n {
                    let v = w.load_u32(src, |lane| (base + lane < n).then_some(base + lane));
                    w.store_u32(a, |lane| {
                        (base + lane < n).then_some((base + lane, v[lane]))
                    });
                    base += grid_threads;
                }
            });
        },
    )?);

    let mut offset = 1usize;
    while offset < n {
        let (input, output) = (a, b);
        launches.push(gpu.try_launch(
            "scan_step",
            LaunchConfig::new(grid, BS).with_regs(16),
            |blk| {
                let grid_threads = blk.grid_dim() * blk.block_dim();
                blk.each_warp(|w| {
                    let mut base = w.gtid(0);
                    while base < n {
                        let cur =
                            w.load_u32(input, |lane| (base + lane < n).then_some(base + lane));
                        let prev = w.load_u32(input, |lane| {
                            let i = base + lane;
                            (i < n && i >= offset).then(|| i - offset)
                        });
                        w.store_u32(output, |lane| {
                            let i = base + lane;
                            (i < n).then(|| {
                                let add = if i >= offset { prev[lane] } else { 0 };
                                (i, cur[lane] + add)
                            })
                        });
                        base += grid_threads;
                    }
                });
            },
        )?);
        std::mem::swap(&mut a, &mut b);
        offset *= 2;
    }

    // Shift into the exclusive result: dst[0] = 0, dst[i+1] = inclusive[i].
    let inclusive = a;
    launches.push(gpu.try_launch(
        "scan_shift",
        LaunchConfig::new(grid, BS).with_regs(12),
        |blk| {
            let grid_threads = blk.grid_dim() * blk.block_dim();
            blk.each_warp(|w| {
                if w.block_id() == 0 && w.warp_id() == 0 {
                    w.store_u32(dst, |lane| (lane == 0).then_some((0, 0)));
                }
                let mut base = w.gtid(0);
                while base < n {
                    let v = w.load_u32(inclusive, |lane| (base + lane < n).then_some(base + lane));
                    w.store_u32(dst, |lane| {
                        (base + lane < n).then(|| (base + lane + 1, v[lane]))
                    });
                    base += grid_threads;
                }
            });
        },
    )?);
    Ok(launches)
}

/// Full device-side `csr2csc`: returns the transposed matrix (as a CSR of
/// `X^T`, with unsorted row order inside each column) together with every
/// launch performed — the total simulated time is the "transpose cost"
/// that Fig. 2's amortization study divides by the per-product saving.
pub fn try_csr2csc_device(
    gpu: &Gpu,
    x: &GpuCsr,
) -> Result<(GpuCsr, Vec<LaunchStats>), DeviceError> {
    let n = x.cols;
    let m = x.rows;
    let nnz = x.nnz;
    let mut launches = Vec::new();

    let counts = gpu.try_alloc_u32("csc.counts", n.max(1))?;
    launches.push(fill_u32(gpu, &counts, 0)?);

    // Phase 1: histogram of column occupancy.
    let grid = capped_grid(gpu, m, BS);
    launches.push(gpu.try_launch(
        "csr2csc_histogram",
        LaunchConfig::new(grid, BS).with_regs(18),
        |blk| {
            let grid_threads = blk.grid_dim() * blk.block_dim();
            blk.each_warp(|w| {
                // One thread per row (scalar style suffices for counting).
                let mut row0 = w.gtid(0);
                while row0 < m {
                    let row_of = |lane: usize| {
                        let r = row0 + lane;
                        (r < m).then_some(r)
                    };
                    let start = w.load_u32(&x.row_off, row_of);
                    let end = w.load_u32(&x.row_off, |l| row_of(l).map(|r| r + 1));
                    let mut iter = 0usize;
                    let mut idx = [None; WARP_LANES];
                    loop {
                        let mut active = 0u64;
                        for lane in 0..WARP_LANES {
                            idx[lane] = row_of(lane).and_then(|_| {
                                let i = start[lane] as usize + iter;
                                (i < end[lane] as usize).then_some(i)
                            });
                            active += idx[lane].is_some() as u64;
                        }
                        if active == 0 {
                            break;
                        }
                        let cols = w.load_u32(&x.col_idx, |l| idx[l]);
                        w.atomic_fetch_add_u32(&counts, |lane| {
                            idx[lane].map(|_| (cols[lane] as usize, 1))
                        });
                        iter += 1;
                    }
                    row0 += grid_threads;
                }
            });
        },
    )?);

    // Phase 2: exclusive scan into the new row offsets (cols + 1).
    let col_off = gpu.try_alloc_u32("csc.col_off", n + 1)?;
    let ping = gpu.try_alloc_u32("csc.scan_ping", n.max(1))?;
    let pong = gpu.try_alloc_u32("csc.scan_pong", n.max(1))?;
    launches.extend(exclusive_scan_u32(gpu, &counts, &col_off, (&ping, &pong))?);
    gpu.free(&ping);
    gpu.free(&pong);
    gpu.free(&counts);

    // Phase 3: scatter via fetch-add cursors seeded from col_off.
    let cursor = gpu.try_alloc_u32("csc.cursor", n.max(1))?;
    {
        let grid = capped_grid(gpu, n, BS);
        launches.push(gpu.try_launch(
            "csr2csc_seed_cursor",
            LaunchConfig::new(grid, BS).with_regs(12),
            |blk| {
                let grid_threads = blk.grid_dim() * blk.block_dim();
                blk.each_warp(|w| {
                    let mut base = w.gtid(0);
                    while base < n {
                        let v =
                            w.load_u32(&col_off, |lane| (base + lane < n).then_some(base + lane));
                        w.store_u32(&cursor, |lane| {
                            (base + lane < n).then(|| (base + lane, v[lane]))
                        });
                        base += grid_threads;
                    }
                });
            },
        )?);
    }

    let row_idx_out = gpu.try_alloc_u32("csc.row_idx", nnz)?;
    let values_out = gpu.try_alloc_f64("csc.values", nnz)?;
    let grid = capped_grid(gpu, m, BS);
    launches.push(gpu.try_launch(
        "csr2csc_scatter",
        LaunchConfig::new(grid, BS).with_regs(24),
        |blk| {
            let grid_threads = blk.grid_dim() * blk.block_dim();
            blk.each_warp(|w| {
                let mut row0 = w.gtid(0);
                while row0 < m {
                    let row_of = |lane: usize| {
                        let r = row0 + lane;
                        (r < m).then_some(r)
                    };
                    let start = w.load_u32(&x.row_off, row_of);
                    let end = w.load_u32(&x.row_off, |l| row_of(l).map(|r| r + 1));
                    let mut iter = 0usize;
                    let mut idx = [None; WARP_LANES];
                    loop {
                        let mut active = 0u64;
                        for lane in 0..WARP_LANES {
                            idx[lane] = row_of(lane).and_then(|_| {
                                let i = start[lane] as usize + iter;
                                (i < end[lane] as usize).then_some(i)
                            });
                            active += idx[lane].is_some() as u64;
                        }
                        if active == 0 {
                            break;
                        }
                        let cols = w.load_u32(&x.col_idx, |l| idx[l]);
                        let vals = w.load_f64(&x.values, |l| idx[l]);
                        let dst = w.atomic_fetch_add_u32(&cursor, |lane| {
                            idx[lane].map(|_| (cols[lane] as usize, 1))
                        });
                        w.store_u32(&row_idx_out, |lane| {
                            idx[lane]
                                .and_then(|_| row_of(lane).map(|r| (dst[lane] as usize, r as u32)))
                        });
                        w.store_f64(&values_out, |lane| {
                            idx[lane].map(|_| (dst[lane] as usize, vals[lane]))
                        });
                        iter += 1;
                    }
                    row0 += grid_threads;
                }
            });
        },
    )?);
    gpu.free(&cursor);

    let xt = GpuCsr {
        rows: n,
        cols: m,
        nnz,
        row_off: col_off,
        col_idx: row_idx_out,
        values: values_out,
        unsorted: true,
        strips: Default::default(),
    };
    Ok((xt, launches))
}

/// Total simulated milliseconds across a sequence of launches.
pub fn total_sim_ms(launches: &[LaunchStats]) -> f64 {
    launches.iter().map(|l| l.sim_ms()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csrmv::{try_csrmv, SpmvStyle};
    use fusedml_gpu_sim::DeviceSpec;
    use fusedml_matrix::gen::{random_vector, uniform_sparse};
    use fusedml_matrix::reference;

    fn gpu() -> Gpu {
        Gpu::with_host_threads(DeviceSpec::gtx_titan(), 1)
    }

    #[test]
    fn device_transpose_produces_valid_spmv() {
        let g = gpu();
        let x = uniform_sparse(120, 75, 0.1, 21);
        let xd = GpuCsr::try_upload(&g, "x", &x).unwrap();
        let (xt, launches) = try_csr2csc_device(&g, &xd).unwrap();
        assert_eq!(xt.rows, 75);
        assert_eq!(xt.cols, 120);
        assert_eq!(xt.nnz, x.nnz());
        assert!(launches.len() >= 5, "expected multi-phase transposition");
        assert!(xt.unsorted);

        // X^T * p via the transposed matrix equals the reference.
        let p = random_vector(120, 9);
        let pd = g.try_upload_f64("p", &p).unwrap();
        let wd = g.try_alloc_f64("w", 75).unwrap();
        try_csrmv(&g, &xt, &pd, &wd, SpmvStyle::Vector { vs: 4 }).unwrap();
        let expect = reference::csr_tmv(&x, &p);
        assert!(reference::max_abs_diff(&wd.to_vec_f64(), &expect) < 1e-12);
    }

    #[test]
    fn transpose_offsets_match_host() {
        let g = gpu();
        let x = uniform_sparse(64, 40, 0.15, 5);
        let xd = GpuCsr::try_upload(&g, "x", &x).unwrap();
        let (xt, _) = try_csr2csc_device(&g, &xd).unwrap();
        let host_t = x.transpose();
        assert_eq!(
            xt.row_off.to_vec_u32(),
            host_t
                .row_off()
                .iter()
                .map(|&o| o as u32)
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn transpose_cost_is_material() {
        let g = gpu();
        let x = uniform_sparse(500, 256, 0.05, 6);
        let xd = GpuCsr::try_upload(&g, "x", &x).unwrap();
        let (_, launches) = try_csr2csc_device(&g, &xd).unwrap();
        // Cost should exceed a single SpMV over the same data.
        let y = g.try_upload_f64("y", &random_vector(256, 1)).unwrap();
        let p = g.try_alloc_f64("p", 500).unwrap();
        let spmv = try_csrmv(&g, &xd, &y, &p, SpmvStyle::Vector { vs: 8 }).unwrap();
        assert!(total_sim_ms(&launches) > spmv.sim_ms());
    }

    #[test]
    fn empty_matrix_transposes() {
        let g = gpu();
        let x = fusedml_matrix::CsrMatrix::empty(10, 6);
        let xd = GpuCsr::try_upload(&g, "x", &x).unwrap();
        let (xt, _) = try_csr2csc_device(&g, &xd).unwrap();
        assert_eq!(xt.nnz, 0);
        assert_eq!(xt.row_off.to_vec_u32(), vec![0; 7]);
    }
}
