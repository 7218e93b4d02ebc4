//! The code-generation layer for dense fused kernels.
//!
//! The paper generates CUDA C at runtime — a kernel specialized to the
//! matrix width with `TL`-way unrolled loops and explicitly named registers
//! (Listing 2) — because indexed "register arrays" spill to local memory
//! when the index is not a compile-time constant. The Rust analog is
//! **monomorphization**: [`try_dense_fused_kernel`] is generic over
//! `const TL: usize`, and this module provides the runtime dispatch table
//! from a [`DensePlan`] to the 40 specialized instantiations, plus a
//! faithful CUDA-source generator for inspection (mirroring Listing 2).

use crate::dense_fused::try_dense_fused_kernel;
use crate::pattern::PatternSpec;
use crate::tuner::{DensePlan, MAX_TL};
use fusedml_blas::GpuDense;
use fusedml_gpu_sim::{DeviceError, Gpu, GpuBuffer, LaunchStats};
use std::fmt::Write as _;

/// Launch the dense fused kernel, dispatching on the plan's thread load to
/// the monomorphized instantiation (the "generated kernel").
///
/// # Panics
/// If `plan.tl` is outside `[1, 40]` — the range beyond which the paper's
/// kernel would spill registers.
#[allow(clippy::too_many_arguments)]
pub fn try_launch_dense_fused(
    gpu: &Gpu,
    plan: &DensePlan,
    spec: PatternSpec,
    x: &GpuDense,
    v: Option<&GpuBuffer>,
    y: &GpuBuffer,
    z: Option<&GpuBuffer>,
    w: &GpuBuffer,
) -> Result<LaunchStats, DeviceError> {
    macro_rules! dispatch {
        ($($tl:literal),+) => {
            match plan.tl {
                $( $tl => try_dense_fused_kernel::<$tl>(gpu, plan, spec, x, v, y, z, w), )+
                other => panic!(
                    "thread load {other} out of range [1, {MAX_TL}] — register spill"
                ),
            }
        };
    }
    dispatch!(
        1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25,
        26, 27, 28, 29, 30, 31, 32, 33, 34, 35, 36, 37, 38, 39, 40
    )
}

/// Generate the CUDA C source the paper's code generator would emit for a
/// dense matrix of width `n`, vector size `vs` and thread load `tl` —
/// the shape of Listing 2 (`mtmvm_<n>_<vs>_<tl>`), with unrolled loads and
/// explicitly named registers.
///
/// This is provided for inspection/documentation (and as the honest record
/// of what the monomorphized Rust kernel models); it is not compiled.
pub fn generate_cuda_source(n: usize, vs: usize, tl: usize) -> String {
    assert!((1..=MAX_TL).contains(&tl));
    let mut s = String::new();
    let _ = writeln!(
        s,
        "__global__ void mtmvm_{n}_{vs}_{tl}(const double *X, const double *y,"
    );
    let _ = writeln!(s, "    const double *v, const double a, double *w) {{");
    let _ = writeln!(s, "  __shared__ volatile double sdata[{vs}];");
    let _ = writeln!(s, "  unsigned int tid = threadIdx.x;");
    let _ = writeln!(s, "  unsigned int lid = tid & ({});", vs - 1);
    let _ = writeln!(s, "  unsigned int vid = tid / {vs};");
    let _ = writeln!(s, "  unsigned int rowStart = blockIdx.x * NV + vid;");
    let _ = writeln!(
        s,
        "  unsigned int rowEnd = rowStart + (gridDim.x * NV) * rowPerVector;"
    );
    // Named registers, one set per unrolled slot.
    let decl: Vec<String> = (1..=tl)
        .map(|i| format!("l_y{i}, l_X{i}, l_w{i}"))
        .collect();
    let _ = writeln!(s, "  double sum, {};", decl.join(", "));
    let _ = writeln!(s, "  if (rowStart < rowDim) {{");
    for i in 1..=tl {
        let _ = writeln!(s, "    l_y{i} = y[lid + {}];", (i - 1) * vs);
        let _ = writeln!(s, "    l_w{i} = 0.0;");
    }
    let _ = writeln!(
        s,
        "    for (r = rowStart; r < rowEnd; r += gridDim.x * NV) {{"
    );
    let _ = writeln!(s, "      sum = 0.0;");
    for i in 1..=tl {
        let _ = writeln!(
            s,
            "      l_X{i} = X[r * {n} + lid + {}]; sum += l_X{i} * l_y{i};",
            (i - 1) * vs
        );
    }
    let _ = writeln!(s, "      sum = interVectorReduce(sum);");
    let _ = writeln!(s, "      if (lid == 0) sdata[vid] = sum * v[r];");
    let _ = writeln!(s, "      sum = sdata[vid];");
    for i in 1..=tl {
        let _ = writeln!(s, "      l_w{i} += l_X{i} * sum;");
    }
    let _ = writeln!(s, "    }}");
    for i in 1..=tl {
        let _ = writeln!(s, "    atomicAdd(&w[lid + {}], a * l_w{i});", (i - 1) * vs);
    }
    let _ = writeln!(s, "  }}");
    let _ = writeln!(s, "}}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_source_matches_listing2_shape() {
        // The paper's example: m x 32 matrix, VS = 16, TL = 2.
        let src = generate_cuda_source(32, 16, 2);
        assert!(src.contains("mtmvm_32_16_2"));
        assert!(src.contains("l_y1"), "unrolled register 1 missing");
        assert!(src.contains("l_y2"), "unrolled register 2 missing");
        assert!(!src.contains("l_y3"), "over-unrolled");
        assert!(src.contains("lid = tid & (15)"));
        assert!(src.contains("interVectorReduce"));
        assert!(src.contains("atomicAdd"));
        // One X load per unroll slot.
        assert!(src.matches("l_X").count() / 2 >= 2);
    }

    #[test]
    fn unroll_count_scales_with_tl() {
        let s4 = generate_cuda_source(128, 32, 4);
        assert!(s4.contains("l_w4") && !s4.contains("l_w5"));
        let s1 = generate_cuda_source(28, 32, 1);
        assert!(s1.contains("l_w1") && !s1.contains("l_w2"));
    }

    #[test]
    #[should_panic]
    fn rejects_out_of_range_tl() {
        generate_cuda_source(64, 32, 41);
    }
}
