//! One module per paper artifact. Each `run` function regenerates the
//! table/figure at a configurable scale and returns a [`crate::Table`].

pub mod ext_ell;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod table1;
pub mod table2;
pub mod table4;
pub mod table5;
pub mod table6;

use crate::table::Table;
use fusedml_gpu_sim::{DeviceSpec, Gpu};

/// An experiment's table, or the device, solver or measurement error that
/// stopped it.
pub type ExperimentResult = Result<Table, Box<dyn std::error::Error>>;

/// Shared experiment context: the simulated device plus the workload scale
/// factor (1.0 = the paper's sizes; the default 0.25 keeps host runtime in
/// the minutes on a laptop-class machine — see DESIGN.md's scaling note).
pub struct Ctx {
    pub gpu: Gpu,
    pub scale: f64,
    pub seed: u64,
}

impl Ctx {
    pub fn new(scale: f64) -> Self {
        Self::with_device(scale, DeviceSpec::gtx_titan())
    }

    /// Run the experiments on a different simulated device (the paper
    /// notes hand-tuned kernels "get worse with new GPU generations" —
    /// the analytical tuner re-plans per device spec automatically).
    pub fn with_device(scale: f64, device: DeviceSpec) -> Self {
        assert!(scale > 0.0 && scale <= 1.0, "scale must be in (0, 1]");
        Ctx {
            gpu: Gpu::new(device),
            scale,
            seed: 0x5EED,
        }
    }

    /// The sparse-sweep row count (paper: 500k).
    pub fn sweep_rows(&self) -> usize {
        (500_000.0 * self.scale) as usize
    }

    /// The column counts of the paper's sparse sweeps (200..4096).
    pub fn sparse_sweep_cols(&self) -> Vec<usize> {
        vec![200, 400, 800, 1600, 2048, 3072, 4096]
    }

    /// The column counts of the dense sweep (up to 2K).
    pub fn dense_sweep_cols(&self) -> Vec<usize> {
        vec![32, 64, 128, 256, 512, 1024, 2048]
    }

    /// Dense sweeps use fewer rows: at n = 2048 the full-scale matrix
    /// would not even fit the real device (the paper makes the same
    /// observation for m > 2K... columns), and simulation visits every
    /// element three times in the baseline.
    pub fn dense_sweep_rows(&self) -> usize {
        (250_000.0 * self.scale) as usize
    }
}
