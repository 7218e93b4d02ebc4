//! # fusedml-runtime
//!
//! A miniature SystemML-like runtime (§4.4): the GPU memory manager
//! (allocate / LRU-evict / host-device consistency), host↔device transfer
//! models (raw PCIe and the JVM-integration regime with JNI + format
//! conversion), end-to-end execution sessions that reproduce Tables 5
//! and 6, and one fault-recovery driver shared by sessions and serving.

// Hot-path code must report faults through typed errors, never through a
// panic or a bare unwrap/expect; a documented misuse or invariant check
// is allowed where it stands. Tests and benches are exempt.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic))]

pub mod memman;
pub mod recovery;
pub mod serve;
pub mod session;
pub mod shard_recovery;
pub mod streamed_backend;
pub mod streaming;
pub mod transfer;

pub use memman::{MemError, MemStats, MemoryManager};
pub use recovery::{
    run_with_recovery, BackendTier, LadderError, LadderOutcome, RecoveryAction, RecoveryEvent,
    RecoveryPolicy, RecoveryTier,
};
pub use serve::{
    clean_run, serve, CleanRun, RequestOutcome, RequestStatus, ServeConfig, ServeError,
    ServeReport, ServeRequest, ServeTier, TenantSpec, TenantSummary, WorkloadClass,
};
pub use session::{
    run_cpu, run_device, run_device_fault_tolerant, run_sharded_fault_tolerant, DataSet,
    EndToEndReport, EngineKind, FaultCountsReport, FaultTolerantReport, SessionConfig,
    ShardedSessionReport,
};
pub use shard_recovery::ShardTier;
pub use streamed_backend::StreamedBackend;
pub use streaming::{
    choose_stream_plan, SparseStreamer, StreamConfig, StreamError, StreamPlan, StreamReport,
};
pub use transfer::TransferModel;
