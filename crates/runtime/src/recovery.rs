//! Fault recovery: one driver, [`run_with_recovery`], walks a ladder of
//! execution tiers (fastest first) for every caller. A failed attempt is
//! retried on the same tier with exponential backoff while the caller's
//! retry rule allows it (transient faults, for most callers); anything
//! else degrades to the next tier. The single-device session
//! (`Fused -> Baseline -> Cpu`), the sharded session (see
//! [`crate::shard_recovery`]), the serving layer and the chaos campaign
//! differ only in their tier list, their retry rule and what one attempt
//! does.
//!
//! Every attempt re-builds its backend from host data, so a watchdog-killed
//! kernel (whose output buffers are undefined) never leaks garbage into
//! the next attempt. Every retry and every degradation decision is
//! recorded as a [`RecoveryEvent`] so a report can show *why* a run ended
//! on the tier it did.

use fusedml_ml::{CheckpointHandle, SolverError};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A rung of some degradation ladder: anything with a stable report name.
/// The ladder bookkeeping types ([`RecoveryEvent`], [`LadderOutcome`],
/// [`LadderError`]) are generic over the tier so every ladder shares one
/// event trail format.
pub trait RecoveryTier: Copy {
    /// Stable name for reports.
    fn name(&self) -> &'static str;
}

/// Execution tier of the degradation ladder, fastest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BackendTier {
    /// The paper's fused kernels.
    Fused,
    /// cuBLAS/cuSPARSE-style operator composition.
    Baseline,
    /// Host execution — the tier of last resort; never faults.
    Cpu,
}

impl BackendTier {
    /// The single-device ladder, fastest first.
    pub const LADDER: [BackendTier; 3] =
        [BackendTier::Fused, BackendTier::Baseline, BackendTier::Cpu];

    /// Stable name for reports.
    pub fn name(self) -> &'static str {
        match self {
            BackendTier::Fused => "fused",
            BackendTier::Baseline => "baseline",
            BackendTier::Cpu => "cpu",
        }
    }
}

impl RecoveryTier for BackendTier {
    fn name(&self) -> &'static str {
        BackendTier::name(*self)
    }
}

/// What the policy decided after a failed attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RecoveryAction {
    /// Same tier again after backoff (transient fault, retries left).
    Retry,
    /// Move down the ladder (retries exhausted or fault not transient).
    Degrade,
    /// Give up (degradation disabled, or the ladder is exhausted).
    Abort,
}

/// One recovery decision, recorded in order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecoveryEvent<T = BackendTier> {
    /// Tier the failed attempt ran on.
    pub tier: T,
    /// 1-based attempt number within that tier.
    pub attempt: usize,
    /// Stable error class (`DeviceError::kind` / `"numerical-breakdown"`).
    pub error_kind: String,
    /// Full error message.
    pub detail: String,
    /// What the policy decided.
    pub action: RecoveryAction,
    /// Simulated backoff delay charged before the retry (0 otherwise).
    pub backoff_ms: f64,
}

/// Retry/degradation policy knobs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RecoveryPolicy {
    /// Retries per tier *after* the first attempt, for transient faults.
    pub max_retries: usize,
    /// Backoff before the first retry (simulated milliseconds).
    pub backoff_ms: f64,
    /// Multiplier applied to the backoff per additional retry.
    pub backoff_multiplier: f64,
    /// When false, a tier's failure aborts instead of degrading.
    pub allow_degradation: bool,
    /// Snapshot solver state every this many iterations so retries and
    /// tier degrades resume from the last good iterate instead of
    /// iteration 0. `0` (the default) disables checkpointing and keeps
    /// every attempt bit-identical to the pre-checkpoint behaviour.
    pub checkpoint_every: usize,
    /// Worker threads for the Cpu tier's fused single-pass pattern
    /// kernels (SIMD-dispatched, deterministic across thread counts).
    /// `0` (the default) keeps the Cpu tier on the unfused reference
    /// path, bit-identical to earlier releases.
    #[serde(default)]
    pub cpu_fused_threads: usize,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            max_retries: 2,
            backoff_ms: 5.0,
            backoff_multiplier: 2.0,
            allow_degradation: true,
            checkpoint_every: 0,
            cpu_fused_threads: 0,
        }
    }
}

impl RecoveryPolicy {
    /// Backoff before retry number `retry` (1-based), exponential.
    pub fn backoff_for(&self, retry: usize) -> f64 {
        self.backoff_ms * self.backoff_multiplier.powi(retry.saturating_sub(1) as i32)
    }

    /// A fresh snapshot store for one run's attempts when checkpointing is
    /// on (`checkpoint_every > 0`).
    pub fn checkpoint(&self) -> Option<CheckpointHandle> {
        (self.checkpoint_every > 0).then(|| CheckpointHandle::new(self.checkpoint_every))
    }
}

/// Where the ladder landed, with the full decision trail.
#[derive(Debug, Clone, PartialEq)]
pub struct LadderOutcome<T, R> {
    /// Tier that completed the run.
    pub tier: T,
    /// Total attempts across all tiers (>= 1).
    pub attempts: usize,
    /// Simulated milliseconds spent backing off before retries.
    pub retry_backoff_ms: f64,
    /// Every retry/degradation decision, in order.
    pub events: Vec<RecoveryEvent<T>>,
    /// What the successful attempt returned.
    pub value: R,
    /// Iteration the successful attempt resumed from, when checkpointing
    /// was enabled and a prior failed attempt left a snapshot behind
    /// (`None` when the run started from iteration 0).
    pub resumed_at: Option<usize>,
}

/// The ladder gave up: every usable tier failed. Carries the *last*
/// error seen on each tier, in the order the tiers were attempted, plus
/// the full decision trail — so an abort report can show not just the
/// final CPU-tier error but also what killed the faster tiers.
#[derive(Debug, Clone, PartialEq)]
pub struct LadderError<T = BackendTier> {
    /// `(tier, last error on that tier)` in attempt order; never empty.
    pub tier_errors: Vec<(T, SolverError)>,
    /// Total attempts across all tiers.
    pub attempts: usize,
    /// Every retry/degradation/abort decision, in order.
    pub events: Vec<RecoveryEvent<T>>,
}

impl<T> LadderError<T> {
    /// The error that ended the run: the last tier's last error.
    pub fn final_error(&self) -> &SolverError {
        match self.tier_errors.last() {
            Some((_, e)) => e,
            // `tier_errors` is never empty by construction; keep a
            // diagnosable panic rather than unwrap for the impossible arm.
            None => unreachable!("LadderError built without any tier error"),
        }
    }

    /// Delegates to the final error (matches [`SolverError::is_transient`]).
    pub fn is_transient(&self) -> bool {
        self.final_error().is_transient()
    }

    /// Stable class tag of the final error.
    pub fn kind(&self) -> &'static str {
        self.final_error().kind()
    }
}

impl<T: RecoveryTier> fmt::Display for LadderError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "recovery ladder exhausted after {} attempts: ",
            self.attempts
        )?;
        for (i, (tier, e)) in self.tier_errors.iter().enumerate() {
            if i > 0 {
                write!(f, "; ")?;
            }
            write!(f, "{} tier: {e}", tier.name())?;
        }
        Ok(())
    }
}

impl<T: RecoveryTier + fmt::Debug> std::error::Error for LadderError<T> {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(self.final_error())
    }
}

/// Run `attempt` down `ladder` (fastest tier first) under `policy`.
///
/// A failed attempt is retried on the same tier, after
/// `policy.backoff_for(n)` simulated milliseconds, while `retryable` holds
/// for its error and the tier has been tried at most `policy.max_retries`
/// times. Otherwise the driver degrades to the next tier, or aborts when
/// `policy.allow_degradation` is off or no tier is left. Each failed
/// attempt records one [`RecoveryEvent`]; an abort returns the last error
/// seen on every tier tried.
///
/// `attempt` must build its backend afresh from host data, on a device
/// in its just-built state: a new `Gpu`, or one returned to that state by
/// `Gpu::reset`. A failed attempt then leaves nothing the next one can
/// see. When it checkpoints into `ckpt`, retries and degraded attempts
/// resume from the last snapshot, and the outcome reports where.
/// Decisions are traced as `recovery` instants (`retry`, `degrade`,
/// `abort`, `resume`) on `track`.
///
/// # Panics
///
/// If `ladder` is empty.
// An empty ladder is caller misuse: every caller passes a `LADDER` const.
#[allow(clippy::panic)]
pub fn run_with_recovery<T: RecoveryTier, R>(
    ladder: &[T],
    policy: &RecoveryPolicy,
    track: &str,
    ckpt: Option<&CheckpointHandle>,
    retryable: impl Fn(&SolverError) -> bool,
    mut attempt: impl FnMut(T) -> Result<R, SolverError>,
) -> Result<LadderOutcome<T, R>, LadderError<T>> {
    let mut events = Vec::new();
    let mut tier_errors = Vec::new();
    let mut attempts = 0usize;
    let mut retry_backoff_ms = 0.0f64;
    let event = |tier: T, attempt: usize, e: &SolverError, action, backoff_ms| RecoveryEvent {
        tier,
        attempt,
        error_kind: e.kind().to_string(),
        detail: e.to_string(),
        action,
        backoff_ms,
    };
    // Emitted before a retry or degraded attempt that will pick up a
    // snapshot, so the trace shows where the resumed run restarts.
    let trace_resume = |to: T| {
        if !fusedml_trace::is_enabled() {
            return;
        }
        if let Some(snap) = ckpt.and_then(|h| h.latest()) {
            fusedml_trace::instant(
                "recovery",
                "resume",
                track,
                &[
                    ("tier", to.name().into()),
                    ("iteration", snap.iteration().into()),
                    ("solver", snap.solver().into()),
                ],
            );
        }
    };

    for (i, &tier) in ladder.iter().enumerate() {
        let mut tier_attempt = 0usize;
        let error = loop {
            tier_attempt += 1;
            attempts += 1;
            let e = match attempt(tier) {
                Ok(value) => {
                    return Ok(LadderOutcome {
                        tier,
                        attempts,
                        retry_backoff_ms,
                        events,
                        value,
                        resumed_at: ckpt.and_then(|h| h.last_resume()),
                    })
                }
                Err(e) => e,
            };
            if !(retryable(&e) && tier_attempt <= policy.max_retries) {
                break e;
            }
            let backoff = policy.backoff_for(tier_attempt);
            retry_backoff_ms += backoff;
            if fusedml_trace::is_enabled() {
                fusedml_trace::instant(
                    "recovery",
                    "retry",
                    track,
                    &[
                        ("tier", tier.name().into()),
                        ("attempt", tier_attempt.into()),
                        ("error", e.kind().into()),
                        ("backoff_ms", backoff.into()),
                    ],
                );
            }
            events.push(event(
                tier,
                tier_attempt,
                &e,
                RecoveryAction::Retry,
                backoff,
            ));
            trace_resume(tier);
        };

        let next = ladder.get(i + 1).filter(|_| policy.allow_degradation);
        if fusedml_trace::is_enabled() {
            match next {
                Some(next) => fusedml_trace::instant(
                    "recovery",
                    "degrade",
                    track,
                    &[
                        ("from", tier.name().into()),
                        ("to", next.name().into()),
                        ("error", error.kind().into()),
                    ],
                ),
                None => fusedml_trace::instant(
                    "recovery",
                    "abort",
                    track,
                    &[("tier", tier.name().into()), ("error", error.kind().into())],
                ),
            }
        }
        let action = match next {
            Some(_) => RecoveryAction::Degrade,
            None => RecoveryAction::Abort,
        };
        events.push(event(tier, tier_attempt, &error, action, 0.0));
        tier_errors.push((tier, error));
        match next {
            Some(&next) => trace_resume(next),
            None => {
                return Err(LadderError {
                    tier_errors,
                    attempts,
                    events,
                })
            }
        }
    }
    // The last tier always returns, so only an empty ladder gets here.
    panic!("run_with_recovery needs at least one tier")
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusedml_gpu_sim::DeviceError;

    fn transient() -> SolverError {
        SolverError::Device(DeviceError::TransientFault {
            kernel: "csrmv".into(),
            fault_index: 1,
        })
    }

    /// Run the single-device ladder over a scripted sequence of attempt
    /// results, returning the driver's verdict and the tiers attempted.
    fn scripted(
        policy: &RecoveryPolicy,
        script: Vec<Result<u32, SolverError>>,
    ) -> (
        Result<LadderOutcome<BackendTier, u32>, LadderError>,
        Vec<BackendTier>,
    ) {
        let mut script = script.into_iter();
        let mut tiers = Vec::new();
        let run = run_with_recovery(
            &BackendTier::LADDER,
            policy,
            "host",
            None,
            SolverError::is_transient,
            |tier| {
                tiers.push(tier);
                script
                    .next()
                    .expect("the driver attempted more than scripted")
            },
        );
        (run, tiers)
    }

    #[test]
    fn ladder_order_and_names() {
        use BackendTier::*;
        assert_eq!(BackendTier::LADDER, [Fused, Baseline, Cpu]);
        assert_eq!(Fused.name(), "fused");
    }

    #[test]
    fn backoff_grows_exponentially() {
        let p = RecoveryPolicy::default();
        assert_eq!(p.backoff_for(1), 5.0);
        assert_eq!(p.backoff_for(2), 10.0);
        assert_eq!(p.backoff_for(3), 20.0);
    }

    #[test]
    fn driver_retries_transients_then_degrades() {
        use BackendTier::*;
        use RecoveryAction::*;
        let breakdown = SolverError::breakdown("lr_cg", 2, "nr2 is NaN");
        // Fused: three transients exhaust max_retries = 2; Baseline: a
        // breakdown is not retryable; Cpu completes.
        let script = vec![
            Err(transient()),
            Err(transient()),
            Err(transient()),
            Err(breakdown),
            Ok(7),
        ];
        let (run, tiers) = scripted(&RecoveryPolicy::default(), script);
        let out = run.unwrap();
        assert_eq!(tiers, [Fused, Fused, Fused, Baseline, Cpu]);
        assert_eq!((out.tier, out.attempts, out.value), (Cpu, 5, 7));
        assert_eq!(out.retry_backoff_ms, 15.0);
        let trail: Vec<_> = out
            .events
            .iter()
            .map(|e| (e.tier, e.attempt, e.action))
            .collect();
        assert_eq!(
            trail,
            [
                (Fused, 1, Retry),
                (Fused, 2, Retry),
                (Fused, 3, Degrade),
                (Baseline, 1, Degrade)
            ]
        );
        assert_eq!(out.events[3].error_kind, "numerical-breakdown");
    }

    #[test]
    fn driver_aborts_with_the_last_error_of_every_tier_tried() {
        use BackendTier::*;
        let no_degrade = RecoveryPolicy {
            max_retries: 1,
            allow_degradation: false,
            ..RecoveryPolicy::default()
        };
        let (run, tiers) = scripted(&no_degrade, vec![Err(transient()), Err(transient())]);
        let err = run.unwrap_err();
        assert_eq!(tiers, [Fused, Fused]);
        assert_eq!(err.attempts, 2);
        assert_eq!(err.tier_errors.len(), 1);
        assert_eq!(err.events.last().unwrap().action, RecoveryAction::Abort);

        let broken = |tier| Err(SolverError::breakdown("lr_cg", 0, tier));
        let script = vec![broken("fused"), broken("baseline"), broken("cpu")];
        let (run, _) = scripted(&RecoveryPolicy::default(), script);
        let err = run.unwrap_err();
        let tried: Vec<_> = err.tier_errors.iter().map(|(t, _)| *t).collect();
        assert_eq!(tried, BackendTier::LADDER);
        assert!(err.final_error().to_string().contains("cpu"));
        assert_eq!(err.events.len(), 3);
    }
}
