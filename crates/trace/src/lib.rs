//! # fusedml-trace
//!
//! A zero-dependency structured tracing layer for the whole workspace:
//! every crate (simulator, fused kernels, solvers, runtime) records spans
//! and instant events into one process-wide collector, and the bench CLI
//! exports the result as a Chrome trace-event file plus a flat metrics
//! summary.
//!
//! Design constraints, in order:
//!
//! 1. **Off by default, near-zero overhead when off.** Every recording
//!    entry point starts with one relaxed atomic load; nothing is
//!    allocated, formatted or locked unless tracing was explicitly
//!    enabled. The perf-regression gate runs with tracing compiled in but
//!    disabled, so this is load-bearing.
//! 2. **Two clock domains.** The simulator models kernel and transfer
//!    time in *simulated* milliseconds with no global clock; the host
//!    (solver loops, session phases) runs in *wall* time. Simulated spans
//!    carry a per-track cursor (`sim_span`) so each device track renders
//!    as a contiguous timeline; wall spans measure real elapsed time
//!    against a process-wide origin.
//! 3. **Zero dependencies.** `std` only — the collector must work in the
//!    offline build environments where third-party crates are stubbed.
//!
//! ```
//! fusedml_trace::enable();
//! {
//!     let mut span = fusedml_trace::wall_span("solver", "iter", "host");
//!     span.arg("nr2", 0.25);
//! } // span recorded on drop
//! fusedml_trace::sim_span("kernel", "spmv", "device", 1.5, &[("grid", 28u64.into())]);
//! let events = fusedml_trace::take();
//! fusedml_trace::disable();
//! assert_eq!(events.len(), 2);
//! ```

// The collector must never take down the traced process; lock recovery
// and fallbacks are explicit, so bare unwrap/expect/panic! stay test-only.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic))]

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Which clock a [`TraceEvent`]'s timestamps belong to. Wall and simulated
/// timelines are not comparable; the exporter places them on separate
/// process tracks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClockDomain {
    /// Host wall time relative to the process trace origin.
    Wall,
    /// Simulated device time; per-track cursor, starts at 0.
    Sim,
}

/// Span (has a duration), instant (a point marker), or a flow edge
/// (Chrome `s`/`t`/`f` arrows linking causally-related spans across
/// tracks — a solver iteration to the chunk transfers and kernels it
/// triggered). Flow events carry the shared arrow id in
/// [`TraceEvent::flow_id`] and bind to the span enclosing their
/// timestamp on their track.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    Span,
    Instant,
    /// Start of a flow arrow (`"ph": "s"`).
    FlowStart,
    /// Intermediate hop of a flow arrow (`"ph": "t"`).
    FlowStep,
    /// End of a flow arrow (`"ph": "f"`).
    FlowEnd,
}

/// A typed event argument value (rendered into the Chrome `args` object).
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    F64(f64),
    U64(u64),
    Str(String),
    Bool(bool),
}

impl From<f64> for ArgValue {
    fn from(x: f64) -> Self {
        ArgValue::F64(x)
    }
}
impl From<u64> for ArgValue {
    fn from(x: u64) -> Self {
        ArgValue::U64(x)
    }
}
impl From<u32> for ArgValue {
    fn from(x: u32) -> Self {
        ArgValue::U64(x as u64)
    }
}
impl From<usize> for ArgValue {
    fn from(x: usize) -> Self {
        ArgValue::U64(x as u64)
    }
}
impl From<bool> for ArgValue {
    fn from(x: bool) -> Self {
        ArgValue::Bool(x)
    }
}
impl From<&str> for ArgValue {
    fn from(x: &str) -> Self {
        ArgValue::Str(x.to_string())
    }
}
impl From<String> for ArgValue {
    fn from(x: String) -> Self {
        ArgValue::Str(x)
    }
}

/// One recorded event. Timestamps and durations are microseconds within
/// the event's [`ClockDomain`].
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Category: the layer that recorded it (`"kernel"`, `"plan"`,
    /// `"solver"`, `"session"`, `"mem"`, `"stream"`, `"recovery"`,
    /// `"fault"`).
    pub cat: String,
    /// Event name within the category.
    pub name: String,
    /// Timeline the event renders on (Chrome thread). Events sharing a
    /// track are laid out sequentially.
    pub track: String,
    pub clock: ClockDomain,
    pub kind: EventKind,
    /// Start timestamp in microseconds (domain-relative).
    pub ts_us: f64,
    /// Duration in microseconds; 0 for instants.
    pub dur_us: f64,
    /// Arrow id shared by the flow events of one causal chain; 0 for
    /// spans and instants.
    pub flow_id: u64,
    pub args: Vec<(String, ArgValue)>,
}

/// Hard cap on buffered events; recording beyond it increments
/// [`dropped_events`] instead of growing without bound.
pub const MAX_EVENTS: usize = 1 << 20;

struct State {
    events: Vec<TraceEvent>,
    /// Next free timestamp (µs) per simulated track.
    sim_cursor_us: HashMap<String, f64>,
    dropped: u64,
}

impl State {
    fn new() -> Self {
        State {
            events: Vec::new(),
            sim_cursor_us: HashMap::new(),
            dropped: 0,
        }
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);

fn state() -> &'static Mutex<State> {
    static STATE: OnceLock<Mutex<State>> = OnceLock::new();
    STATE.get_or_init(|| Mutex::new(State::new()))
}

/// Process-wide wall-clock origin; all wall timestamps are relative to the
/// first call of any trace entry point.
fn origin() -> Instant {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    *ORIGIN.get_or_init(Instant::now)
}

fn wall_now_us() -> f64 {
    origin().elapsed().as_secs_f64() * 1e6
}

fn push(event: TraceEvent) {
    let mut s = state().lock().unwrap_or_else(|e| e.into_inner());
    if s.events.len() < MAX_EVENTS {
        s.events.push(event);
    } else {
        s.dropped += 1;
    }
}

/// Turn the collector on, clearing any previously buffered events and
/// resetting the simulated-time cursors.
pub fn enable() {
    {
        let mut s = state().lock().unwrap_or_else(|e| e.into_inner());
        *s = State::new();
    }
    origin(); // pin the wall origin before the first recorded event
    ENABLED.store(true, Ordering::SeqCst);
}

/// Turn the collector off. Buffered events stay until [`take`] or the
/// next [`enable`].
pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
}

/// The one check every instrumentation site performs first. A relaxed
/// load: when tracing is off this is the entire cost.
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Drain and return all buffered events, oldest first.
pub fn take() -> Vec<TraceEvent> {
    let mut s = state().lock().unwrap_or_else(|e| e.into_inner());
    std::mem::take(&mut s.events)
}

/// Events discarded because the buffer hit [`MAX_EVENTS`].
pub fn dropped_events() -> u64 {
    state().lock().unwrap_or_else(|e| e.into_inner()).dropped
}

/// Record a wall-clock instant (a point marker on `track`).
pub fn instant(cat: &str, name: &str, track: &str, args: &[(&str, ArgValue)]) {
    if !is_enabled() {
        return;
    }
    push(TraceEvent {
        cat: cat.to_string(),
        name: name.to_string(),
        track: track.to_string(),
        clock: ClockDomain::Wall,
        kind: EventKind::Instant,
        ts_us: wall_now_us(),
        dur_us: 0.0,
        flow_id: 0,
        args: args
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect(),
    });
}

/// Record the start of a flow arrow on a wall-clock track at the current
/// wall time — call it from inside the span (e.g. a solver iteration)
/// the arrow should originate from; Chrome binds the `s` event to the
/// span enclosing its timestamp.
pub fn wall_flow_start(cat: &str, name: &str, track: &str, id: u64) {
    if !is_enabled() {
        return;
    }
    push(TraceEvent {
        cat: cat.to_string(),
        name: name.to_string(),
        track: track.to_string(),
        clock: ClockDomain::Wall,
        kind: EventKind::FlowStart,
        ts_us: wall_now_us(),
        dur_us: 0.0,
        flow_id: id,
        args: Vec::new(),
    });
}

/// Record a flow hop (`FlowStep`) or terminus (`FlowEnd`) on a
/// simulated-time track at the track's *current cursor* — i.e. at the
/// start of the next [`sim_span`] recorded on that track. Call it
/// immediately before the span the arrow should attach to.
fn sim_flow(cat: &str, name: &str, track: &str, id: u64, kind: EventKind) {
    if !is_enabled() {
        return;
    }
    let ts_us = {
        let mut s = state().lock().unwrap_or_else(|e| e.into_inner());
        *s.sim_cursor_us.entry(track.to_string()).or_insert(0.0)
    };
    push(TraceEvent {
        cat: cat.to_string(),
        name: name.to_string(),
        track: track.to_string(),
        clock: ClockDomain::Sim,
        kind,
        ts_us,
        dur_us: 0.0,
        flow_id: id,
        args: Vec::new(),
    });
}

/// Flow hop on a simulated track (binds to the next [`sim_span`] there).
pub fn sim_flow_step(cat: &str, name: &str, track: &str, id: u64) {
    sim_flow(cat, name, track, id, EventKind::FlowStep);
}

/// Flow terminus on a simulated track (binds to the next [`sim_span`]
/// there).
pub fn sim_flow_end(cat: &str, name: &str, track: &str, id: u64) {
    sim_flow(cat, name, track, id, EventKind::FlowEnd);
}

/// Record a simulated-time span of `dur_ms` on `track`. The span starts
/// at the track's cursor and advances it, so successive simulated events
/// on one track form a contiguous timeline (the simulator has no global
/// clock — only per-operation durations).
pub fn sim_span(cat: &str, name: &str, track: &str, dur_ms: f64, args: &[(&str, ArgValue)]) {
    if !is_enabled() {
        return;
    }
    let dur_us = (dur_ms * 1e3).max(0.0);
    let ts_us = {
        let mut s = state().lock().unwrap_or_else(|e| e.into_inner());
        let cursor = s.sim_cursor_us.entry(track.to_string()).or_insert(0.0);
        let ts = *cursor;
        *cursor += dur_us;
        ts
    };
    push(TraceEvent {
        cat: cat.to_string(),
        name: name.to_string(),
        track: track.to_string(),
        clock: ClockDomain::Sim,
        kind: EventKind::Span,
        ts_us,
        dur_us,
        flow_id: 0,
        args: args
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect(),
    });
}

/// Open a wall-clock span; it records itself when dropped. When tracing
/// is disabled the guard is inert (no allocation beyond the struct).
pub fn wall_span(cat: &str, name: &str, track: &str) -> SpanGuard {
    if !is_enabled() {
        return SpanGuard {
            meta: None,
            start_us: 0.0,
            args: Vec::new(),
        };
    }
    SpanGuard {
        meta: Some((cat.to_string(), name.to_string(), track.to_string())),
        start_us: wall_now_us(),
        args: Vec::new(),
    }
}

/// RAII guard for a wall-clock span (see [`wall_span`]).
pub struct SpanGuard {
    /// `(cat, name, track)`; `None` when tracing was off at creation.
    meta: Option<(String, String, String)>,
    start_us: f64,
    args: Vec<(String, ArgValue)>,
}

impl SpanGuard {
    /// Attach an argument to the span (shown in the Chrome `args` pane).
    pub fn arg(&mut self, key: &str, value: impl Into<ArgValue>) {
        if self.meta.is_some() {
            self.args.push((key.to_string(), value.into()));
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some((cat, name, track)) = self.meta.take() else {
            return;
        };
        let end_us = wall_now_us();
        push(TraceEvent {
            cat,
            name,
            track,
            clock: ClockDomain::Wall,
            kind: EventKind::Span,
            ts_us: self.start_us,
            dur_us: (end_us - self.start_us).max(0.0),
            flow_id: 0,
            args: std::mem::take(&mut self.args),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The collector is process-global; tests touching it must not
    /// interleave.
    fn lock_collector() -> std::sync::MutexGuard<'static, ()> {
        static GUARD: OnceLock<Mutex<()>> = OnceLock::new();
        GUARD
            .get_or_init(|| Mutex::new(()))
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_records_nothing() {
        let _g = lock_collector();
        enable();
        disable();
        instant("cat", "x", "host", &[]);
        sim_span("cat", "k", "device", 1.0, &[]);
        {
            let mut s = wall_span("cat", "s", "host");
            s.arg("a", 1u64);
        }
        assert!(take().is_empty());
    }

    #[test]
    fn sim_cursor_advances_per_track() {
        let _g = lock_collector();
        enable();
        sim_span("kernel", "a", "device", 2.0, &[]);
        sim_span("kernel", "b", "device", 3.0, &[]);
        sim_span("mem", "t", "pcie", 5.0, &[]);
        disable();
        let ev = take();
        assert_eq!(ev.len(), 3);
        assert_eq!(ev[0].ts_us, 0.0);
        assert_eq!(ev[0].dur_us, 2000.0);
        assert_eq!(ev[1].ts_us, 2000.0); // contiguous on "device"
        assert_eq!(ev[2].ts_us, 0.0); // fresh cursor on "pcie"
        assert_eq!(ev[2].clock, ClockDomain::Sim);
    }

    #[test]
    fn wall_span_measures_and_carries_args() {
        let _g = lock_collector();
        enable();
        {
            let mut s = wall_span("solver", "iter", "host");
            s.arg("iter", 3u64);
            s.arg("nr2", 0.5);
            s.arg("tag", "cg");
            s.arg("ok", true);
        }
        disable();
        let ev = take();
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].kind, EventKind::Span);
        assert_eq!(ev[0].clock, ClockDomain::Wall);
        assert!(ev[0].dur_us >= 0.0);
        assert_eq!(ev[0].args.len(), 4);
        assert_eq!(ev[0].args[0], ("iter".to_string(), ArgValue::U64(3)));
        assert_eq!(ev[0].args[1], ("nr2".to_string(), ArgValue::F64(0.5)));
    }

    #[test]
    fn enable_clears_previous_buffer_and_cursors() {
        let _g = lock_collector();
        enable();
        sim_span("kernel", "a", "device", 4.0, &[]);
        enable(); // re-enable clears
        sim_span("kernel", "b", "device", 1.0, &[]);
        disable();
        let ev = take();
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].name, "b");
        assert_eq!(ev[0].ts_us, 0.0); // cursor was reset
    }

    #[test]
    fn flows_bind_to_span_starts_without_advancing_cursors() {
        let _g = lock_collector();
        enable();
        wall_flow_start("stream", "iter.flow", "host", 7);
        sim_flow_step("stream", "iter.flow", "pcie", 7);
        sim_span("stream", "chunk.h2d", "pcie", 2.0, &[]);
        sim_flow_end("stream", "iter.flow", "device", 7);
        sim_span("kernel", "fused_sparse_shard", "device", 1.0, &[]);
        disable();
        let ev = take();
        assert_eq!(ev.len(), 5);
        assert_eq!(ev[0].kind, EventKind::FlowStart);
        assert_eq!(ev[0].clock, ClockDomain::Wall);
        assert_eq!(ev[0].flow_id, 7);
        // The pcie flow step sits exactly at the h2d span's start and did
        // not advance the cursor.
        assert_eq!(ev[1].kind, EventKind::FlowStep);
        assert_eq!(ev[1].ts_us, ev[2].ts_us);
        assert_eq!(ev[2].kind, EventKind::Span);
        assert_eq!(ev[2].ts_us, 0.0);
        // Same on the device track.
        assert_eq!(ev[3].kind, EventKind::FlowEnd);
        assert_eq!(ev[3].ts_us, ev[4].ts_us);
        assert_eq!(ev[4].flow_id, 0, "spans carry no flow id");
    }

    #[test]
    fn disabled_flows_record_nothing() {
        let _g = lock_collector();
        enable();
        disable();
        wall_flow_start("stream", "f", "host", 1);
        sim_flow_step("stream", "f", "pcie", 1);
        sim_flow_end("stream", "f", "device", 1);
        assert!(take().is_empty());
    }

    #[test]
    fn instants_have_zero_duration() {
        let _g = lock_collector();
        enable();
        instant("fault", "transient", "device", &[("draw", 7u64.into())]);
        disable();
        let ev = take();
        assert_eq!(ev[0].kind, EventKind::Instant);
        assert_eq!(ev[0].dur_us, 0.0);
    }
}
