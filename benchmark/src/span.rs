//! In-memory spans recorded around the benchmark's own calls into each
//! layer (the library's `fusedml_trace` stays disabled).
//!
//! A span is a guard: [`span`] opens it and dropping it closes it, so spans
//! nest exactly like the calls they wrap, and a panic unwinding through a
//! call still closes its span. The recorder is thread-local: the benchmark
//! drives every layer from one host thread, and tests running on parallel
//! threads never see each other's spans.

use fusedml_bench::regress::json::Json;
use std::cell::RefCell;
use std::time::Instant;

/// One closed (or still open) span.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// The layer the wrapped call belongs to (`core`, `ml.backend`, ...).
    pub layer: &'static str,
    pub name: &'static str,
    /// Nanoseconds since the recorder started.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The timed op the span belongs to (`None` during set-up).
    pub op: Option<u64>,
}

impl SpanRecord {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

struct Recorder {
    origin: Instant,
    enabled: bool,
    op: Option<u64>,
    spans: Vec<SpanRecord>,
    open: Vec<usize>,
}

thread_local! {
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder {
        origin: Instant::now(),
        enabled: false,
        op: None,
        spans: Vec::new(),
        open: Vec::new(),
    });
}

/// Guard of an open span; records nothing while recording is off.
#[must_use = "a span closes when the guard drops"]
pub struct Span(Option<usize>);

/// Open a span around a call into `layer`.
pub fn span(layer: &'static str, name: &'static str) -> Span {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        if !r.enabled {
            return Span(None);
        }
        let idx = r.spans.len();
        let now = r.origin.elapsed().as_nanos() as u64;
        let parent = r.open.last().copied();
        let op = r.op;
        r.spans.push(SpanRecord {
            layer,
            name,
            start_ns: now,
            end_ns: now,
            parent,
            op,
        });
        r.open.push(idx);
        Span(Some(idx))
    })
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(idx) = self.0 else { return };
        RECORDER.with(|r| {
            if let Ok(mut r) = r.try_borrow_mut() {
                let now = r.origin.elapsed().as_nanos() as u64;
                if let Some(s) = r.spans.get_mut(idx) {
                    s.end_ns = now;
                }
                while let Some(top) = r.open.pop() {
                    if top == idx {
                        break;
                    }
                }
            }
        });
    }
}

/// Turn recording on or off for the spans opened from now on.
pub fn set_enabled(enabled: bool) {
    RECORDER.with(|r| r.borrow_mut().enabled = enabled);
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    RECORDER.with(|r| r.borrow().enabled)
}

/// Tag the spans opened from now on with a timed op id.
pub fn set_op(op: Option<u64>) {
    RECORDER.with(|r| r.borrow_mut().op = op);
}

/// Stop recording and hand over every span recorded so far.
pub fn take() -> Vec<SpanRecord> {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        r.enabled = false;
        r.op = None;
        r.open.clear();
        std::mem::take(&mut r.spans)
    })
}

/// Self time of every span: its duration minus the part its child spans
/// cover (children of one span never overlap, so their durations add).
pub fn self_times_ns(spans: &[SpanRecord]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(SpanRecord::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.duration_ns());
        }
    }
    own
}

/// The spans as a Chrome trace (`chrome://tracing`, Perfetto): one
/// complete event per span, microsecond timestamps.
pub fn chrome_trace(spans: &[SpanRecord]) -> Json {
    let events = spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let mut args = vec![("span", Json::u64(i as u64))];
            if let Some(p) = s.parent {
                args.push(("parent", Json::u64(p as u64)));
            }
            if let Some(op) = s.op {
                args.push(("op", Json::u64(op)));
            }
            Json::obj(vec![
                ("name", Json::str(s.name)),
                ("cat", Json::str(s.layer)),
                ("ph", Json::str("X")),
                ("ts", Json::num(s.start_ns as f64 / 1e3)),
                ("dur", Json::num(s.duration_ns() as f64 / 1e3)),
                ("pid", Json::u64(1)),
                ("tid", Json::u64(1)),
                ("args", Json::obj(args)),
            ])
        })
        .collect();
    Json::obj(vec![
        ("displayTimeUnit", Json::str("ms")),
        ("traceEvents", Json::Arr(events)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        take();
        set_enabled(true);
        {
            let _outer = span("bench", "outer");
            std::thread::sleep(std::time::Duration::from_millis(2));
            set_op(Some(7));
            {
                let _inner = span("core", "inner");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
        set_op(None);
        let spans = take();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].op, Some(7));
        let own = self_times_ns(&spans);
        assert_eq!(own[0] + own[1], spans[0].duration_ns());
        assert!(own[1] >= 2_000_000);
        // Recording is off after `take`.
        drop(span("bench", "ignored"));
        assert!(take().is_empty());
        let trace = chrome_trace(&spans);
        assert_eq!(Json::parse(&trace.render()).ok(), Some(trace));
    }
}
