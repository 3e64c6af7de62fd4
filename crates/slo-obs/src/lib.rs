//! # slo-obs — observability substrate for the SLO workspace
//!
//! Lock-free span/event recording shared by the pipeline
//! (`slo::pipeline`), the execution substrate (`slo-vm`) and the batch
//! service (`slo-service`), exportable as Chrome `trace_event` JSON
//! (loadable in `chrome://tracing` or [Perfetto](https://ui.perfetto.dev)).
//!
//! Design constraints, in order:
//!
//! 1. **Zero cost when disabled.** A [`Recorder`] is either *enabled*
//!    (it owns a buffer) or *disabled* (the no-op recorder: a `None`
//!    inside). Every recording entry point starts with an
//!    `is_enabled()` check that compiles to one branch on an `Option`
//!    discriminant — the decoded VM hot loop stays within noise of the
//!    untraced baseline (asserted by the `interp_hot_loop` bench).
//! 2. **Lock-free when enabled.** Events land in a bounded
//!    slot array: a writer claims an index with one atomic
//!    `fetch_add` and initializes its private slot — no mutex, no
//!    contention between worker threads beyond the shared counter.
//! 3. **Bounded.** The buffer never grows; once full, events are
//!    counted in [`Recorder::dropped`] instead of stored, so tracing a
//!    100M-instruction VM run (sampled) or a huge batch stays bounded.
//!
//! The [`conform`] module is the other half of the contract: a
//! golden-schema checker for the emitted Chrome trace (every event has
//! `ph`/`ts`/`dur`/`name`, spans nest properly per thread) and a
//! line-by-line validator for the Prometheus exposition format the
//! service exports.
//!
//! The [`json`] module is the workspace's one JSON value, parser and
//! string/number writer, shared by the trace exporter and checker, the
//! service's wire protocol, and the bench trajectory file.
//!
//! # Examples
//!
//! ```
//! use slo_obs::Recorder;
//!
//! let rec = Recorder::enabled();
//! {
//!     let mut span = rec.span("pipeline", "legality");
//!     span.arg("types", 3i64);
//!     // ... the work being measured ...
//! } // span recorded on drop
//! rec.counter("vm", "vm.instructions", 1234.0);
//! assert_eq!(rec.len(), 2);
//! let json = rec.to_chrome_json();
//! slo_obs::conform::check_chrome_trace(&json).expect("schema-valid");
//!
//! // the no-op recorder records nothing, by construction
//! let off = Recorder::disabled();
//! off.span("pipeline", "legality");
//! assert_eq!(off.len(), 0);
//! ```

#![warn(missing_docs)]

pub mod chrome;
pub mod conform;
pub mod json;

use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Default event-buffer capacity of [`Recorder::enabled`].
pub const DEFAULT_CAPACITY: usize = 1 << 16;

/// A typed argument value attached to an event (`args` in the Chrome
/// trace format).
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    /// An integer.
    Int(i64),
    /// A float.
    Float(f64),
    /// A string.
    Str(String),
    /// A boolean.
    Bool(bool),
}

impl From<i64> for ArgValue {
    fn from(v: i64) -> Self {
        ArgValue::Int(v)
    }
}

impl From<u64> for ArgValue {
    fn from(v: u64) -> Self {
        // Counters in this workspace stay far below 2^63; saturate
        // rather than wrap if one ever does not.
        ArgValue::Int(i64::try_from(v).unwrap_or(i64::MAX))
    }
}

impl From<usize> for ArgValue {
    fn from(v: usize) -> Self {
        ArgValue::Int(i64::try_from(v).unwrap_or(i64::MAX))
    }
}

impl From<f64> for ArgValue {
    fn from(v: f64) -> Self {
        ArgValue::Float(v)
    }
}

impl From<bool> for ArgValue {
    fn from(v: bool) -> Self {
        ArgValue::Bool(v)
    }
}

impl From<&str> for ArgValue {
    fn from(v: &str) -> Self {
        ArgValue::Str(v.to_string())
    }
}

impl From<String> for ArgValue {
    fn from(v: String) -> Self {
        ArgValue::Str(v)
    }
}

/// What kind of Chrome trace event a [`TraceEvent`] serializes to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A complete span (`ph: "X"`, has a duration).
    Complete,
    /// A point-in-time instant (`ph: "i"`).
    Instant,
    /// A counter sample (`ph: "C"`, value in `args`).
    Counter,
}

impl EventKind {
    /// The Chrome `ph` (phase) letter.
    pub fn ph(self) -> char {
        match self {
            EventKind::Complete => 'X',
            EventKind::Instant => 'i',
            EventKind::Counter => 'C',
        }
    }
}

/// One recorded event. Timestamps are microseconds since the owning
/// [`Recorder`] was created (the Chrome format's expected unit).
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Event kind (complete span / instant / counter).
    pub kind: EventKind,
    /// Event name (span names are the pipeline phase anchors).
    pub name: String,
    /// Category (`pipeline` / `vm` / `service`).
    pub cat: &'static str,
    /// Start timestamp in microseconds since recorder creation.
    pub ts_us: u64,
    /// Duration in microseconds (0 for instants and counters).
    pub dur_us: u64,
    /// Dense per-process thread id (assigned on first use per thread).
    pub tid: u64,
    /// Key/value arguments.
    pub args: Vec<(&'static str, ArgValue)>,
}

/// The enabled recorder's shared state.
struct Inner {
    start: Instant,
    slots: Box<[OnceLock<TraceEvent>]>,
    next: AtomicUsize,
    dropped: AtomicU64,
}

/// A cheaply cloneable span/event recorder.
///
/// `Recorder::disabled()` (also the `Default`) is the no-op recorder:
/// every method is a branch-and-return. `Recorder::enabled()` buffers
/// events lock-free up to a fixed capacity. Clones share the same
/// buffer, so one recorder can be threaded through the CLI, the
/// pipeline, the service workers and the VM of a single request.
#[derive(Clone, Default)]
pub struct Recorder {
    inner: Option<Arc<Inner>>,
}

impl fmt::Debug for Recorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.inner {
            None => f.write_str("Recorder(disabled)"),
            Some(i) => write!(
                f,
                "Recorder(enabled, {} events, {} dropped)",
                i.next.load(Ordering::Relaxed).min(i.slots.len()),
                i.dropped.load(Ordering::Relaxed)
            ),
        }
    }
}

/// Dense thread id: the first event a thread records assigns it the
/// next integer. (`std::thread::ThreadId` has no stable numeric form.)
fn current_tid() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static TID: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    TID.with(|t| *t)
}

impl Recorder {
    /// The no-op recorder: records nothing, costs one branch per call.
    pub fn disabled() -> Recorder {
        Recorder { inner: None }
    }

    /// An enabled recorder with the default buffer capacity
    /// ([`DEFAULT_CAPACITY`] events).
    pub fn enabled() -> Recorder {
        Recorder::with_capacity(DEFAULT_CAPACITY)
    }

    /// An enabled recorder buffering at most `capacity` events; later
    /// events are counted in [`Recorder::dropped`] instead of stored.
    pub fn with_capacity(capacity: usize) -> Recorder {
        let slots: Box<[OnceLock<TraceEvent>]> =
            (0..capacity.max(1)).map(|_| OnceLock::new()).collect();
        Recorder {
            inner: Some(Arc::new(Inner {
                start: Instant::now(),
                slots,
                next: AtomicUsize::new(0),
                dropped: AtomicU64::new(0),
            })),
        }
    }

    /// Whether events are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Microseconds since this recorder was created (0 when disabled).
    pub fn now_us(&self) -> u64 {
        match &self.inner {
            Some(i) => i.start.elapsed().as_micros() as u64,
            None => 0,
        }
    }

    fn push(&self, ev: TraceEvent) {
        let Some(inner) = &self.inner else { return };
        let idx = inner.next.fetch_add(1, Ordering::Relaxed);
        match inner.slots.get(idx) {
            // This thread owns slot `idx` exclusively (fetch_add hands
            // each index out once), so `set` never contends.
            Some(slot) => {
                let _ = slot.set(ev);
            }
            None => {
                inner.dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Record a complete span with explicit timestamps (low-level; most
    /// callers use [`Recorder::span`]).
    pub fn complete(
        &self,
        cat: &'static str,
        name: impl Into<String>,
        ts_us: u64,
        dur_us: u64,
        args: Vec<(&'static str, ArgValue)>,
    ) {
        if !self.is_enabled() {
            return;
        }
        self.push(TraceEvent {
            kind: EventKind::Complete,
            name: name.into(),
            cat,
            ts_us,
            dur_us,
            tid: current_tid(),
            args,
        });
    }

    /// Record an instant event.
    pub fn instant(
        &self,
        cat: &'static str,
        name: impl Into<String>,
        args: Vec<(&'static str, ArgValue)>,
    ) {
        if !self.is_enabled() {
            return;
        }
        self.push(TraceEvent {
            kind: EventKind::Instant,
            name: name.into(),
            cat,
            ts_us: self.now_us(),
            dur_us: 0,
            tid: current_tid(),
            args,
        });
    }

    /// Record a counter sample (`ph: "C"`, plotted as a track by
    /// Perfetto).
    pub fn counter(&self, cat: &'static str, name: impl Into<String>, value: f64) {
        if !self.is_enabled() {
            return;
        }
        self.push(TraceEvent {
            kind: EventKind::Counter,
            name: name.into(),
            cat,
            ts_us: self.now_us(),
            dur_us: 0,
            tid: current_tid(),
            args: vec![("value", ArgValue::Float(value))],
        });
    }

    /// Open a span; it is recorded as a complete event when the guard
    /// drops (or [`SpanGuard::done`] is called). Guards are
    /// stack-scoped, so spans on one thread always nest properly.
    pub fn span(&self, cat: &'static str, name: impl Into<String>) -> SpanGuard<'_> {
        SpanGuard {
            rec: self,
            name: self.is_enabled().then(|| name.into()),
            cat,
            ts_us: self.now_us(),
            args: Vec::new(),
        }
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        match &self.inner {
            Some(i) => i.next.load(Ordering::Relaxed).min(i.slots.len()),
            None => 0,
        }
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events that arrived after the buffer filled up.
    pub fn dropped(&self) -> u64 {
        match &self.inner {
            Some(i) => i.dropped.load(Ordering::Relaxed),
            None => 0,
        }
    }

    /// A snapshot of the buffered events, in claim order. Slots claimed
    /// by a thread that has not finished initializing them yet are
    /// skipped (a benign race: the snapshot is a point-in-time read).
    pub fn events(&self) -> Vec<TraceEvent> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        let n = inner.next.load(Ordering::Relaxed).min(inner.slots.len());
        inner.slots[..n]
            .iter()
            .filter_map(|s| s.get().cloned())
            .collect()
    }

    /// Serialize the buffered events as Chrome `trace_event` JSON (see
    /// [`chrome::to_chrome_json`]).
    pub fn to_chrome_json(&self) -> String {
        chrome::to_chrome_json(&self.events(), self.dropped())
    }
}

/// An open span; records a complete event when dropped. Obtained from
/// [`Recorder::span`].
#[must_use = "a span measures the scope it lives in; bind it with `let`"]
pub struct SpanGuard<'r> {
    rec: &'r Recorder,
    /// `None` when the recorder is disabled — drop is then a no-op.
    name: Option<String>,
    cat: &'static str,
    ts_us: u64,
    args: Vec<(&'static str, ArgValue)>,
}

impl SpanGuard<'_> {
    /// Attach an argument (shown under the span in the trace viewer).
    pub fn arg(&mut self, key: &'static str, value: impl Into<ArgValue>) {
        if self.name.is_some() {
            self.args.push((key, value.into()));
        }
    }

    /// Close the span now (equivalent to dropping it).
    pub fn done(self) {}
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(name) = self.name.take() {
            let dur = self.rec.now_us().saturating_sub(self.ts_us);
            self.rec.complete(
                self.cat,
                name,
                self.ts_us,
                dur,
                std::mem::take(&mut self.args),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_records_nothing() {
        let r = Recorder::disabled();
        assert!(!r.is_enabled());
        {
            let mut s = r.span("pipeline", "legality");
            s.arg("k", 1i64);
        }
        r.counter("vm", "c", 1.0);
        r.instant("vm", "i", vec![]);
        assert_eq!(r.len(), 0);
        assert!(r.is_empty());
        assert!(r.events().is_empty());
        assert_eq!(r.dropped(), 0);
    }

    #[test]
    fn spans_record_on_drop_with_args() {
        let r = Recorder::enabled();
        {
            let mut s = r.span("pipeline", "plan");
            s.arg("types", 2i64);
            s.arg("scheme", "ISPBO");
        }
        let evs = r.events();
        assert_eq!(evs.len(), 1);
        let e = &evs[0];
        assert_eq!(e.kind, EventKind::Complete);
        assert_eq!(e.name, "plan");
        assert_eq!(e.cat, "pipeline");
        assert_eq!(e.args.len(), 2);
    }

    #[test]
    fn buffer_is_bounded_and_counts_drops() {
        let r = Recorder::with_capacity(4);
        for i in 0..10 {
            r.counter("vm", format!("c{i}"), i as f64);
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.dropped(), 6);
        assert_eq!(r.events().len(), 4);
    }

    #[test]
    fn concurrent_writers_lose_no_events_under_capacity() {
        let r = Recorder::with_capacity(4096);
        std::thread::scope(|s| {
            for t in 0..8 {
                let r = r.clone();
                s.spawn(move || {
                    for i in 0..100 {
                        r.counter("vm", format!("t{t}.{i}"), i as f64);
                    }
                });
            }
        });
        assert_eq!(r.len(), 800);
        assert_eq!(r.dropped(), 0);
        assert_eq!(r.events().len(), 800);
    }

    #[test]
    fn timestamps_are_monotone_per_thread() {
        let r = Recorder::enabled();
        let outer = r.span("pipeline", "outer");
        {
            let _inner = r.span("pipeline", "inner");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        drop(outer);
        let evs = r.events();
        // inner drops first, so it is recorded first
        let inner = evs.iter().find(|e| e.name == "inner").expect("inner");
        let outer = evs.iter().find(|e| e.name == "outer").expect("outer");
        assert!(inner.ts_us >= outer.ts_us);
        assert!(inner.ts_us + inner.dur_us <= outer.ts_us + outer.dur_us);
    }
}
