//! Zero-dependency observability for the ibis engine.
//!
//! Three pieces, all process-global and all free when disabled:
//!
//! * **Spans** — [`span()`] / [`span!`] return an RAII [`SpanGuard`] that
//!   records monotonic elapsed nanoseconds, the emitting thread, a link to
//!   the enclosing span, and optional named `u64` fields (used by the engine
//!   to attach per-phase `WorkCounters` deltas). Finished spans land in a
//!   lock-free thread-local buffer, so the hot path never takes a lock.
//!   Where the buffer goes next depends on who asked for the spans:
//!   under [`Recorder::enabled`] it is appended to the global span log when
//!   the thread's outermost span closes (or the thread exits) and read back
//!   with [`snapshot`]; under a [`capture`] it is handed to the capture's
//!   owner by [`SpanCapture::finish`] and never reaches the global log or
//!   its lock — the cost of observing one request is O(that request),
//!   whatever ran before it. A long-running process wants the second:
//!   [`Recorder::metrics_only`] records spans *only* under a capture.
//! * **Metrics** — [`counter_add`], [`gauge_set`] and [`observe`] maintain a
//!   registry of counters, gauges and log-linear histograms keyed by
//!   `&'static str`; [`record`] applies several updates under one lock.
//! * **Snapshots** — [`snapshot`] freezes everything into a [`Snapshot`]
//!   that renders as a human table / span tree (`Display`), exports to JSON
//!   ([`Snapshot::to_json`]) and parses back ([`Snapshot::from_json`]).
//!
//! Recording is off by default. `Recorder::enabled().install()` turns it on
//! (`Recorder::metrics_only()` without the global span log);
//! `Recorder::disabled().install()` turns it off again and discards state.
//! When disabled every entry point is a single relaxed atomic load — no
//! allocation, no clock read, no lock — so instrumented code can stay
//! instrumented in production builds.
//!
//! `WorkCounters` live in `ibis-core`, which depends on this crate (not the
//! other way around), keeping `ibis-obs` dependency-free.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod hist;
mod json;
mod prom;
mod snapshot;
mod window;

pub use hist::Histogram;
pub use prom::validate_prometheus;
pub use snapshot::{HistogramSnapshot, Snapshot, SpanRecord};
pub use window::{
    merge_hist_snapshots, WindowCounterSnapshot, WindowSnapshot, WindowedCounter, WindowedHistogram,
};

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// What the installed recorder records. Relaxed is enough: recording is
/// advisory and a stale read merely delays when a thread notices an install.
static MODE: AtomicU8 = AtomicU8::new(OFF);
/// Nothing: every entry point returns after one load of [`MODE`].
const OFF: u8 = 0;
/// Metrics, and spans only on a thread that has a [`capture`] open.
const METRICS: u8 = 1;
/// Metrics and every span; uncaptured spans go to the global span log.
const FULL: u8 = 2;
/// Bumped on every [`Recorder::install`]; spans started under an older
/// generation are discarded instead of polluting the new recording.
static GENERATION: AtomicU64 = AtomicU64::new(0);
/// Span ids are process-unique and never reused (0 = "no span").
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD_ID: AtomicU64 = AtomicU64::new(0);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static GLOBAL: OnceLock<Mutex<GlobalState>> = OnceLock::new();

/// Drain a thread-local buffer into the global recorder once it holds this
/// many spans, even if the thread's root span is still open.
const FLUSH_HIGH_WATER: usize = 256;

fn epoch() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

fn global() -> &'static Mutex<GlobalState> {
    GLOBAL.get_or_init(|| Mutex::new(GlobalState::default()))
}

fn lock_global() -> std::sync::MutexGuard<'static, GlobalState> {
    // A panic while holding the lock only interrupts bookkeeping, never
    // leaves the state half-written in a way later readers can't use.
    global().lock().unwrap_or_else(|e| e.into_inner())
}

#[derive(Default)]
struct GlobalState {
    spans: Vec<RawSpan>,
    counters: HashMap<&'static str, u64>,
    gauges: HashMap<&'static str, f64>,
    histograms: HashMap<&'static str, Histogram>,
    windows: HashMap<&'static str, window::WindowedHistogram>,
    window_counters: HashMap<&'static str, window::WindowedCounter>,
}

/// A finished span, still using `&'static str` names (stringified only when
/// it leaves the recorder, in a [`Snapshot`] or a finished capture).
struct RawSpan {
    id: u64,
    parent: u64,
    name: &'static str,
    thread: u64,
    start_ns: u64,
    elapsed_ns: u64,
    fields: Vec<(&'static str, u64)>,
}

impl RawSpan {
    fn record(&self) -> SpanRecord {
        SpanRecord {
            id: self.id,
            parent: self.parent,
            name: self.name.to_string(),
            thread: self.thread,
            start_ns: self.start_ns,
            elapsed_ns: self.elapsed_ns,
            fields: self
                .fields
                .iter()
                .map(|&(k, v)| (k.to_string(), v))
                .collect(),
        }
    }
}

struct ThreadState {
    thread: u64,
    generation: u64,
    /// Ids of the currently open spans on this thread, outermost first.
    stack: Vec<u64>,
    buf: Vec<RawSpan>,
    /// The captures open on this thread, outermost first: root span id and
    /// the length of `buf` when it opened. While any is open `buf` is not
    /// flushed; `buf[start..]` is what the innermost one has captured.
    captures: Vec<(u64, usize)>,
}

impl ThreadState {
    fn new() -> Self {
        ThreadState {
            thread: NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed),
            generation: u64::MAX,
            stack: Vec::new(),
            buf: Vec::new(),
            captures: Vec::new(),
        }
    }

    /// Reset per-recording state when a new recorder generation is observed.
    fn sync_generation(&mut self, generation: u64) {
        if self.generation != generation {
            self.generation = generation;
            self.stack.clear();
            self.buf.clear();
            self.captures.clear();
        }
    }

    /// Hand the buffer to the global span log — if the recorder that is
    /// installed now keeps one, and no capture on this thread owns part of
    /// the buffer.
    fn flush(&mut self) {
        if self.buf.is_empty() || !self.captures.is_empty() {
            return;
        }
        if self.generation == GENERATION.load(Ordering::Relaxed)
            && MODE.load(Ordering::Relaxed) == FULL
        {
            lock_global().spans.append(&mut self.buf);
        } else {
            self.buf.clear();
        }
    }

    /// Open a span, or return `None` where nobody wants it: under a
    /// metrics-only recorder, a span that is neither a capture root nor
    /// under one on this thread.
    fn open(
        &mut self,
        name: &'static str,
        fallback_parent: Option<u64>,
        capture: bool,
    ) -> Option<ActiveSpan> {
        let generation = GENERATION.load(Ordering::Relaxed);
        self.sync_generation(generation);
        if !capture && self.captures.is_empty() && MODE.load(Ordering::Relaxed) != FULL {
            return None;
        }
        let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
        let parent = self.stack.last().copied().or(fallback_parent).unwrap_or(0);
        self.stack.push(id);
        if capture {
            self.captures.push((id, self.buf.len()));
        }
        let start = Instant::now();
        Some(ActiveSpan {
            id,
            parent,
            name,
            generation,
            start,
            start_ns: start.duration_since(epoch()).as_nanos() as u64,
            fields: Vec::new(),
        })
    }

    /// Buffer a closing span (dropped if the recorder was swapped while it
    /// was open).
    fn close(&mut self, a: ActiveSpan) {
        let elapsed_ns = a.start.elapsed().as_nanos() as u64;
        if self.generation != a.generation {
            return;
        }
        if self.stack.last() == Some(&a.id) {
            self.stack.pop();
        }
        self.buf.push(RawSpan {
            id: a.id,
            parent: a.parent,
            name: a.name,
            thread: self.thread,
            start_ns: a.start_ns,
            elapsed_ns,
            fields: a.fields,
        });
        if self.stack.is_empty() || self.buf.len() >= FLUSH_HIGH_WATER {
            self.flush();
        }
    }
}

impl Drop for ThreadState {
    fn drop(&mut self) {
        self.flush();
    }
}

thread_local! {
    static TLS: RefCell<ThreadState> = RefCell::new(ThreadState::new());
}

/// Configures the process-global recorder.
///
/// ```
/// ibis_obs::Recorder::enabled().install();
/// {
///     let mut g = ibis_obs::span("demo.work");
///     g.add_field("rows", 42);
/// }
/// let snap = ibis_obs::snapshot();
/// assert_eq!(snap.spans.len(), 1);
/// ibis_obs::Recorder::disabled().install();
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Recorder {
    mode: u8,
}

impl Recorder {
    /// A recorder that records metrics and every span: what a profiler
    /// wants for one bounded run, read back with [`snapshot`]. The span log
    /// grows until the next install.
    pub fn enabled() -> Self {
        Recorder { mode: FULL }
    }

    /// A recorder that records metrics, and spans only on a thread that has
    /// a [`capture`] open — the capture's owner gets them, the global span
    /// log stays empty. What a long-running process wants: its span memory
    /// is bounded by the requests being captured right now.
    pub fn metrics_only() -> Self {
        Recorder { mode: METRICS }
    }

    /// A recorder that makes every API entry point a no-op (the default).
    pub fn disabled() -> Self {
        Recorder { mode: OFF }
    }

    /// Install this recorder globally, discarding anything recorded so far.
    /// Spans and captures that are still open when an install happens belong
    /// to the old generation and are dropped on close, never mixed into the
    /// new run.
    pub fn install(self) {
        let mut g = lock_global();
        GENERATION.fetch_add(1, Ordering::Relaxed);
        *g = GlobalState::default();
        MODE.store(self.mode, Ordering::Relaxed);
    }
}

/// Whether the installed recorder is currently recording.
#[inline]
pub fn is_enabled() -> bool {
    MODE.load(Ordering::Relaxed) != OFF
}

/// Payload of a live, recording span.
struct ActiveSpan {
    id: u64,
    parent: u64,
    name: &'static str,
    generation: u64,
    start: Instant,
    start_ns: u64,
    fields: Vec<(&'static str, u64)>,
}

/// RAII guard returned by [`span()`]; records the span when dropped.
///
/// When the recorder is disabled the guard is inert: construction did not
/// read the clock and `Drop` does nothing.
#[must_use = "a span measures the scope it is alive for"]
pub struct SpanGuard(Option<ActiveSpan>);

impl SpanGuard {
    /// The span's unique id (0 when the guard is inert).
    pub fn id(&self) -> u64 {
        self.0.as_ref().map_or(0, |a| a.id)
    }

    /// Whether this guard is actually recording.
    pub fn is_recording(&self) -> bool {
        self.0.is_some()
    }

    /// Attach a named value to the span (no-op when inert). Values with
    /// the same name accumulate by appearing once each in the record.
    pub fn add_field(&mut self, name: &'static str, value: u64) {
        if let Some(a) = self.0.as_mut() {
            a.fields.push((name, value));
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(a) = self.0.take() {
            TLS.with(|tls| tls.borrow_mut().close(a));
        }
    }
}

/// The entry points' shared body: one relaxed load when disabled, else the
/// thread's [`ThreadState::open`].
#[inline]
fn open(name: &'static str, fallback_parent: Option<u64>, capture: bool) -> SpanGuard {
    if !is_enabled() {
        return SpanGuard(None);
    }
    SpanGuard(TLS.with(|tls| tls.borrow_mut().open(name, fallback_parent, capture)))
}

/// Open a span named `name`, parented to the innermost open span on this
/// thread (or a root if there is none). Returns an inert guard when the
/// recorder is disabled, or metrics-only with no [`capture`] open on this
/// thread.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    open(name, None, false)
}

/// Open a span with an explicit fallback parent, used to stitch the trace
/// across threads: when the current thread has no open span (a fresh worker)
/// the given id becomes the parent; otherwise normal nesting wins.
#[inline]
pub fn span_with_parent(name: &'static str, parent: u64) -> SpanGuard {
    open(name, Some(parent), false)
}

/// Open a span named `name` that also *captures*: until the returned guard
/// is finished, every span closed on this thread is kept for the guard's
/// owner instead of going to the global span log. Works under either
/// recording [`Recorder`]; inert (one relaxed load, no allocation) when the
/// recorder is disabled.
///
/// ```
/// ibis_obs::Recorder::metrics_only().install();
/// let mut request = ibis_obs::capture("demo.request");
/// request.add_field("request_id", 7);
/// drop(ibis_obs::span("demo.work"));
/// let spans = request.finish();
/// assert_eq!(spans.len(), 2); // the root and its child, nothing else
/// assert!(ibis_obs::snapshot().spans.is_empty());
/// ibis_obs::Recorder::disabled().install();
/// ```
#[inline]
pub fn capture(name: &'static str) -> SpanCapture {
    SpanCapture(open(name, None, true))
}

/// Root of a thread-scoped span capture, returned by [`capture`].
///
/// Captures nest: an inner capture takes the spans closed under it, the
/// outer one keeps the rest. Spans closed on *other* threads are not
/// captured (they go wherever the installed recorder sends them), so run the
/// captured work on this thread if the tree must be complete. Dropping the
/// guard without [`finish`](SpanCapture::finish) discards what it captured.
#[must_use = "a capture collects the spans of the scope it is alive for"]
pub struct SpanCapture(SpanGuard);

/// The root span: `id`, `add_field` and `is_recording` as on any guard.
impl std::ops::Deref for SpanCapture {
    type Target = SpanGuard;
    fn deref(&self) -> &SpanGuard {
        &self.0
    }
}

impl std::ops::DerefMut for SpanCapture {
    fn deref_mut(&mut self) -> &mut SpanGuard {
        &mut self.0
    }
}

impl SpanCapture {
    /// Close the root span and return it with every span closed on this
    /// thread since the capture opened, sorted by `(start_ns, id)`. Empty
    /// when the recorder was disabled at [`capture`], or was swapped since.
    pub fn finish(mut self) -> Vec<SpanRecord> {
        self.take()
    }

    fn take(&mut self) -> Vec<SpanRecord> {
        let Some(root) = self.0 .0.take() else {
            return Vec::new();
        };
        TLS.with(|tls| {
            let mut ts = tls.borrow_mut();
            // An install since the capture opened empties it, like any span
            // of a stale generation.
            ts.sync_generation(GENERATION.load(Ordering::Relaxed));
            let root_id = root.id;
            ts.close(root);
            let Some(depth) = ts.captures.iter().rposition(|&(id, _)| id == root_id) else {
                return Vec::new();
            };
            let start = ts.captures[depth].1;
            ts.captures.truncate(depth);
            let mut spans: Vec<SpanRecord> = ts.buf.drain(start..).map(|r| r.record()).collect();
            spans.sort_by_key(|s| (s.start_ns, s.id));
            spans
        })
    }
}

impl Drop for SpanCapture {
    fn drop(&mut self) {
        self.take();
    }
}

/// Id of the innermost open span on this thread (0 if none). Capture this
/// before handing work to another thread and pass it to
/// [`span_with_parent`] there.
pub fn current_span_id() -> u64 {
    if !is_enabled() {
        return 0;
    }
    TLS.with(|tls| {
        let mut ts = tls.borrow_mut();
        ts.sync_generation(GENERATION.load(Ordering::Relaxed));
        ts.stack.last().copied().unwrap_or(0)
    })
}

/// Open a span. `span!("bee.and_reduce")` is shorthand for
/// [`span("bee.and_reduce")`](span()); the two-argument form supplies a
/// cross-thread fallback parent as in [`span_with_parent`].
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span($name)
    };
    ($name:expr, parent = $parent:expr) => {
        $crate::span_with_parent($name, $parent)
    };
}

/// Exclusive access to the metric registry for the duration of one
/// [`record`] call: the free functions' operations, without their lock.
pub struct Metrics<'a> {
    g: &'a mut GlobalState,
    /// [`now_ms`], read on the first windowed update.
    now_ms: Option<u64>,
}

impl Metrics<'_> {
    /// Add `delta` to the counter `name`, saturating.
    pub fn counter_add(&mut self, name: &'static str, delta: u64) {
        let c = self.g.counters.entry(name).or_insert(0);
        *c = c.saturating_add(delta);
    }

    /// Set the gauge `name` to `value`; non-finite values are recorded as 0
    /// so snapshots stay JSON-serializable.
    pub fn gauge_set(&mut self, name: &'static str, value: f64) {
        let v = if value.is_finite() { value } else { 0.0 };
        self.g.gauges.insert(name, v);
    }

    /// Adjust the gauge `name` by `delta` (which may be negative), creating
    /// it at 0 first. Non-finite results are clamped to 0.
    pub fn gauge_add(&mut self, name: &'static str, delta: f64) {
        let v = self.g.gauges.entry(name).or_insert(0.0);
        let next = *v + delta;
        *v = if next.is_finite() { next } else { 0.0 };
    }

    /// Record `value` into the log-linear histogram `name`.
    pub fn observe(&mut self, name: &'static str, value: u64) {
        self.g.histograms.entry(name).or_default().record(value);
    }

    /// Record `value` into the rolling windowed histogram `name` (1 s × 64
    /// bucket ring). The live window is exported by [`snapshot`] /
    /// [`Registry::export`] under the same name.
    pub fn window_observe(&mut self, name: &'static str, value: u64) {
        let now = *self.now_ms.get_or_insert_with(now_ms);
        self.g
            .windows
            .entry(name)
            .or_insert_with(window::WindowedHistogram::with_defaults)
            .record_at(now, value);
    }

    /// Add `delta` to the rolling windowed counter `name` (1 s × 64 bucket
    /// ring).
    pub fn window_counter_add(&mut self, name: &'static str, delta: u64) {
        let now = *self.now_ms.get_or_insert_with(now_ms);
        self.g
            .window_counters
            .entry(name)
            .or_insert_with(window::WindowedCounter::with_defaults)
            .add_at(now, delta);
    }
}

/// Apply several metric updates under one acquisition of the registry lock
/// (no-op when disabled; `f` is not called). The lock is the one every
/// other entry point takes, so `f` must not call back into this crate.
pub fn record(f: impl FnOnce(&mut Metrics<'_>)) {
    if !is_enabled() {
        return;
    }
    f(&mut Metrics {
        g: &mut lock_global(),
        now_ms: None,
    });
}

/// Add `delta` to the counter `name` (no-op when disabled).
pub fn counter_add(name: &'static str, delta: u64) {
    record(|m| m.counter_add(name, delta));
}

/// [`Metrics::gauge_set`] on its own (no-op when disabled).
pub fn gauge_set(name: &'static str, value: f64) {
    record(|m| m.gauge_set(name, value));
}

/// [`Metrics::gauge_add`] on its own (no-op when disabled).
pub fn gauge_add(name: &'static str, delta: f64) {
    record(|m| m.gauge_add(name, delta));
}

/// Milliseconds since the process recording epoch — the time base every
/// windowed metric records against.
pub fn now_ms() -> u64 {
    epoch().elapsed().as_millis() as u64
}

/// [`Metrics::window_observe`] on its own (no-op when disabled).
pub fn window_observe(name: &'static str, value: u64) {
    record(|m| m.window_observe(name, value));
}

/// [`Metrics::window_counter_add`] on its own (no-op when disabled).
pub fn window_counter_add(name: &'static str, delta: u64) {
    record(|m| m.window_counter_add(name, delta));
}

/// Record `value` into the log-linear histogram `name` (no-op when
/// disabled).
pub fn observe(name: &'static str, value: u64) {
    record(|m| m.observe(name, value));
}

impl GlobalState {
    /// The metric registry as it is now, around the given span records.
    fn freeze(&self, spans: Vec<SpanRecord>) -> Snapshot {
        let now = now_ms();
        Snapshot {
            spans,
            counters: self
                .counters
                .iter()
                .map(|(&k, &v)| (k.to_string(), v))
                .collect(),
            gauges: self
                .gauges
                .iter()
                .map(|(&k, &v)| (k.to_string(), v))
                .collect(),
            histograms: self
                .histograms
                .iter()
                .map(|(&k, h)| (k.to_string(), h.snapshot()))
                .collect(),
            windows: self
                .windows
                .iter()
                .map(|(&k, w)| (k.to_string(), w.snapshot_at(now)))
                .collect(),
            window_counters: self
                .window_counters
                .iter()
                .map(|(&k, w)| (k.to_string(), w.snapshot_at(now)))
                .collect(),
        }
    }
}

/// Freeze the current recording into an immutable [`Snapshot`].
///
/// Flushes the calling thread's buffer first; spans recorded by other
/// threads are visible once those threads closed their outermost span or
/// exited. `ExecPool` guarantees the first for every chunk its parked
/// workers run off the caller's thread, by the time the pool call returns.
pub fn snapshot() -> Snapshot {
    TLS.with(|tls| tls.borrow_mut().flush());
    let g = lock_global();
    let mut spans: Vec<SpanRecord> = g.spans.iter().map(RawSpan::record).collect();
    spans.sort_by_key(|s| (s.start_ns, s.id));
    g.freeze(spans)
}

/// Handle over the process-global metrics registry.
///
/// [`Registry::export`] freezes the metric state — counters, gauges,
/// cumulative histograms and the live windowed rings — *without* the span
/// log, which is what a telemetry endpoint wants: metrics are cheap and
/// bounded, spans are neither. The returned [`Snapshot`] renders to both
/// wire formats: canonical JSON via [`Snapshot::to_json`] and Prometheus
/// text exposition via [`Snapshot::to_prometheus`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Registry;

impl Registry {
    /// Export the metric registry (no spans) as a [`Snapshot`].
    pub fn export() -> Snapshot {
        lock_global().freeze(Vec::new())
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use std::sync::{Mutex, MutexGuard};

    /// Tests that install/inspect the process-global recorder must not
    /// interleave; serialize them on this lock.
    pub fn serial() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_is_inert() {
        let _serial = testutil::serial();
        Recorder::disabled().install();
        let mut g = span!("noop");
        assert_eq!(g.id(), 0);
        assert!(!g.is_recording());
        g.add_field("rows", 1);
        drop(g);
        counter_add("c", 1);
        gauge_set("g", 1.0);
        observe("h", 1);
        let snap = snapshot();
        assert!(snap.spans.is_empty());
        assert!(snap.counters.is_empty());
        assert!(snap.gauges.is_empty());
        assert!(snap.histograms.is_empty());
    }

    #[test]
    fn spans_nest_and_carry_fields() {
        let _serial = testutil::serial();
        Recorder::enabled().install();
        let root_id;
        {
            let mut root = span!("root");
            root_id = root.id();
            root.add_field("total", 7);
            {
                let mut child = span!("child");
                assert_eq!(current_span_id(), child.id());
                child.add_field("rows", 3);
            }
            let _sibling = span!("sibling");
        }
        let snap = snapshot();
        Recorder::disabled().install();

        assert_eq!(snap.spans.len(), 3);
        let root = snap.spans.iter().find(|s| s.name == "root").unwrap();
        let child = snap.spans.iter().find(|s| s.name == "child").unwrap();
        let sibling = snap.spans.iter().find(|s| s.name == "sibling").unwrap();
        assert_eq!(root.id, root_id);
        assert_eq!(root.parent, 0);
        assert_eq!(child.parent, root_id);
        assert_eq!(sibling.parent, root_id);
        assert_eq!(child.fields, vec![("rows".to_string(), 3)]);
        assert!(root.elapsed_ns >= child.elapsed_ns);
    }

    #[test]
    fn explicit_parent_used_only_at_stack_bottom() {
        let _serial = testutil::serial();
        Recorder::enabled().install();
        let outer = span!("outer");
        let outer_id = outer.id();
        {
            // Stack is non-empty: nesting wins over the explicit parent.
            let nested = span_with_parent("nested", 9999);
            assert_eq!(nested.id(), current_span_id());
        }
        drop(outer);
        // Fresh "thread": no open span, so the fallback parent applies.
        let adopted = span_with_parent("adopted", outer_id);
        drop(adopted);
        let snap = snapshot();
        Recorder::disabled().install();

        let nested = snap.spans.iter().find(|s| s.name == "nested").unwrap();
        let adopted = snap.spans.iter().find(|s| s.name == "adopted").unwrap();
        assert_eq!(nested.parent, outer_id);
        assert_eq!(adopted.parent, outer_id);
    }

    #[test]
    fn install_discards_previous_recording_and_open_spans() {
        let _serial = testutil::serial();
        Recorder::enabled().install();
        let stale = span!("stale");
        Recorder::enabled().install(); // new generation while `stale` is open
        let fresh = span!("fresh");
        assert_eq!(fresh.parent_for_test(), 0);
        drop(fresh);
        drop(stale); // belongs to the old generation: discarded
        let snap = snapshot();
        Recorder::disabled().install();
        assert_eq!(snap.spans.len(), 1);
        assert_eq!(snap.spans[0].name, "fresh");
    }

    #[test]
    fn metrics_registry_records_and_saturates() {
        let _serial = testutil::serial();
        Recorder::enabled().install();
        counter_add("queries", 2);
        counter_add("queries", 3);
        counter_add("big", u64::MAX);
        counter_add("big", 10); // must saturate, not wrap
        gauge_set("threads", 4.0);
        gauge_set("weird", f64::NAN); // clamped to 0 for JSON safety
        for v in [1u64, 2, 3, 1000] {
            observe("lat", v);
        }
        let snap = snapshot();
        Recorder::disabled().install();

        assert_eq!(snap.counters["queries"], 5);
        assert_eq!(snap.counters["big"], u64::MAX);
        assert_eq!(snap.gauges["threads"], 4.0);
        assert_eq!(snap.gauges["weird"], 0.0);
        let h = &snap.histograms["lat"];
        assert_eq!(h.count, 4);
        assert_eq!(h.min, 1);
        assert_eq!(h.max, 1000);
        assert_eq!(h.sum, 1006);
    }

    impl SpanGuard {
        fn parent_for_test(&self) -> u64 {
            self.0.as_ref().map_or(0, |a| a.parent)
        }
    }

    #[test]
    fn gauge_add_accumulates_and_clamps() {
        let _serial = testutil::serial();
        Recorder::enabled().install();
        gauge_add("depth", 3.0);
        gauge_add("depth", 2.5);
        gauge_add("depth", -1.5);
        gauge_add("bad", f64::INFINITY); // clamped to 0
        let snap = snapshot();
        Recorder::disabled().install();
        assert_eq!(snap.gauges["depth"], 4.0);
        assert_eq!(snap.gauges["bad"], 0.0);
    }

    #[test]
    fn windowed_globals_feed_registry_export() {
        let _serial = testutil::serial();
        Recorder::enabled().install();
        window_observe("lat.win", 100);
        window_observe("lat.win", 200);
        window_counter_add("req.win", 5);
        counter_add("total", 1);
        {
            let _g = span!("not.exported.by.registry");
        }
        let export = Registry::export();
        let full = snapshot();
        Recorder::disabled().install();

        assert!(export.spans.is_empty(), "Registry::export carries no spans");
        assert_eq!(full.spans.len(), 1);
        let w = &export.windows["lat.win"];
        assert_eq!(w.merged().count, 2);
        assert_eq!(w.merged().max, 200);
        assert_eq!(export.window_counters["req.win"].total(), 5);
        assert_eq!(export.counters["total"], 1);
        // The export is itself a valid canonical snapshot document.
        assert_eq!(
            Snapshot::from_json(&export.to_json()).unwrap().to_json(),
            export.to_json()
        );
    }

    fn names(spans: &[SpanRecord]) -> Vec<&str> {
        spans.iter().map(|s| s.name.as_str()).collect()
    }

    #[test]
    fn capture_takes_its_tree_and_the_global_log_gets_the_rest() {
        let _serial = testutil::serial();
        Recorder::enabled().install();
        drop(span!("before"));
        let mut req = capture("req");
        req.add_field("request_id", 9);
        let root = req.id();
        {
            let _exec = span!("req.exec");
            let _leaf = span!("req.exec.leaf");
        }
        let spans = req.finish();
        drop(span!("after"));
        let log = snapshot();
        Recorder::disabled().install();

        // Sorted by start: the root first, although it closed last.
        assert_eq!(names(&spans), ["req", "req.exec", "req.exec.leaf"]);
        assert_eq!(spans[0].id, root);
        assert_eq!(spans[0].fields, vec![("request_id".to_string(), 9)]);
        assert_eq!(spans[1].parent, root);
        assert_eq!(spans[2].parent, spans[1].id);
        // Captured spans never reach the global log; uncaptured ones do.
        assert_eq!(names(&log.spans), ["before", "after"]);
    }

    #[test]
    fn metrics_only_recorder_records_spans_only_under_a_capture() {
        let _serial = testutil::serial();
        Recorder::metrics_only().install();
        assert!(is_enabled());
        let stray = span!("stray");
        assert!(!stray.is_recording());
        drop(stray);
        assert_eq!(current_span_id(), 0);
        counter_add("c", 1);

        // Captures repeat without leaving anything behind.
        for _ in 0..3 {
            let req = capture("req");
            assert_eq!(current_span_id(), req.id());
            drop(span!("req.exec"));
            assert_eq!(names(&req.finish()), ["req", "req.exec"]);
        }
        // A capture dropped unfinished discards its spans.
        {
            let _req = capture("dropped");
            drop(span!("dropped.exec"));
        }
        let snap = snapshot();
        Recorder::disabled().install();
        assert!(snap.spans.is_empty(), "{:?}", names(&snap.spans));
        assert_eq!(snap.counters["c"], 1);
    }

    #[test]
    fn nested_captures_split_the_tree() {
        let _serial = testutil::serial();
        Recorder::metrics_only().install();
        let outer = capture("outer");
        drop(span!("outer.a"));
        let inner = capture("inner");
        let inner_id = inner.id();
        drop(span!("inner.a"));
        let inner_spans = inner.finish();
        drop(span!("outer.b"));
        let outer_id = outer.id();
        let outer_spans = outer.finish();
        Recorder::disabled().install();

        assert_eq!(names(&inner_spans), ["inner", "inner.a"]);
        assert_eq!(inner_spans[0].parent, outer_id, "nesting links survive");
        assert_eq!(inner_spans[1].parent, inner_id);
        assert_eq!(names(&outer_spans), ["outer", "outer.a", "outer.b"]);
    }

    #[test]
    fn capture_does_not_swallow_spans_closed_on_another_thread() {
        let _serial = testutil::serial();
        Recorder::enabled().install();
        let req = capture("req");
        let root = req.id();
        std::thread::scope(|s| {
            s.spawn(|| drop(span_with_parent("elsewhere", root)));
        });
        let spans = req.finish();
        let log = snapshot();
        Recorder::disabled().install();

        assert_eq!(names(&spans), ["req"]);
        // The other thread's span went where the full recorder sends it,
        // still linked to the captured root.
        assert_eq!(names(&log.spans), ["elsewhere"]);
        assert_eq!(log.spans[0].parent, root);
    }

    #[test]
    fn capture_under_disabled_recorder_is_inert() {
        let _serial = testutil::serial();
        Recorder::disabled().install();
        let mut req = capture("req");
        assert_eq!(req.id(), 0);
        assert!(!req.is_recording());
        req.add_field("request_id", 1);
        drop(span!("req.exec"));
        let spans = req.finish();
        // Nothing recorded and nothing allocated for the result.
        assert_eq!(spans.capacity(), 0);
        assert!(snapshot().spans.is_empty());
    }

    #[test]
    fn install_while_capturing_discards_the_capture() {
        let _serial = testutil::serial();
        Recorder::metrics_only().install();
        let stale = capture("stale");
        drop(span!("stale.exec"));
        Recorder::metrics_only().install(); // new generation, capture open
        assert!(stale.finish().is_empty());
        // The thread is clean for the new generation.
        let fresh = capture("fresh");
        assert_eq!(fresh.parent_for_test(), 0);
        assert_eq!(names(&fresh.finish()), ["fresh"]);
        assert!(!span!("uncaptured").is_recording());
        Recorder::disabled().install();
    }
}
