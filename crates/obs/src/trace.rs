//! Span tracing: per-thread lock-free ring buffers → Chrome trace JSON.
//!
//! A span is a named interval with an id, an optional parent, a trace id
//! correlating it across threads, and monotonic nanosecond timestamps.
//! Recording is strictly out-of-band, like the metrics registry: spans
//! never touch an RNG, never allocate on the recording fast path beyond
//! the inline name copy, and never feed back into simulation results —
//! a traced run produces bitwise-identical REPORT/response bytes.
//!
//! # Design
//!
//! * **Disabled by default.** [`span`] costs one relaxed atomic load and
//!   returns an inert guard until [`enable`] flips the global flag, so
//!   instrumentation can stay in release binaries.
//! * **Per-thread ring buffers.** Each recording thread lazily registers
//!   a fixed-capacity ring of seqlock slots. The owning thread is the
//!   only writer (no CAS loops, no locks on the hot path); [`drain`]
//!   reads every registered ring with generation-validated snapshots, so
//!   a reader racing a wrapping writer skips the torn slot instead of
//!   blocking it. Every slot word is an atomic — there is no `unsafe`.
//! * **Parent links by RAII.** Spans on one thread form a stack; a new
//!   span's parent is the current stack top. Cross-thread edges (service
//!   request → job executor, pool run → worker task) are made explicit
//!   with [`span_with_parent`].
//! * **Bounded overhead.** Hot phases (engine leap chunks) record one
//!   span out of every `k` via [`span_sampled`]; when the ring wraps,
//!   the oldest events are overwritten and counted as dropped rather
//!   than stalling the writer.
//!
//! Exports: [`chrome_trace_json`] renders balanced `B`/`E` event pairs
//! loadable by `chrome://tracing` and Perfetto; [`jsonl`] renders one
//! span object per line for log shippers.
//!
//! # Example
//!
//! ```
//! use popgame_obs::trace;
//!
//! trace::enable();
//! {
//!     let _outer = trace::span(trace::Family::Report, "sweep");
//!     let _inner = trace::span(trace::Family::Report, "cell");
//! }
//! let snapshot = trace::drain();
//! assert_eq!(snapshot.events.len(), 2);
//! trace::disable();
//! ```

use popgame_util::json::Json;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::Instant;

/// Inline span-name capacity (bytes); longer names are truncated at a
/// character boundary so events stay fixed-size and allocation-free.
pub const NAME_CAP: usize = 48;

/// Ring capacity per thread (events), unless [`enable_with_capacity`]
/// overrides it. Each slot is 14 machine words.
pub const DEFAULT_CAPACITY: usize = 16_384;

/// Which layer a span belongs to — the `cat` field of the Chrome trace
/// event, and the sampling-counter key of [`span_sampled`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// HTTP request / job lifecycle spans in `popgame-service`.
    Service,
    /// Task / steal / idle spans in the `popgame-runner` pool.
    Scheduler,
    /// Batched-engine phases (kernel builds, refreshes, leap chunks).
    Engine,
    /// Report-harness sweep and cell spans.
    Report,
}

impl Family {
    /// The lowercase category name used in exports.
    pub fn as_str(self) -> &'static str {
        match self {
            Family::Service => "service",
            Family::Scheduler => "scheduler",
            Family::Engine => "engine",
            Family::Report => "report",
        }
    }

    fn from_code(code: u64) -> Family {
        match code {
            0 => Family::Service,
            1 => Family::Scheduler,
            2 => Family::Engine,
            _ => Family::Report,
        }
    }
}

/// One completed span, decoded from a ring slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// Process-unique span id (never 0).
    pub id: u64,
    /// Parent span id, 0 for roots.
    pub parent: u64,
    /// Correlation id shared by every span of one request/run (0 = none).
    pub trace: u64,
    /// Recording thread's registration index.
    pub tid: u64,
    /// Layer.
    pub cat: Family,
    /// Span name (possibly truncated to [`NAME_CAP`] bytes).
    pub name: String,
    /// Start, nanoseconds since the process trace epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the process trace epoch.
    pub end_ns: u64,
}

/// Words per encoded event: id, parent, trace, start, end, meta,
/// name[6 × 8 bytes].
const EVENT_WORDS: usize = 12;

struct Slot {
    /// Seqlock generation: 0 = never written, odd = write in progress,
    /// even = consistent.
    seq: AtomicU64,
    words: [AtomicU64; EVENT_WORDS],
}

impl Slot {
    fn new() -> Slot {
        Slot {
            seq: AtomicU64::new(0),
            words: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// A single-writer ring. The owning thread appends; `drain` snapshots.
struct ThreadBuffer {
    tid: u64,
    slots: Vec<Slot>,
    /// Total events ever pushed (monotone; `pushed - capacity` of the
    /// excess has been overwritten).
    pushed: AtomicU64,
}

impl ThreadBuffer {
    fn new(tid: u64, capacity: usize) -> ThreadBuffer {
        ThreadBuffer {
            tid,
            slots: (0..capacity).map(|_| Slot::new()).collect(),
            pushed: AtomicU64::new(0),
        }
    }

    #[allow(clippy::too_many_arguments)] // one flat call per recorded span field
    fn push(&self, id: u64, parent: u64, trace: u64, cat: Family, name: &str, start_ns: u64, end_ns: u64) {
        let index = self.pushed.load(Ordering::Relaxed);
        let slot = &self.slots[(index as usize) % self.slots.len()];
        let seq = slot.seq.load(Ordering::Relaxed);
        slot.seq.store(seq | 1, Ordering::Release);
        let mut name_bytes = [0u8; NAME_CAP];
        let take = truncated_len(name, NAME_CAP);
        name_bytes[..take].copy_from_slice(&name.as_bytes()[..take]);
        let meta = (self.tid << 16) | ((cat as u64) << 8) | take as u64;
        let payload = [
            id,
            parent,
            trace,
            start_ns,
            end_ns,
            meta,
            u64::from_le_bytes(name_bytes[0..8].try_into().unwrap()),
            u64::from_le_bytes(name_bytes[8..16].try_into().unwrap()),
            u64::from_le_bytes(name_bytes[16..24].try_into().unwrap()),
            u64::from_le_bytes(name_bytes[24..32].try_into().unwrap()),
            u64::from_le_bytes(name_bytes[32..40].try_into().unwrap()),
            u64::from_le_bytes(name_bytes[40..48].try_into().unwrap()),
        ];
        for (word, value) in slot.words.iter().zip(payload) {
            word.store(value, Ordering::Relaxed);
        }
        slot.seq.store((seq | 1).wrapping_add(1), Ordering::Release);
        self.pushed.store(index + 1, Ordering::Release);
    }

    fn snapshot(&self, out: &mut Vec<SpanEvent>) -> u64 {
        let pushed = self.pushed.load(Ordering::Acquire);
        let live = (pushed as usize).min(self.slots.len());
        for slot in self.slots.iter().take(live) {
            // Bounded seqlock read: retry a torn slot a few times, then
            // skip it (the writer is mid-overwrite; the event is lost
            // to wrapping anyway).
            for _ in 0..4 {
                let before = slot.seq.load(Ordering::Acquire);
                if before == 0 || before & 1 == 1 {
                    continue;
                }
                let words: Vec<u64> =
                    slot.words.iter().map(|w| w.load(Ordering::Relaxed)).collect();
                if slot.seq.load(Ordering::Acquire) != before {
                    continue;
                }
                let meta = words[5];
                let len = (meta & 0xff) as usize;
                let mut name_bytes = [0u8; NAME_CAP];
                for (chunk, word) in name_bytes.chunks_mut(8).zip(&words[6..12]) {
                    chunk.copy_from_slice(&word.to_le_bytes());
                }
                let name = String::from_utf8_lossy(&name_bytes[..len.min(NAME_CAP)]).into_owned();
                out.push(SpanEvent {
                    id: words[0],
                    parent: words[1],
                    trace: words[2],
                    tid: meta >> 16,
                    cat: Family::from_code((meta >> 8) & 0xff),
                    name,
                    start_ns: words[3],
                    end_ns: words[4],
                });
                break;
            }
        }
        pushed.saturating_sub(self.slots.len() as u64)
    }
}

/// Truncates to at most `cap` bytes on a character boundary.
fn truncated_len(name: &str, cap: usize) -> usize {
    if name.len() <= cap {
        return name.len();
    }
    let mut take = cap;
    while take > 0 && !name.is_char_boundary(take) {
        take -= 1;
    }
    take
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_TID: AtomicU64 = AtomicU64::new(0);
static CAPACITY: AtomicU64 = AtomicU64::new(DEFAULT_CAPACITY as u64);

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn registry() -> &'static Mutex<Vec<Arc<ThreadBuffer>>> {
    static REGISTRY: OnceLock<Mutex<Vec<Arc<ThreadBuffer>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

struct ThreadCtx {
    buffer: Option<Arc<ThreadBuffer>>,
    stack: Vec<u64>,
    trace: u64,
    ticks: [u32; 4],
}

thread_local! {
    static CTX: std::cell::RefCell<ThreadCtx> = const {
        std::cell::RefCell::new(ThreadCtx { buffer: None, stack: Vec::new(), trace: 0, ticks: [0; 4] })
    };
}

/// Nanoseconds since the process trace epoch (monotonic).
pub fn now_ns() -> u64 {
    u64::try_from(epoch().elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Turns recording on with the default per-thread ring capacity.
/// Also clears previously recorded events, so one enable/drain cycle
/// observes only its own session.
pub fn enable() {
    enable_with_capacity(DEFAULT_CAPACITY);
}

/// [`enable`] with an explicit per-thread ring capacity (clamped to at
/// least 64; applies to threads that register after the call).
pub fn enable_with_capacity(capacity: usize) {
    epoch(); // pin the epoch before the first span
    CAPACITY.store(capacity.max(64) as u64, Ordering::Relaxed);
    clear();
    ENABLED.store(true, Ordering::Release);
}

/// Turns recording off. Already-recorded events stay drainable.
pub fn disable() {
    ENABLED.store(false, Ordering::Release);
}

/// Whether spans are currently being recorded.
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Forgets every recorded event (ring generations are reset). Callers
/// must not race this with `drain`; recording threads are unaffected.
pub fn clear() {
    let registry = registry().lock().unwrap_or_else(PoisonError::into_inner);
    for buffer in registry.iter() {
        for slot in &buffer.slots {
            slot.seq.store(0, Ordering::Release);
        }
        buffer.pushed.store(0, Ordering::Release);
    }
}

/// Sets the calling thread's trace id; subsequent spans on this thread
/// carry it until cleared (pass 0 to clear).
pub fn set_thread_trace_id(id: u64) {
    CTX.with(|ctx| ctx.borrow_mut().trace = id);
}

/// The calling thread's current trace id (0 = none).
pub fn thread_trace_id() -> u64 {
    CTX.with(|ctx| ctx.borrow().trace)
}

/// The id of the innermost open span on this thread (0 = none). Use it
/// to hand a parent across a thread boundary for [`span_with_parent`].
pub fn current_span_id() -> u64 {
    CTX.with(|ctx| ctx.borrow().stack.last().copied().unwrap_or(0))
}

/// Derives a stable trace id from a request-id string (FNV-1a over the
/// bytes, masked into the positive `i64` range so every JSON consumer
/// round-trips it exactly).
pub fn trace_id_from_request(request_id: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in request_id.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    (hash & 0x7fff_ffff_ffff_ffff).max(1)
}

/// An open span. Records one event when dropped; inert (and free) when
/// tracing is disabled.
#[must_use = "a span measures the scope it lives in"]
pub struct Span {
    inner: Option<SpanInner>,
}

struct SpanInner {
    id: u64,
    parent: u64,
    trace: u64,
    cat: Family,
    name: String,
    start_ns: u64,
}

impl Span {
    /// This span's id, or 0 when tracing is disabled.
    pub fn id(&self) -> u64 {
        self.inner.as_ref().map_or(0, |inner| inner.id)
    }

    fn inert() -> Span {
        Span { inner: None }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(inner) = self.inner.take() else {
            return;
        };
        let end_ns = now_ns();
        // try_with: a span dropped during thread teardown loses its
        // event instead of panicking.
        let _ = CTX.try_with(|ctx| {
            let mut ctx = ctx.borrow_mut();
            if ctx.stack.last() == Some(&inner.id) {
                ctx.stack.pop();
            }
            let buffer = ctx.buffer.get_or_insert_with(register_thread);
            buffer.push(
                inner.id,
                inner.parent,
                inner.trace,
                inner.cat,
                &inner.name,
                inner.start_ns,
                end_ns,
            );
        });
    }
}

fn register_thread() -> Arc<ThreadBuffer> {
    let capacity = CAPACITY.load(Ordering::Relaxed) as usize;
    let mut registry = registry().lock().unwrap_or_else(PoisonError::into_inner);
    // Reuse a ring whose owning thread has exited (the registry holds
    // the only reference): pool workers are short-lived, and without
    // reuse a long-running traced daemon would leak one ring per worker
    // per run. The reused ring keeps its tid and keeps appending.
    if let Some(buffer) = registry
        .iter()
        .find(|b| Arc::strong_count(b) == 1 && b.slots.len() == capacity)
    {
        return Arc::clone(buffer);
    }
    let tid = NEXT_TID.fetch_add(1, Ordering::Relaxed);
    let buffer = Arc::new(ThreadBuffer::new(tid, capacity));
    registry.push(Arc::clone(&buffer));
    buffer
}

/// Opens a span parented on the innermost open span of this thread.
pub fn span(cat: Family, name: &str) -> Span {
    if !is_enabled() {
        return Span::inert();
    }
    open(cat, name, None, None)
}

/// Opens a span with an explicit parent id and trace id — the
/// cross-thread edge (0 = no parent / no trace).
pub fn span_with_parent(cat: Family, name: &str, parent: u64, trace: u64) -> Span {
    if !is_enabled() {
        return Span::inert();
    }
    open(cat, name, Some(parent), Some(trace))
}

/// Opens one span out of every `every` calls per (thread, family) —
/// the bounded-overhead gate for hot phases. Inert between samples.
pub fn span_sampled(cat: Family, name: &str, every: u32) -> Span {
    if !is_enabled() {
        return Span::inert();
    }
    let sampled = CTX.with(|ctx| {
        let mut ctx = ctx.borrow_mut();
        let counter = &mut ctx.ticks[cat as usize];
        *counter = counter.wrapping_add(1);
        every <= 1 || *counter % every == 1
    });
    if sampled {
        open(cat, name, None, None)
    } else {
        Span::inert()
    }
}

/// Records an already-measured interval as a completed span (parented
/// on the innermost open span of this thread) — for callers that only
/// know a phase's bounds after the fact, like the scheduler's idle and
/// steal accounting. Timestamps are [`now_ns`] values.
pub fn record(cat: Family, name: &str, start_ns: u64, end_ns: u64) {
    if !is_enabled() {
        return;
    }
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    CTX.with(|ctx| {
        let mut ctx = ctx.borrow_mut();
        let parent = ctx.stack.last().copied().unwrap_or(0);
        let trace = ctx.trace;
        let buffer = ctx.buffer.get_or_insert_with(register_thread);
        buffer.push(id, parent, trace, cat, name, start_ns, end_ns);
    });
}

fn open(cat: Family, name: &str, parent: Option<u64>, trace: Option<u64>) -> Span {
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    let start_ns = now_ns();
    let (parent, trace) = CTX.with(|ctx| {
        let mut ctx = ctx.borrow_mut();
        let parent = parent.unwrap_or_else(|| ctx.stack.last().copied().unwrap_or(0));
        let trace = trace.unwrap_or(ctx.trace);
        ctx.stack.push(id);
        (parent, trace)
    });
    Span {
        inner: Some(SpanInner {
            id,
            parent,
            trace,
            cat,
            name: name.to_string(),
            start_ns,
        }),
    }
}

/// Everything recorded so far, across all threads.
#[derive(Debug, Clone)]
pub struct TraceSnapshot {
    /// Completed spans, sorted by `(start_ns, id)`.
    pub events: Vec<SpanEvent>,
    /// Events lost to ring wrapping.
    pub dropped: u64,
}

/// Snapshots every thread's ring. Safe to call while recording
/// continues; in-flight writes are skipped, not torn.
pub fn drain() -> TraceSnapshot {
    let registry = registry().lock().unwrap_or_else(PoisonError::into_inner);
    let mut events = Vec::new();
    let mut dropped = 0;
    for buffer in registry.iter() {
        dropped += buffer.snapshot(&mut events);
    }
    drop(registry);
    events.sort_by_key(|e| (e.start_ns, e.id));
    TraceSnapshot { events, dropped }
}

/// Microseconds with fixed 3-decimal nanosecond remainder — integer
/// math only, so rendering is deterministic for given timestamps.
fn micros(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

/// Renders a snapshot as Chrome trace-event JSON: one `B`/`E` pair per
/// span, globally sorted by timestamp (ties resolved so a child's events
/// nest strictly inside its parent's), loadable by `chrome://tracing`
/// and Perfetto.
pub fn chrome_trace_json(snapshot: &TraceSnapshot) -> String {
    // (ts, phase order, id key): begins before ends at equal ts; begins
    // in id order (parents allocate first), ends in reverse id order
    // (children close first).
    let mut keyed: Vec<(u64, u8, u64, &SpanEvent, bool)> = Vec::with_capacity(snapshot.events.len() * 2);
    for event in &snapshot.events {
        keyed.push((event.start_ns, 0, event.id, event, true));
        keyed.push((event.end_ns.max(event.start_ns), 1, u64::MAX - event.id, event, false));
    }
    keyed.sort_by_key(|&(ts, phase, id, _, _)| (ts, phase, id));
    let mut out = String::with_capacity(keyed.len() * 96 + 128);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    out.push_str(
        "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":\"popgame\"}}",
    );
    for (ts, _, _, event, is_begin) in keyed {
        out.push_str(",\n");
        if is_begin {
            out.push_str(&format!(
                "{{\"ph\":\"B\",\"pid\":1,\"tid\":{},\"ts\":{},\"name\":{},\"cat\":\"{}\",\"args\":{{\"span\":{},\"parent\":{},\"trace\":{}}}}}",
                event.tid,
                micros(ts),
                Json::Str(event.name.clone()).encode(),
                event.cat.as_str(),
                event.id,
                event.parent,
                event.trace,
            ));
        } else {
            out.push_str(&format!(
                "{{\"ph\":\"E\",\"pid\":1,\"tid\":{},\"ts\":{},\"name\":{},\"cat\":\"{}\"}}",
                event.tid,
                micros(ts),
                Json::Str(event.name.clone()).encode(),
                event.cat.as_str(),
            ));
        }
    }
    out.push_str(&format!(
        "\n],\"otherData\":{{\"dropped_events\":{}}}}}\n",
        snapshot.dropped
    ));
    out
}

/// Renders a snapshot as JSONL: one span object per line.
pub fn jsonl(snapshot: &TraceSnapshot) -> String {
    let mut out = String::with_capacity(snapshot.events.len() * 128);
    for event in &snapshot.events {
        out.push_str(
            &Json::obj([
                ("id", Json::from(event.id)),
                ("parent", Json::from(event.parent)),
                ("trace", Json::from(event.trace)),
                ("tid", Json::from(event.tid)),
                ("cat", Json::from(event.cat.as_str())),
                ("name", Json::Str(event.name.clone())),
                ("start_ns", Json::from(event.start_ns)),
                ("end_ns", Json::from(event.end_ns)),
            ])
            .encode(),
        );
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tests share the process-global collector; serialize them.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static GATE: Mutex<()> = Mutex::new(());
        GATE.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    #[test]
    fn disabled_spans_are_inert() {
        let _gate = lock();
        disable();
        clear();
        let span = span(Family::Report, "nothing");
        assert_eq!(span.id(), 0);
        drop(span);
        assert!(drain().events.is_empty());
    }

    #[test]
    fn spans_nest_and_parent_by_raii() {
        let _gate = lock();
        enable();
        {
            let outer = span(Family::Report, "outer");
            let outer_id = outer.id();
            let inner = span(Family::Engine, "inner");
            assert_ne!(inner.id(), 0);
            drop(inner);
            drop(outer);
            let after = span(Family::Report, "after");
            assert_ne!(after.id(), outer_id);
        }
        disable();
        let snapshot = drain();
        assert_eq!(snapshot.events.len(), 3);
        assert_eq!(snapshot.dropped, 0);
        let outer = snapshot.events.iter().find(|e| e.name == "outer").unwrap();
        let inner = snapshot.events.iter().find(|e| e.name == "inner").unwrap();
        let after = snapshot.events.iter().find(|e| e.name == "after").unwrap();
        assert_eq!(outer.parent, 0);
        assert_eq!(inner.parent, outer.id);
        assert_eq!(after.parent, 0);
        assert_eq!(inner.cat, Family::Engine);
        assert!(inner.start_ns >= outer.start_ns);
        assert!(inner.end_ns <= outer.end_ns);
        // Child spans nest within the parent's duration.
        assert!(outer.end_ns >= outer.start_ns);
    }

    #[test]
    fn trace_ids_and_cross_thread_parents_propagate() {
        let _gate = lock();
        enable();
        set_thread_trace_id(77);
        // Pin this thread's ring before the child thread registers:
        // rings only attach on the first completed span, and a ring
        // whose thread has exited is eligible for reuse — without the
        // warm-up, the child's ring could be reused for `root` below
        // and collapse the two tids.
        drop(span(Family::Service, "warmup"));
        let root = span(Family::Service, "request");
        let root_id = root.id();
        let handle = std::thread::spawn(move || {
            let child = span_with_parent(Family::Service, "job", root_id, 77);
            assert_ne!(child.id(), 0);
        });
        handle.join().unwrap();
        drop(root);
        set_thread_trace_id(0);
        disable();
        let snapshot = drain();
        let job = snapshot.events.iter().find(|e| e.name == "job").unwrap();
        let request = snapshot.events.iter().find(|e| e.name == "request").unwrap();
        assert_eq!(job.parent, request.id);
        assert_eq!(job.trace, 77);
        assert_eq!(request.trace, 77);
        assert_ne!(job.tid, request.tid);
    }

    #[test]
    fn sampling_records_one_in_every_k() {
        let _gate = lock();
        enable();
        for _ in 0..40 {
            let _s = span_sampled(Family::Engine, "leap", 8);
        }
        disable();
        let count = drain().events.iter().filter(|e| e.name == "leap").count();
        assert_eq!(count, 5);
    }

    #[test]
    fn ring_wrap_counts_dropped_events() {
        let _gate = lock();
        enable_with_capacity(64);
        for _ in 0..100 {
            let _s = span(Family::Report, "w");
        }
        disable();
        let snapshot = drain();
        assert_eq!(snapshot.events.iter().filter(|e| e.name == "w").count(), 64);
        assert_eq!(snapshot.dropped, 36);
        enable(); // restore the default capacity for later tests
        disable();
    }

    #[test]
    fn chrome_export_is_valid_and_balanced() {
        let _gate = lock();
        enable();
        {
            let _a = span(Family::Report, "sweep \"quoted\"");
            let _b = span(Family::Scheduler, "task");
        }
        disable();
        let snapshot = drain();
        let rendered = chrome_trace_json(&snapshot);
        let doc = Json::parse(&rendered).expect("chrome trace parses");
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        let begins = events.iter().filter(|e| e.get("ph").unwrap().as_str() == Some("B")).count();
        let ends = events.iter().filter(|e| e.get("ph").unwrap().as_str() == Some("E")).count();
        assert_eq!(begins, 2);
        assert_eq!(ends, 2);
        let lines = jsonl(&snapshot);
        assert_eq!(lines.lines().count(), 2);
        for line in lines.lines() {
            Json::parse(line).expect("jsonl line parses");
        }
    }

    #[test]
    fn long_names_truncate_on_char_boundaries() {
        let long = format!("cell:{}", "é".repeat(64));
        let take = truncated_len(&long, NAME_CAP);
        assert!(take <= NAME_CAP);
        assert!(long.is_char_boundary(take));
    }
}
