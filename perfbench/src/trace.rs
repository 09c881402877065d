//! In-memory span recorder.
//!
//! Spans are recorded around the benchmark's own calls into each layer's
//! public functions: name, start, end, parent span and request id. They
//! stay in memory while the benchmark runs and are written out once, at
//! the end of a traced run. When tracing is off, [`span`] is a single
//! relaxed load and a direct call.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

struct Store {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
    counters: Mutex<BTreeMap<&'static str, u64>>,
}

fn store() -> &'static Store {
    static STORE: OnceLock<Store> = OnceLock::new();
    STORE.get_or_init(|| Store {
        origin: Instant::now(),
        spans: Mutex::new(Vec::new()),
        counters: Mutex::new(BTreeMap::new()),
    })
}

thread_local! {
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static REQUEST: Cell<u64> = const { Cell::new(0) };
}

/// One closed span. Times are nanoseconds since the recorder started.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_s(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Turn recording on or off for the whole process.
pub fn set_enabled(on: bool) {
    store();
    ENABLED.store(on, Ordering::Relaxed);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Tag the spans this thread records next with a request id (0 = none).
pub fn set_request(id: u64) {
    REQUEST.with(|r| r.set(id));
}

/// Run `f` inside a span named `name`; nested spans on the same thread
/// record it as their parent.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    let st = store();
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = OPEN.with(|o| {
        let mut o = o.borrow_mut();
        let p = o.last().copied().unwrap_or(0);
        o.push(id);
        p
    });
    let start = st.origin.elapsed().as_nanos() as u64;
    let out = f();
    let end = st.origin.elapsed().as_nanos() as u64;
    OPEN.with(|o| o.borrow_mut().pop());
    let request = REQUEST.with(Cell::get);
    st.spans.lock().expect("span store").push(Span {
        id,
        parent,
        request,
        name,
        start_ns: start,
        end_ns: end,
    });
    out
}

/// Like [`span`], but also return the call's duration in seconds, which
/// is measured whether or not tracing is on.
pub fn timed<R>(name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let out = span(name, f);
    (out, t.elapsed().as_secs_f64())
}

/// Add `n` to the counter `name` (only while tracing).
pub fn count(name: &'static str, n: u64) {
    if enabled() {
        *store()
            .counters
            .lock()
            .expect("counter store")
            .entry(name)
            .or_insert(0) += n;
    }
}

pub fn counter(name: &str) -> u64 {
    store()
        .counters
        .lock()
        .expect("counter store")
        .get(name)
        .copied()
        .unwrap_or(0)
}

pub fn spans() -> Vec<Span> {
    store().spans.lock().expect("span store").clone()
}

/// Per-name totals: (calls, total seconds, self seconds). A span's self
/// time is its duration minus the time its direct children cover.
pub fn summarize(spans: &[Span]) -> BTreeMap<&'static str, (u64, f64, f64)> {
    let mut child_s: BTreeMap<u64, f64> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            *child_s.entry(s.parent).or_insert(0.0) += s.dur_s();
        }
    }
    let mut out: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
    for s in spans {
        let e = out.entry(s.name).or_insert((0, 0.0, 0.0));
        e.0 += 1;
        e.1 += s.dur_s();
        e.2 += s.dur_s() - child_s.get(&s.id).copied().unwrap_or(0.0);
    }
    out
}

/// Self seconds of every span named `name`.
pub fn self_s(summary: &BTreeMap<&'static str, (u64, f64, f64)>, name: &str) -> f64 {
    summary.get(name).map(|e| e.2).unwrap_or(0.0)
}

/// Total seconds of every span named `name`.
pub fn total_s(summary: &BTreeMap<&'static str, (u64, f64, f64)>, name: &str) -> f64 {
    summary.get(name).map(|e| e.1).unwrap_or(0.0)
}

/// Cost of recording one span, measured on this machine: the mean of
/// `n` empty spans. Used to estimate the tracing overhead of a run.
pub fn calibrate_span_cost_s(n: usize) -> f64 {
    let was = enabled();
    set_enabled(true);
    let before = store().spans.lock().expect("span store").len();
    let t = Instant::now();
    for _ in 0..n {
        span("trace.calibrate", || ());
    }
    let per = t.elapsed().as_secs_f64() / n.max(1) as f64;
    store().spans.lock().expect("span store").truncate(before);
    set_enabled(was);
    per
}

/// Write every span and counter as JSON lines.
pub fn write_jsonl(path: &Path) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans() {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns
        )?;
    }
    for (name, v) in store().counters.lock().expect("counter store").iter() {
        writeln!(out, "{{\"counter\":\"{name}\",\"value\":{v}}}")?;
    }
    out.flush()
}
