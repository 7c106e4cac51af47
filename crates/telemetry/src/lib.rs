#![warn(missing_docs)]
//! Structured runtime telemetry for the `mbssl` workspace: scoped span
//! timers, monotonic counters, gauges, and a thread-safe registry that
//! aggregates per-label statistics and emits them as a human-readable
//! table or machine-readable JSONL.
//!
//! The crate is deliberately zero-dependency (std only; the in-repo serde
//! shims appear only as dev-dependencies of its tests) so every layer of
//! the workspace — the tensor kernels, the allocator, the worker pool, the
//! trainer, the CLI, the benches — can report into one registry without a
//! dependency cycle.
//!
//! # Hierarchy
//!
//! Spans are **hierarchical**: each thread keeps a stack of open span
//! labels, and a completed span records under its `(parent, label)` edge —
//! the label of the span that was open when it started, or `""` at the
//! root. [`drain`] returns one record per edge, which is what lets
//! `mbssl trace summary` attribute *self-time* (a span's total minus its
//! children's totals) instead of double-counting nested work. See
//! DESIGN.md §12 for the aggregation model.
//!
//! # Modes
//!
//! Tracing is configured once per process from `MBSSL_TRACE` (or
//! programmatically via [`set_mode`], which the `mbssl --trace` flag and
//! the test suite use):
//!
//! | `MBSSL_TRACE` | behaviour |
//! |---|---|
//! | unset / `off` / `0` / `none` | disabled (the default) |
//! | `summary` / `on` / `1` | aggregate in memory; [`flush`] prints a table to stderr |
//! | `jsonl:<path>` | aggregate in memory; [`flush`] appends JSONL records to `<path>` |
//!
//! # Overhead budget
//!
//! When tracing is disabled, [`span`] performs a **single relaxed atomic
//! load** and returns an inert guard whose `Drop` is a branch on an
//! already-loaded `Option` — no clock reads, no locks, no allocation.
//! [`counter_add`] and [`gauge_set`] are likewise a single atomic load.
//! This is the contract that lets hot paths (GEMM dispatch, allocator,
//! pool jobs) stay instrumented unconditionally; the bench smoke test
//! asserts the end-to-end disabled-mode cost on `train_step` stays under
//! 2%.
//!
//! When tracing is enabled, each span costs two `Instant` reads plus one
//! short mutex-protected hash-map update at drop. Instrument at *dispatch*
//! granularity (one span per kernel call or batch), never per element.
//!
//! # Determinism
//!
//! Telemetry never draws from any RNG, never reorders arithmetic, and
//! never conditions computation on its own state: training and evaluation
//! results are bit-for-bit identical with tracing off or on. The
//! `telemetry_trace` integration test in `mbssl-core` pins this.
//!
//! # Example
//!
//! ```
//! use mbssl_telemetry as telemetry;
//!
//! telemetry::set_mode(telemetry::TraceMode::Summary);
//! {
//!     let mut s = telemetry::span("demo.work");
//!     s.add_bytes(1024);
//!     // ... the timed region ...
//! } // guard drop records the span
//! telemetry::counter_add("demo.calls", 1);
//! let stats = telemetry::drain();
//! assert!(stats.iter().any(|r| r.label == "demo.work" && r.count == 1));
//! telemetry::set_mode(telemetry::TraceMode::Off);
//! ```

use std::cell::RefCell;
use std::collections::HashMap;
use std::io::Write;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Instant, SystemTime};

pub mod hist;

pub use hist::{HistBucket, Histogram, LatencyHistogram};

// ---------------------------------------------------------------------------
// Mode handling
// ---------------------------------------------------------------------------

/// How telemetry behaves for the rest of the process (see crate docs).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceMode {
    /// Tracing disabled: spans and counters are inert (the default).
    Off,
    /// Aggregate in memory; [`flush`] prints a human-readable table to
    /// stderr.
    Summary,
    /// Aggregate in memory; [`flush`] appends JSONL records to the file at
    /// the contained path (created if absent).
    Jsonl(String),
}

impl TraceMode {
    /// Parses an `MBSSL_TRACE`-style value: `off`/`0`/`none`, `summary`/
    /// `on`/`1`, or `jsonl:<path>`.
    pub fn parse(s: &str) -> Result<TraceMode, String> {
        match s.trim() {
            "" | "off" | "0" | "none" => Ok(TraceMode::Off),
            "summary" | "on" | "1" => Ok(TraceMode::Summary),
            other => match other.strip_prefix("jsonl:") {
                Some(path) if !path.is_empty() => Ok(TraceMode::Jsonl(path.to_string())),
                _ => Err(format!(
                    "unrecognized trace mode {other:?} (expected off | summary | jsonl:<path>)"
                )),
            },
        }
    }

    fn is_active(&self) -> bool {
        !matches!(self, TraceMode::Off)
    }
}

const STATE_UNINIT: u8 = 0;
const STATE_OFF: u8 = 1;
const STATE_ON: u8 = 2;

/// Three-valued so the steady-state fast path is one load with no
/// `OnceLock` indirection: 0 = not yet initialized from the environment.
static STATE: AtomicU8 = AtomicU8::new(STATE_UNINIT);

fn mode_cell() -> &'static Mutex<TraceMode> {
    static MODE: OnceLock<Mutex<TraceMode>> = OnceLock::new();
    MODE.get_or_init(|| Mutex::new(TraceMode::Off))
}

#[cold]
fn init_from_env() -> bool {
    let mode = std::env::var("MBSSL_TRACE")
        .ok()
        .and_then(|v| TraceMode::parse(&v).ok())
        .unwrap_or(TraceMode::Off);
    set_mode(mode);
    STATE.load(Ordering::Relaxed) == STATE_ON
}

/// Whether tracing is currently active. In the steady state this is a
/// single relaxed atomic load; the first call per process parses
/// `MBSSL_TRACE`.
#[inline]
pub fn enabled() -> bool {
    match STATE.load(Ordering::Relaxed) {
        STATE_ON => true,
        STATE_OFF => false,
        _ => init_from_env(),
    }
}

/// Overrides the trace mode for the rest of the process (or until the next
/// call). Takes precedence over `MBSSL_TRACE`; used by the `mbssl --trace`
/// flag and by tests that exercise both modes in one process.
pub fn set_mode(mode: TraceMode) {
    let state = if mode.is_active() { STATE_ON } else { STATE_OFF };
    *mode_cell().lock().unwrap() = mode;
    STATE.store(state, Ordering::Relaxed);
}

/// The currently configured mode (initializing from `MBSSL_TRACE` on first
/// use).
pub fn mode() -> TraceMode {
    enabled();
    mode_cell().lock().unwrap().clone()
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

#[derive(Clone, Default)]
struct SpanAgg {
    count: u64,
    total_ns: u64,
    min_ns: u64,
    max_ns: u64,
    bytes: u64,
    /// Constant-memory latency distribution across completions; the
    /// registry mutex already serializes updates, so the plain
    /// (non-atomic) histogram suffices here.
    hist: Histogram,
}

struct Registry {
    /// Span aggregates keyed by `(parent label, label)` — the parent-edge
    /// aggregation model (DESIGN.md §12): each completed span records under
    /// the edge from its enclosing span (or `""` at the root), so trace
    /// analysis can attribute self-time vs. child-time exactly.
    spans: HashMap<(&'static str, &'static str), SpanAgg>,
    counters: HashMap<&'static str, u64>,
    gauges: HashMap<&'static str, u64>,
}

fn registry() -> &'static Mutex<Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    REGISTRY.get_or_init(|| {
        Mutex::new(Registry {
            spans: HashMap::new(),
            counters: HashMap::new(),
            gauges: HashMap::new(),
        })
    })
}

/// A snapshot-producing callback: returns `(label, value)` pairs published
/// as gauges at every [`drain`]/[`flush`]. Plain `fn` pointers keep
/// registration allocation-free and deduplicatable.
pub type Collector = fn() -> Vec<(&'static str, u64)>;

fn collectors() -> &'static Mutex<Vec<Collector>> {
    static COLLECTORS: OnceLock<Mutex<Vec<Collector>>> = OnceLock::new();
    COLLECTORS.get_or_init(|| Mutex::new(Vec::new()))
}

/// Registers a gauge collector run at every [`drain`]/[`flush`].
/// Idempotent: registering the same `fn` twice keeps one copy. Subsystems
/// with their own always-on counters (the allocator, the worker pool)
/// register a collector once at init so their state appears in every trace
/// without telemetry calls on their hot paths.
pub fn register_collector(f: Collector) {
    let mut list = collectors().lock().unwrap();
    if !list.iter().any(|&g| std::ptr::fn_addr_eq(g, f)) {
        list.push(f);
    }
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

thread_local! {
    /// Labels of the spans currently open on this thread, outermost first.
    /// Only touched when tracing is enabled, so the disabled fast path
    /// never reads thread-local state. Each thread (main, prefetch
    /// producer, pool workers) has its own stack, so parent attribution is
    /// exact per thread and spans opened on worker threads root at `""`.
    static SPAN_STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// RAII span guard returned by [`span`]; records into the registry on drop.
#[must_use = "a span measures the scope it lives in; binding it to `_` drops it immediately"]
pub struct Span {
    label: &'static str,
    /// Label of the span that was open on this thread when this one
    /// started (`""` at the root).
    parent: &'static str,
    /// This span's index on the thread-local stack; drop truncates back to
    /// it, which stays correct even if guards are dropped out of order.
    depth: usize,
    start: Option<Instant>,
    bytes: u64,
}

impl Span {
    /// Attributes `n` processed bytes to this span (reported as the label's
    /// cumulative `bytes` in traces). No-op when tracing is disabled.
    #[inline]
    pub fn add_bytes(&mut self, n: u64) {
        if self.start.is_some() {
            self.bytes += n;
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let elapsed = start.elapsed().as_nanos() as u64;
        SPAN_STACK.with(|stack| stack.borrow_mut().truncate(self.depth));
        let mut reg = registry().lock().unwrap();
        let agg = reg.spans.entry((self.parent, self.label)).or_default();
        agg.count += 1;
        agg.total_ns += elapsed;
        agg.min_ns = if agg.count == 1 { elapsed } else { agg.min_ns.min(elapsed) };
        agg.max_ns = agg.max_ns.max(elapsed);
        agg.bytes += self.bytes;
        agg.hist.record(elapsed);
    }
}

/// Starts a scoped span timer. The returned guard records
/// `{count, total/min/max ns, bytes}` under the `(parent, label)` edge
/// when it drops, where `parent` is the label of the span already open on
/// this thread (the hierarchical attribution model — see DESIGN.md §12).
///
/// `label` is a `&'static str` by design: labels are a closed, greppable
/// vocabulary (`layer.what`, see DESIGN.md §12), not data.
///
/// Disabled-mode cost: one relaxed atomic load (see crate docs); the
/// thread-local parent stack is only touched when tracing is enabled.
#[inline]
pub fn span(label: &'static str) -> Span {
    if !enabled() {
        return Span { label, parent: "", depth: 0, start: None, bytes: 0 };
    }
    let (parent, depth) = SPAN_STACK.with(|stack| {
        let mut stack = stack.borrow_mut();
        let parent = stack.last().copied().unwrap_or("");
        let depth = stack.len();
        stack.push(label);
        (parent, depth)
    });
    Span { label, parent, depth, start: Some(Instant::now()), bytes: 0 }
}

// ---------------------------------------------------------------------------
// Counters and gauges
// ---------------------------------------------------------------------------

/// Adds `n` to the monotonic counter `label`. No-op when tracing is
/// disabled (one atomic load).
#[inline]
pub fn counter_add(label: &'static str, n: u64) {
    if !enabled() {
        return;
    }
    *registry().lock().unwrap().counters.entry(label).or_insert(0) += n;
}

/// Sets the gauge `label` to `value` (last write wins within a flush
/// interval). No-op when tracing is disabled.
#[inline]
pub fn gauge_set(label: &'static str, value: u64) {
    if !enabled() {
        return;
    }
    registry().lock().unwrap().gauges.insert(label, value);
}

// ---------------------------------------------------------------------------
// Draining and records
// ---------------------------------------------------------------------------

/// What a [`LabelStats`] record measures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecordKind {
    /// A scoped timer: `count`/`total_ns`/`min_ns`/`max_ns`/`bytes` are
    /// meaningful.
    Span,
    /// A monotonic counter: `value` is meaningful.
    Counter,
    /// A point-in-time gauge (explicit or collector-published): `value` is
    /// meaningful.
    Gauge,
}

impl RecordKind {
    /// The lowercase token used in the JSONL `kind` field.
    pub fn as_str(self) -> &'static str {
        match self {
            RecordKind::Span => "span",
            RecordKind::Counter => "counter",
            RecordKind::Gauge => "gauge",
        }
    }
}

/// Aggregated statistics for one label, as returned by [`drain`].
#[derive(Clone, Debug)]
pub struct LabelStats {
    /// The span/counter/gauge label.
    pub label: String,
    /// Label of the enclosing span at record time (spans only; `""` for
    /// root spans, counters, and gauges). One label can appear in several
    /// records, one per distinct parent edge.
    pub parent: String,
    /// Which instrument produced this record.
    pub kind: RecordKind,
    /// Number of span completions (spans only).
    pub count: u64,
    /// Total nanoseconds across completions (spans only).
    pub total_ns: u64,
    /// Fastest single completion (spans only).
    pub min_ns: u64,
    /// Slowest single completion (spans only).
    pub max_ns: u64,
    /// Estimated median completion time (spans only; from the
    /// constant-memory [`Histogram`], within [`hist::REL_ERROR`] of the
    /// exact nearest-rank quantile).
    pub p50_ns: u64,
    /// Estimated 90th-percentile completion time (spans only).
    pub p90_ns: u64,
    /// Estimated 99th-percentile completion time (spans only).
    pub p99_ns: u64,
    /// Cumulative bytes attributed via [`Span::add_bytes`] (spans only).
    pub bytes: u64,
    /// Counter/gauge value (counters and gauges only).
    pub value: u64,
}

/// Snapshots and resets the registry: runs the registered collectors,
/// then returns one record per `(parent, label)` span edge and one per
/// counter/gauge label, sorted by kind, label, then parent for
/// deterministic output. Returns an empty vec when tracing is disabled.
pub fn drain() -> Vec<LabelStats> {
    if !enabled() {
        return Vec::new();
    }
    let snapshots: Vec<Vec<(&'static str, u64)>> =
        collectors().lock().unwrap().iter().map(|f| f()).collect();
    let mut reg = registry().lock().unwrap();
    for snapshot in snapshots {
        for (label, value) in snapshot {
            reg.gauges.insert(label, value);
        }
    }
    let mut out: Vec<LabelStats> = Vec::new();
    for ((parent, label), agg) in reg.spans.drain() {
        out.push(LabelStats {
            label: label.to_string(),
            parent: parent.to_string(),
            kind: RecordKind::Span,
            count: agg.count,
            total_ns: agg.total_ns,
            min_ns: agg.min_ns,
            max_ns: agg.max_ns,
            p50_ns: agg.hist.quantile(0.5),
            p90_ns: agg.hist.quantile(0.9),
            p99_ns: agg.hist.quantile(0.99),
            bytes: agg.bytes,
            value: 0,
        });
    }
    for (label, value) in reg.counters.drain() {
        out.push(LabelStats {
            label: label.to_string(),
            parent: String::new(),
            kind: RecordKind::Counter,
            count: 0,
            total_ns: 0,
            min_ns: 0,
            max_ns: 0,
            p50_ns: 0,
            p90_ns: 0,
            p99_ns: 0,
            bytes: 0,
            value,
        });
    }
    for (label, value) in reg.gauges.drain() {
        out.push(LabelStats {
            label: label.to_string(),
            parent: String::new(),
            kind: RecordKind::Gauge,
            count: 0,
            total_ns: 0,
            min_ns: 0,
            max_ns: 0,
            p50_ns: 0,
            p90_ns: 0,
            p99_ns: 0,
            bytes: 0,
            value,
        });
    }
    out.sort_by(|a, b| {
        a.kind
            .as_str()
            .cmp(b.kind.as_str())
            .then(a.label.cmp(&b.label))
            .then(a.parent.cmp(&b.parent))
    });
    out
}

// ---------------------------------------------------------------------------
// Flushing
// ---------------------------------------------------------------------------

/// The `MBSSL_*` variables stamped into every meta record: the pool size,
/// the two path selectors (SIMD kernels, mmap'd container reads) and the
/// run's own trace settings.
const META_ENV_KEYS: [&str; 6] = [
    "MBSSL_THREADS",
    "MBSSL_SIMD",
    "MBSSL_DATA_MMAP",
    "MBSSL_TRACE",
    "MBSSL_RUN_DIR",
    "MBSSL_GIT_REV",
];

/// Run metadata stamped into every JSONL flush: the section, the git
/// revision, the core count and the `MBSSL_*` environment, so a trace
/// records what produced it.
pub fn meta_record(section: &str) -> String {
    let env: Vec<(String, String)> = META_ENV_KEYS
        .iter()
        .map(|k| (k.to_string(), std::env::var(k).unwrap_or_default()))
        .collect();
    meta_record_with(section, git_rev(), &env)
}

/// [`meta_record`] with the revision and environment stamp supplied by the
/// caller. Public so the round-trip tests can feed adversarial env values;
/// not part of the stable API.
#[doc(hidden)]
pub fn meta_record_with(section: &str, rev: Option<&str>, env: &[(String, String)]) -> String {
    let mut s = String::from("{\"kind\":\"meta\"");
    push_field_str(&mut s, "section", section);
    match rev {
        Some(rev) => push_field_str(&mut s, "git_rev", rev),
        None => s.push_str(",\"git_rev\":null"),
    }
    push_field_u64(&mut s, "unix_time_s", unix_time_s());
    push_field_u64(
        &mut s,
        "cores",
        std::thread::available_parallelism().map(|n| n.get() as u64).unwrap_or(0),
    );
    s.push_str(",\"env\":{");
    for (i, (key, value)) in env.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!("{}:{}", json_str(key), json_str(value)));
    }
    s.push_str("}}");
    s
}

fn unix_time_s() -> u64 {
    SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

/// The git revision stamped into traces and run ledgers: `MBSSL_GIT_REV`
/// when set and non-empty (the override for packaged binaries and CI),
/// otherwise the revision the build script embedded at compile time
/// (`None` when the crate was built outside a git checkout).
///
/// Deliberately **not** a runtime `git` subprocess: a binary run outside
/// the repo used to stamp `null` — or a *different* repo's rev — into
/// trace meta, and shelling out sat on the flush path.
pub fn git_rev() -> Option<&'static str> {
    static REV: OnceLock<Option<String>> = OnceLock::new();
    REV.get_or_init(|| {
        std::env::var("MBSSL_GIT_REV")
            .ok()
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .or_else(|| option_env!("MBSSL_BUILD_GIT_REV").map(str::to_string))
    })
    .as_deref()
}

/// JSON string literal (quotes + escapes) for `s`.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn push_field_str(out: &mut String, key: &str, value: &str) {
    out.push_str(&format!(",{}:{}", json_str(key), json_str(value)));
}

fn push_field_u64(out: &mut String, key: &str, value: u64) {
    out.push_str(&format!(",{}:{}", json_str(key), value));
}

/// The JSONL line for one drained record (no trailing newline). Span
/// records carry their `parent` edge (`""` for root spans); counters and
/// gauges omit the field.
pub fn record_to_jsonl(rec: &LabelStats, section: &str) -> String {
    let mut s = format!("{{\"kind\":{}", json_str(rec.kind.as_str()));
    push_field_str(&mut s, "section", section);
    push_field_str(&mut s, "label", &rec.label);
    match rec.kind {
        RecordKind::Span => {
            push_field_str(&mut s, "parent", &rec.parent);
            push_field_u64(&mut s, "count", rec.count);
            push_field_u64(&mut s, "total_ns", rec.total_ns);
            push_field_u64(&mut s, "min_ns", rec.min_ns);
            push_field_u64(&mut s, "max_ns", rec.max_ns);
            push_field_u64(&mut s, "p50_ns", rec.p50_ns);
            push_field_u64(&mut s, "p90_ns", rec.p90_ns);
            push_field_u64(&mut s, "p99_ns", rec.p99_ns);
            push_field_u64(&mut s, "bytes", rec.bytes);
        }
        RecordKind::Counter | RecordKind::Gauge => {
            push_field_u64(&mut s, "value", rec.value);
        }
    }
    s.push('}');
    s
}

/// Renders drained records as the human-readable summary table (span
/// edges sorted by total time, shown as `parent > label`, then
/// counters/gauges). The label column widens to the longest entry so long
/// labels never shear the grid.
pub fn render_table(stats: &[LabelStats]) -> String {
    let mut spans: Vec<&LabelStats> = stats.iter().filter(|r| r.kind == RecordKind::Span).collect();
    spans.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.label.cmp(&b.label)));
    let names: Vec<String> = spans
        .iter()
        .map(|r| {
            if r.parent.is_empty() {
                r.label.clone()
            } else {
                format!("{} > {}", r.parent, r.label)
            }
        })
        .collect();
    let others: Vec<&LabelStats> = stats.iter().filter(|r| r.kind != RecordKind::Span).collect();
    let width = names
        .iter()
        .map(|n| n.chars().count())
        .chain(others.iter().map(|r| r.label.chars().count()))
        .chain(["counter/gauge".len()]) // widest header
        .max()
        .unwrap_or(0);
    let mut out = String::new();
    out.push_str(&format!(
        "{:<width$} {:>10} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12}\n",
        "span", "count", "total_ms", "p50_us", "p90_us", "p99_us", "max_us", "bytes"
    ));
    for (name, r) in names.iter().zip(&spans) {
        out.push_str(&format!(
            "{:<width$} {:>10} {:>12.3} {:>12.1} {:>12.1} {:>12.1} {:>12.1} {:>12}\n",
            name,
            r.count,
            r.total_ns as f64 / 1e6,
            r.p50_ns as f64 / 1e3,
            r.p90_ns as f64 / 1e3,
            r.p99_ns as f64 / 1e3,
            r.max_ns as f64 / 1e3,
            r.bytes
        ));
    }
    if !others.is_empty() {
        out.push_str(&format!("{:<width$} {:>10}\n", "counter/gauge", "value"));
        for r in others {
            out.push_str(&format!("{:<width$} {:>10}\n", r.label, r.value));
        }
    }
    out
}

/// Drains the registry and emits it according to the current mode:
/// `Summary` prints [`render_table`] to stderr, `Jsonl` appends one meta
/// record plus one record per label to the trace file. `section` tags
/// every emitted record (benches use one flush per bench section; use
/// [`flush`] when a single section suffices).
pub fn flush_section(section: &str) {
    let current = mode();
    if !current.is_active() {
        return;
    }
    let stats = drain();
    match current {
        TraceMode::Off => {}
        TraceMode::Summary => {
            let mut err = std::io::stderr().lock();
            if section.is_empty() {
                let _ = writeln!(err, "-- telemetry --");
            } else {
                let _ = writeln!(err, "-- telemetry [{section}] --");
            }
            let _ = err.write_all(render_table(&stats).as_bytes());
        }
        TraceMode::Jsonl(path) => {
            let mut lines = String::new();
            lines.push_str(&meta_record(section));
            lines.push('\n');
            for rec in &stats {
                lines.push_str(&record_to_jsonl(rec, section));
                lines.push('\n');
            }
            append_to_trace(&path, &lines);
        }
    }
}

/// [`flush_section`] with an empty section tag.
pub fn flush() {
    flush_section("");
}

fn append_to_trace(path: &str, content: &str) {
    let result = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .and_then(|mut f| f.write_all(content.as_bytes()));
    if let Err(e) = result {
        eprintln!("mbssl-telemetry: cannot append to trace file {path}: {e}");
    }
}

// ---------------------------------------------------------------------------
// Progress lines
// ---------------------------------------------------------------------------

/// Writes one progress line to stderr atomically (single locked write, so
/// concurrent pool threads cannot interleave within a line) and, in JSONL
/// mode, appends a `{"kind":"progress"}` record to the trace immediately.
///
/// This is the structured replacement for ad-hoc `eprintln!` status
/// output: the default console behaviour is identical, but the line is
/// also captured in traces.
pub fn progress(line: &str) {
    {
        let mut err = std::io::stderr().lock();
        let _ = writeln!(err, "{line}");
    }
    if !enabled() {
        return;
    }
    if let TraceMode::Jsonl(path) = mode() {
        let mut rec = progress_record(line);
        rec.push('\n');
        append_to_trace(&path, &rec);
    }
}

/// The `{"kind":"progress"}` JSONL line for `line` (no trailing newline).
/// Public for the round-trip tests; not part of the stable API.
#[doc(hidden)]
pub fn progress_record(line: &str) -> String {
    let mut rec = String::from("{\"kind\":\"progress\"");
    push_field_str(&mut rec, "message", line);
    push_field_u64(&mut rec, "unix_time_s", unix_time_s());
    rec.push('}');
    rec
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;

    /// Tests mutate process-global mode/registry state; serialize them.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static TEST_LOCK: Mutex<()> = Mutex::new(());
        TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn parse_modes() {
        assert_eq!(TraceMode::parse("off").unwrap(), TraceMode::Off);
        assert_eq!(TraceMode::parse("0").unwrap(), TraceMode::Off);
        assert_eq!(TraceMode::parse("").unwrap(), TraceMode::Off);
        assert_eq!(TraceMode::parse("summary").unwrap(), TraceMode::Summary);
        assert_eq!(TraceMode::parse("on").unwrap(), TraceMode::Summary);
        assert_eq!(
            TraceMode::parse("jsonl:/tmp/t.jsonl").unwrap(),
            TraceMode::Jsonl("/tmp/t.jsonl".into())
        );
        assert!(TraceMode::parse("jsonl:").is_err());
        assert!(TraceMode::parse("verbose").is_err());
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _g = lock();
        set_mode(TraceMode::Off);
        {
            let mut s = span("test.noop");
            s.add_bytes(10);
        }
        counter_add("test.noop_counter", 3);
        gauge_set("test.noop_gauge", 7);
        set_mode(TraceMode::Summary);
        let drained = drain();
        assert!(
            drained.iter().all(|r| !r.label.starts_with("test.noop")),
            "disabled-mode instruments leaked into the registry"
        );
        set_mode(TraceMode::Off);
    }

    #[test]
    fn spans_aggregate_per_label() {
        let _g = lock();
        set_mode(TraceMode::Summary);
        drain(); // clear anything left by other tests
        for i in 0..3 {
            let mut s = span("test.agg");
            s.add_bytes(100 * (i + 1));
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        counter_add("test.calls", 2);
        counter_add("test.calls", 5);
        gauge_set("test.level", 1);
        gauge_set("test.level", 9);
        let stats = drain();
        let agg = stats.iter().find(|r| r.label == "test.agg").expect("span missing");
        assert_eq!(agg.kind, RecordKind::Span);
        assert_eq!(agg.count, 3);
        assert_eq!(agg.bytes, 600);
        assert!(agg.total_ns >= agg.max_ns && agg.max_ns >= agg.min_ns && agg.min_ns > 0);
        let calls = stats.iter().find(|r| r.label == "test.calls").unwrap();
        assert_eq!((calls.kind, calls.value), (RecordKind::Counter, 7));
        let level = stats.iter().find(|r| r.label == "test.level").unwrap();
        assert_eq!((level.kind, level.value), (RecordKind::Gauge, 9));
        // drain resets (collector-published gauges reappear each drain by
        // design, so check only the labels this test produced)
        let mine = ["test.agg", "test.calls", "test.level"];
        assert!(drain().iter().all(|r| !mine.contains(&r.label.as_str())));
        set_mode(TraceMode::Off);
    }

    #[test]
    fn spans_record_from_many_threads() {
        let _g = lock();
        set_mode(TraceMode::Summary);
        drain();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for _ in 0..50 {
                        let _s = span("test.mt");
                    }
                });
            }
        });
        let stats = drain();
        let agg = stats.iter().find(|r| r.label == "test.mt").unwrap();
        assert_eq!(agg.count, 400);
        set_mode(TraceMode::Off);
    }

    fn fake_collector() -> Vec<(&'static str, u64)> {
        vec![("test.collected", 42)]
    }

    #[test]
    fn collectors_publish_gauges_and_dedup() {
        let _g = lock();
        register_collector(fake_collector);
        register_collector(fake_collector); // second registration is a no-op
        set_mode(TraceMode::Summary);
        drain();
        let stats = drain();
        let hits: Vec<_> = stats.iter().filter(|r| r.label == "test.collected").collect();
        assert_eq!(hits.len(), 1);
        assert_eq!((hits[0].kind, hits[0].value), (RecordKind::Gauge, 42));
        set_mode(TraceMode::Off);
    }

    #[test]
    fn jsonl_escaping_and_fields() {
        let rec = LabelStats {
            label: "weird\"label\\with\nnewline".into(),
            parent: "outer span".into(),
            kind: RecordKind::Span,
            count: 2,
            total_ns: 10,
            min_ns: 3,
            max_ns: 7,
            p50_ns: 5,
            p90_ns: 7,
            p99_ns: 7,
            bytes: 0,
            value: 0,
        };
        let line = record_to_jsonl(&rec, "sec\t1");
        assert!(line.contains("\\\"label\\\\with\\n"));
        assert!(line.contains("\"section\":\"sec\\t1\""));
        assert!(line.contains("\"parent\":\"outer span\""));
        for field in ["\"kind\":\"span\"", "\"count\":2", "\"total_ns\":10", "\"min_ns\":3", "\"max_ns\":7", "\"p50_ns\":5", "\"p90_ns\":7", "\"p99_ns\":7", "\"bytes\":0"] {
            assert!(line.contains(field), "missing {field} in {line}");
        }
        let counter = LabelStats { kind: RecordKind::Counter, value: 5, ..rec.clone() };
        let counter_line = record_to_jsonl(&counter, "");
        assert!(counter_line.contains("\"value\":5"));
        assert!(!counter_line.contains("\"parent\""), "counters must omit parent: {counter_line}");
    }

    #[test]
    fn nested_spans_record_parent_edges() {
        let _g = lock();
        set_mode(TraceMode::Summary);
        drain();
        {
            let _outer = span("test.outer");
            {
                let _inner = span("test.inner");
            }
            {
                let _inner = span("test.inner");
            }
        }
        {
            let _inner = span("test.inner"); // root this time
        }
        let stats = drain();
        let edge = |parent: &str, label: &str| {
            stats
                .iter()
                .find(|r| r.kind == RecordKind::Span && r.parent == parent && r.label == label)
        };
        assert_eq!(edge("test.outer", "test.inner").expect("nested edge missing").count, 2);
        assert_eq!(edge("", "test.inner").expect("root edge missing").count, 1);
        assert_eq!(edge("", "test.outer").expect("outer root edge missing").count, 1);
        set_mode(TraceMode::Off);
    }

    #[test]
    fn span_stack_is_per_thread() {
        let _g = lock();
        set_mode(TraceMode::Summary);
        drain();
        let _outer = span("test.thread_outer");
        std::thread::scope(|scope| {
            scope.spawn(|| {
                // A fresh thread has an empty stack: this span must root at
                // "", not under the spawning thread's open span.
                let _s = span("test.thread_inner");
            });
        });
        drop(_outer);
        let stats = drain();
        assert!(
            stats
                .iter()
                .any(|r| r.label == "test.thread_inner" && r.parent.is_empty()),
            "cross-thread span inherited a parent: {stats:?}"
        );
        set_mode(TraceMode::Off);
    }

    #[test]
    fn flush_jsonl_writes_meta_and_records() {
        let _g = lock();
        let path = std::env::temp_dir().join(format!("mbssl_telemetry_test_{}.jsonl", std::process::id()));
        let path_str = path.to_string_lossy().to_string();
        let _ = std::fs::remove_file(&path);
        set_mode(TraceMode::Jsonl(path_str.clone()));
        drain();
        {
            let _s = span("test.flush");
        }
        flush_section("unit");
        set_mode(TraceMode::Off);
        let content = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = content.lines().collect();
        assert!(lines.len() >= 2, "expected meta + >=1 record, got {lines:?}");
        assert!(lines[0].contains("\"kind\":\"meta\""));
        assert!(lines[0].contains("\"cores\":"));
        assert!(lines[0].contains("\"env\":{"));
        assert!(lines.iter().any(|l| l.contains("\"label\":\"test.flush\"")));
        assert!(lines.iter().all(|l| l.contains("\"section\":\"unit\"") || l.contains("\"kind\":\"progress\"")));
        let _ = std::fs::remove_file(&path);
    }

    fn mk_span(label: &str, total: u64) -> LabelStats {
        LabelStats {
            label: label.into(),
            parent: String::new(),
            kind: RecordKind::Span,
            count: 1,
            total_ns: total,
            min_ns: total,
            max_ns: total,
            p50_ns: total,
            p90_ns: total,
            p99_ns: total,
            bytes: 0,
            value: 0,
        }
    }

    #[test]
    fn render_table_orders_spans_by_total_time() {
        let table = render_table(&[mk_span("small", 10), mk_span("big", 1000)]);
        let big_at = table.find("big").unwrap();
        let small_at = table.find("small").unwrap();
        assert!(big_at < small_at, "table not sorted by total time:\n{table}");
    }

    #[test]
    fn render_table_widens_to_longest_label() {
        let long = "kernel.exceptionally_long_label_that_used_to_shear_the_grid";
        let mut edge = mk_span(long, 500);
        edge.parent = "trainer.train_step".into();
        let table = render_table(&[mk_span("tiny", 10), edge]);
        // With the old fixed 28-char label column, a long label pushed its
        // numeric columns out of the grid; now the label column widens to
        // the longest entry, so the header and every span row (the rows
        // sharing the 6-column layout) have identical total width.
        let widths: Vec<usize> = table.lines().map(|l| l.chars().count()).collect();
        assert_eq!(widths.len(), 3, "unexpected table shape:\n{table}");
        assert!(
            widths.iter().all(|&w| w == widths[0]),
            "column grid sheared (line widths {widths:?}):\n{table}"
        );
        // The longest name must still be followed by a separating space.
        let name = format!("trainer.train_step > {long}");
        assert!(
            table.lines().any(|l| l.starts_with(&format!("{name} "))),
            "long label row missing separator:\n{table}"
        );
    }
}
