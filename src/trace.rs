//! Offline analysis of `MBSSL_TRACE=jsonl:` trace files: the engine
//! behind `mbssl trace summary` and `mbssl trace diff`.
//!
//! A trace file is a sequence of JSONL records cut by
//! `mbssl_telemetry::flush_section` — `meta`, `span`, `counter`, `gauge`,
//! and `progress` lines. Span records are **parent edges**: one record per
//! `(parent, label)` pair (DESIGN.md §12), which is exactly the shape this
//! module needs to attribute *self-time* (a span's total minus its
//! children's totals) instead of double-counting nested work the way a
//! flat per-label table does.
//!
//! Three consumers:
//! - [`render_summary`] — a self-time tree (per-edge % of wall, counts,
//!   bytes) for humans;
//! - [`collapsed_stacks`] — `a;b;c <self_ns>` lines consumable by standard
//!   flamegraph tooling (`flamegraph.pl`, `inferno`, speedscope);
//! - [`diff`] — span-by-span comparison of two traces with a regression
//!   tolerance, the CI gate behind `mbssl trace diff`.

use std::collections::BTreeMap;

use serde::value::Value;
use serde::Deserialize;

// ---------------------------------------------------------------------------
// Trace model and parsing
// ---------------------------------------------------------------------------

/// One aggregated `(parent, label)` span edge.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanEdge {
    /// Label of the enclosing span (`""` for root spans).
    pub parent: String,
    /// The span's own label.
    pub label: String,
    /// Completions recorded on this edge.
    pub count: u64,
    /// Total nanoseconds across completions.
    pub total_ns: u64,
    /// Fastest single completion.
    pub min_ns: u64,
    /// Slowest single completion.
    pub max_ns: u64,
    /// Cumulative bytes attributed via `Span::add_bytes`.
    pub bytes: u64,
}

/// A parsed trace file: span edges plus counters/gauges, aggregated
/// across flush sections (or one section when filtered).
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// Aggregated span edges, keyed by `(parent, label)`.
    pub edges: BTreeMap<(String, String), SpanEdge>,
    /// Monotonic counters (summed across sections).
    pub counters: BTreeMap<String, u64>,
    /// Gauges (last write wins across sections).
    pub gauges: BTreeMap<String, u64>,
    /// Flush sections seen, in file order, deduplicated.
    pub sections: Vec<String>,
    /// `git_rev` values from meta records (deduplicated).
    pub git_revs: Vec<String>,
}

fn obj_get<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    match v {
        Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, val)| val),
        _ => None,
    }
}

fn get_str(v: &Value, key: &str) -> Option<String> {
    match obj_get(v, key) {
        Some(Value::Str(s)) => Some(s.clone()),
        _ => None,
    }
}

fn get_u64(v: &Value, key: &str) -> Option<u64> {
    obj_get(v, key).and_then(|n| u64::from_value(n).ok())
}

impl Trace {
    /// Parses a trace file from disk. `section`: restrict to one flush
    /// section (`None` aggregates all sections — right for single-command
    /// traces, where there is only one anyway).
    pub fn parse_file(path: &str, section: Option<&str>) -> Result<Trace, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        Trace::parse_str(&text, section).map_err(|e| format!("{path}: {e}"))
    }

    /// Parses trace text (one JSON record per line; blank lines allowed).
    pub fn parse_str(text: &str, section: Option<&str>) -> Result<Trace, String> {
        let mut trace = Trace::default();
        for (lineno, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let rec: Value = serde_json::from_str(line)
                .map_err(|e| format!("line {}: invalid JSON ({e})", lineno + 1))?;
            let kind = get_str(&rec, "kind")
                .ok_or_else(|| format!("line {}: record without kind", lineno + 1))?;
            if kind == "progress" {
                continue; // free-form console lines, not aggregates
            }
            let rec_section = get_str(&rec, "section").unwrap_or_default();
            if let Some(want) = section {
                if rec_section != want {
                    continue;
                }
            }
            match kind.as_str() {
                "meta" => {
                    if !trace.sections.contains(&rec_section) {
                        trace.sections.push(rec_section);
                    }
                    if let Some(rev) = get_str(&rec, "git_rev") {
                        if !trace.git_revs.contains(&rev) {
                            trace.git_revs.push(rev);
                        }
                    }
                }
                "span" => {
                    let label = get_str(&rec, "label")
                        .ok_or_else(|| format!("line {}: span without label", lineno + 1))?;
                    // Traces cut before the hierarchy existed have no
                    // parent field; treat their spans as roots.
                    let parent = get_str(&rec, "parent").unwrap_or_default();
                    let count = get_u64(&rec, "count").unwrap_or(0);
                    let total_ns = get_u64(&rec, "total_ns").unwrap_or(0);
                    let min_ns = get_u64(&rec, "min_ns").unwrap_or(0);
                    let max_ns = get_u64(&rec, "max_ns").unwrap_or(0);
                    let bytes = get_u64(&rec, "bytes").unwrap_or(0);
                    let edge = trace
                        .edges
                        .entry((parent.clone(), label.clone()))
                        .or_insert_with(|| SpanEdge {
                            parent,
                            label,
                            count: 0,
                            total_ns: 0,
                            min_ns: u64::MAX,
                            max_ns: 0,
                            bytes: 0,
                        });
                    edge.count += count;
                    edge.total_ns += total_ns;
                    edge.min_ns = edge.min_ns.min(min_ns);
                    edge.max_ns = edge.max_ns.max(max_ns);
                    edge.bytes += bytes;
                }
                "counter" => {
                    let label = get_str(&rec, "label")
                        .ok_or_else(|| format!("line {}: counter without label", lineno + 1))?;
                    *trace.counters.entry(label).or_insert(0) += get_u64(&rec, "value").unwrap_or(0);
                }
                "gauge" => {
                    let label = get_str(&rec, "label")
                        .ok_or_else(|| format!("line {}: gauge without label", lineno + 1))?;
                    trace.gauges.insert(label, get_u64(&rec, "value").unwrap_or(0));
                }
                other => return Err(format!("line {}: unknown record kind {other:?}", lineno + 1)),
            }
        }
        Ok(trace)
    }

    /// Total wall time attributed to root spans (`parent == ""`), the
    /// denominator for `% of wall` columns. Per-thread span stacks mean
    /// worker-thread spans (`pool.job`) root here alongside the main
    /// thread's `trainer.epoch`/`eval.evaluate`.
    pub fn wall_ns(&self) -> u64 {
        self.edges
            .values()
            .filter(|e| e.parent.is_empty())
            .map(|e| e.total_ns)
            .sum()
    }

    /// Total time recorded for `label` across all of its parent edges.
    pub fn label_total_ns(&self, label: &str) -> u64 {
        self.edges
            .values()
            .filter(|e| e.label == label)
            .map(|e| e.total_ns)
            .sum()
    }

    /// Total time recorded by direct children of `label` (all edges whose
    /// parent is `label`).
    pub fn child_total_ns(&self, label: &str) -> u64 {
        self.edges
            .values()
            .filter(|e| e.parent == label)
            .map(|e| e.total_ns)
            .sum()
    }

    /// Self-time of `label`: its total minus its direct children's total
    /// (saturating — clock jitter can put children a hair above the
    /// parent).
    pub fn self_ns(&self, label: &str) -> u64 {
        self.label_total_ns(label).saturating_sub(self.child_total_ns(label))
    }
}

// ---------------------------------------------------------------------------
// Self-time tree
// ---------------------------------------------------------------------------

/// One row of the rendered self-time tree.
struct TreeRow {
    depth: usize,
    label: String,
    /// This edge's total, scaled by the path share (see module docs).
    total_ns: f64,
    self_ns: f64,
    count: u64,
    bytes: u64,
    /// True when this label also appears elsewhere and recursion stopped
    /// here to avoid double-counting.
    truncated: bool,
}

/// Walks the edge graph from the roots, proportionally attributing a
/// label's children to each of its parent edges (an edge-based profile in
/// the gprof tradition: when `kernel.gemm_nn` ran under both
/// `trainer.train_step` and `eval.score_chunk`, each occurrence shows the
/// children scaled by that edge's share of the label's total time).
fn build_tree(trace: &Trace) -> Vec<TreeRow> {
    let mut children: BTreeMap<&str, Vec<&SpanEdge>> = BTreeMap::new();
    for edge in trace.edges.values() {
        children.entry(edge.parent.as_str()).or_default().push(edge);
    }
    for list in children.values_mut() {
        list.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.label.cmp(&b.label)));
    }
    let mut rows = Vec::new();
    let mut path: Vec<&str> = Vec::new();
    fn visit<'t>(
        trace: &'t Trace,
        children: &BTreeMap<&str, Vec<&'t SpanEdge>>,
        rows: &mut Vec<TreeRow>,
        path: &mut Vec<&'t str>,
        edge: &'t SpanEdge,
        scale: f64,
        depth: usize,
    ) {
        let label_total = trace.label_total_ns(&edge.label);
        let child_total = trace.child_total_ns(&edge.label);
        // This edge's share of everything recorded under its label.
        let edge_share = if label_total > 0 {
            edge.total_ns as f64 / label_total as f64
        } else {
            0.0
        };
        let total = edge.total_ns as f64 * scale;
        let self_ns = (edge.total_ns.saturating_sub((child_total as f64 * edge_share) as u64))
            as f64
            * scale;
        let recursive = path.contains(&edge.label.as_str());
        let has_children = children.contains_key(edge.label.as_str());
        rows.push(TreeRow {
            depth,
            label: edge.label.clone(),
            total_ns: total,
            self_ns: if recursive && has_children { total } else { self_ns },
            count: edge.count,
            bytes: edge.bytes,
            truncated: recursive && has_children,
        });
        if recursive {
            return; // cycle guard: don't re-expand a label on its own path
        }
        if let Some(kids) = children.get(edge.label.as_str()) {
            path.push(&edge.label);
            for kid in kids {
                visit(trace, children, rows, path, kid, scale * edge_share, depth + 1);
            }
            path.pop();
        }
    }
    if let Some(roots) = children.get("") {
        for root in roots {
            visit(trace, &children, &mut rows, &mut path, root, 1.0, 0);
        }
    }
    rows
}

/// Renders the self-time tree for `mbssl trace summary`: per edge, its %
/// of wall, self-% of wall, totals, counts, and bytes, indented by depth.
pub fn render_summary(trace: &Trace) -> String {
    let rows = build_tree(trace);
    let wall = trace.wall_ns().max(1) as f64;
    let names: Vec<String> = rows
        .iter()
        .map(|r| {
            let mut name = format!("{}{}", "  ".repeat(r.depth), r.label);
            if r.truncated {
                name.push_str(" (recursive)");
            }
            name
        })
        .collect();
    let width = names
        .iter()
        .map(|n| n.chars().count())
        .chain(["span".len()])
        .max()
        .unwrap_or(4);
    let mut out = String::new();
    out.push_str(&format!(
        "{:<width$} {:>8} {:>8} {:>12} {:>12} {:>10} {:>12}\n",
        "span", "wall%", "self%", "total_ms", "self_ms", "count", "bytes"
    ));
    for (name, r) in names.iter().zip(&rows) {
        out.push_str(&format!(
            "{:<width$} {:>8.2} {:>8.2} {:>12.3} {:>12.3} {:>10} {:>12}\n",
            name,
            100.0 * r.total_ns / wall,
            100.0 * r.self_ns / wall,
            r.total_ns / 1e6,
            r.self_ns / 1e6,
            r.count,
            r.bytes
        ));
    }
    if !trace.counters.is_empty() || !trace.gauges.is_empty() {
        out.push_str(&format!("{:<width$} {:>8}\n", "counter/gauge", "value"));
        for (label, value) in trace.counters.iter().chain(trace.gauges.iter()) {
            out.push_str(&format!("{:<width$} {:>8}\n", label, value));
        }
    }
    out
}

/// Collapsed-stack ("folded") lines: `root;child;leaf <self_ns>`, one per
/// tree row with nonzero self-time, consumable by `flamegraph.pl`,
/// `inferno-flamegraph`, or speedscope.
pub fn collapsed_stacks(trace: &Trace) -> String {
    let rows = build_tree(trace);
    let mut stack: Vec<String> = Vec::new();
    let mut out = String::new();
    for r in &rows {
        stack.truncate(r.depth);
        stack.push(r.label.clone());
        let self_ns = r.self_ns as u64;
        if self_ns > 0 {
            out.push_str(&stack.join(";"));
            out.push(' ');
            out.push_str(&self_ns.to_string());
            out.push('\n');
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Diff
// ---------------------------------------------------------------------------

/// What `diff` compares per span edge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DiffMetric {
    /// Mean nanoseconds per completion (`total_ns / count`); tolerance is
    /// a relative percentage. The default: robust to iteration-count
    /// differences between runs.
    Mean,
    /// Total nanoseconds; tolerance is a relative percentage. Right when
    /// both traces cover the same workload (same epochs/batches).
    Total,
    /// Share of wall time in percent; tolerance is **percentage points**
    /// of wall. Machine-portable: compares where time goes, not how fast
    /// the machine is — the right metric for cross-machine CI gates.
    Share,
}

impl DiffMetric {
    /// Parses a `--metric` value.
    pub fn parse(s: &str) -> Result<DiffMetric, String> {
        match s {
            "mean" => Ok(DiffMetric::Mean),
            "total" => Ok(DiffMetric::Total),
            "share" => Ok(DiffMetric::Share),
            other => Err(format!("unknown metric {other:?} (expected mean | total | share)")),
        }
    }
}

/// Knobs for [`diff`].
#[derive(Clone, Debug)]
pub struct DiffOptions {
    /// Allowed regression before an edge fails the diff: relative percent
    /// for `mean`/`total`, percentage points of wall for `share`.
    pub tol_pct: f64,
    pub metric: DiffMetric,
    /// Edges below this share of wall (in both traces) are reported but
    /// never gate: sub-noise-floor spans jitter wildly in relative terms.
    pub min_share_pct: f64,
}

impl Default for DiffOptions {
    fn default() -> Self {
        DiffOptions {
            tol_pct: 2.0,
            metric: DiffMetric::Mean,
            min_share_pct: 1.0,
        }
    }
}

/// Per-edge outcome of a [`diff`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DiffStatus {
    /// Within tolerance (or improved).
    Ok,
    /// Regressed beyond tolerance — gates the exit code.
    Regressed,
    /// Present only in the new trace (informational, never gates: there
    /// is nothing to regress against).
    New,
    /// Present only in the base trace (informational).
    Removed,
    /// Below the share floor in both traces, or zero-count — compared but
    /// never gates.
    BelowFloor,
}

/// One compared span edge.
#[derive(Clone, Debug)]
pub struct DiffRow {
    pub parent: String,
    pub label: String,
    /// Metric value in the base trace (ns or share-%, per the metric).
    pub base: f64,
    /// Metric value in the new trace.
    pub new: f64,
    /// Relative % change for `mean`/`total`, share-point change for
    /// `share`. Positive = slower/bigger.
    pub delta: f64,
    pub status: DiffStatus,
}

/// Result of comparing two traces span-by-span.
#[derive(Clone, Debug)]
pub struct DiffReport {
    pub rows: Vec<DiffRow>,
    pub metric: DiffMetric,
    pub tol_pct: f64,
    /// Number of rows with [`DiffStatus::Regressed`]; nonzero means the
    /// diff fails.
    pub regressions: usize,
}

/// Compares two parsed traces edge-by-edge under `opts`. An edge
/// regresses when its metric worsens beyond `tol_pct` *and* it is above
/// the share noise floor in at least one trace; edges missing from either
/// side and zero-count edges are reported but never gate.
pub fn diff(base: &Trace, new: &Trace, opts: &DiffOptions) -> DiffReport {
    let base_wall = base.wall_ns().max(1) as f64;
    let new_wall = new.wall_ns().max(1) as f64;
    let mut keys: Vec<&(String, String)> = base.edges.keys().collect();
    for k in new.edges.keys() {
        if !base.edges.contains_key(k) {
            keys.push(k);
        }
    }
    keys.sort();
    let mut rows = Vec::new();
    let mut regressions = 0usize;
    for key in keys {
        let b = base.edges.get(key);
        let n = new.edges.get(key);
        let metric_of = |e: &SpanEdge, wall: f64| -> Option<f64> {
            match opts.metric {
                DiffMetric::Mean => {
                    if e.count == 0 {
                        None // zero-count edge: no meaningful per-call time
                    } else {
                        Some(e.total_ns as f64 / e.count as f64)
                    }
                }
                DiffMetric::Total => Some(e.total_ns as f64),
                DiffMetric::Share => Some(100.0 * e.total_ns as f64 / wall),
            }
        };
        let (status, base_v, new_v, delta) = match (b, n) {
            (None, Some(e)) => (DiffStatus::New, 0.0, metric_of(e, new_wall).unwrap_or(0.0), 0.0),
            (Some(e), None) => {
                (DiffStatus::Removed, metric_of(e, base_wall).unwrap_or(0.0), 0.0, 0.0)
            }
            (Some(be), Some(ne)) => {
                let share_b = 100.0 * be.total_ns as f64 / base_wall;
                let share_n = 100.0 * ne.total_ns as f64 / new_wall;
                match (metric_of(be, base_wall), metric_of(ne, new_wall)) {
                    (Some(bv), Some(nv)) => {
                        let delta = match opts.metric {
                            DiffMetric::Share => nv - bv,
                            _ => {
                                if bv == 0.0 {
                                    if nv == 0.0 {
                                        0.0
                                    } else {
                                        f64::INFINITY
                                    }
                                } else {
                                    100.0 * (nv - bv) / bv
                                }
                            }
                        };
                        let significant = share_b.max(share_n) >= opts.min_share_pct;
                        let status = if !significant {
                            DiffStatus::BelowFloor
                        } else if delta > opts.tol_pct {
                            DiffStatus::Regressed
                        } else {
                            DiffStatus::Ok
                        };
                        (status, bv, nv, delta)
                    }
                    // Zero-count on either side under the mean metric.
                    _ => (DiffStatus::BelowFloor, 0.0, 0.0, 0.0),
                }
            }
            (None, None) => unreachable!("key from union of both maps"),
        };
        if status == DiffStatus::Regressed {
            regressions += 1;
        }
        rows.push(DiffRow {
            parent: key.0.clone(),
            label: key.1.clone(),
            base: base_v,
            new: new_v,
            delta,
            status,
        });
    }
    DiffReport { rows, metric: opts.metric, tol_pct: opts.tol_pct, regressions }
}

/// Renders a [`DiffReport`] as a table, regressions first.
pub fn render_diff(report: &DiffReport) -> String {
    let unit = match report.metric {
        DiffMetric::Mean => ("base_us/op", "new_us/op", 1e-3),
        DiffMetric::Total => ("base_ms", "new_ms", 1e-6),
        DiffMetric::Share => ("base_%wall", "new_%wall", 1.0),
    };
    let mut rows: Vec<&DiffRow> = report.rows.iter().collect();
    rows.sort_by(|a, b| {
        let rank = |s: DiffStatus| match s {
            DiffStatus::Regressed => 0,
            DiffStatus::Ok => 1,
            DiffStatus::New => 2,
            DiffStatus::Removed => 3,
            DiffStatus::BelowFloor => 4,
        };
        rank(a.status)
            .cmp(&rank(b.status))
            .then(b.delta.partial_cmp(&a.delta).unwrap_or(std::cmp::Ordering::Equal))
    });
    let names: Vec<String> = rows
        .iter()
        .map(|r| {
            if r.parent.is_empty() {
                r.label.clone()
            } else {
                format!("{} > {}", r.parent, r.label)
            }
        })
        .collect();
    let width = names
        .iter()
        .map(|n| n.chars().count())
        .chain(["span".len()])
        .max()
        .unwrap_or(4);
    let delta_header = match report.metric {
        DiffMetric::Share => "delta_pts",
        _ => "delta_%",
    };
    let mut out = String::new();
    out.push_str(&format!(
        "{:<width$} {:>12} {:>12} {:>10} {:>10}\n",
        "span", unit.0, unit.1, delta_header, "status"
    ));
    for (name, r) in names.iter().zip(&rows) {
        let status = match r.status {
            DiffStatus::Ok => "ok",
            DiffStatus::Regressed => "REGRESSED",
            DiffStatus::New => "new",
            DiffStatus::Removed => "removed",
            DiffStatus::BelowFloor => "floor",
        };
        out.push_str(&format!(
            "{:<width$} {:>12.3} {:>12.3} {:>+10.2} {:>10}\n",
            name,
            r.base * unit.2,
            r.new * unit.2,
            r.delta,
            status
        ));
    }
    out.push_str(&format!(
        "{} edges compared, {} regression(s) beyond {}{} tolerance\n",
        report.rows.len(),
        report.regressions,
        report.tol_pct,
        match report.metric {
            DiffMetric::Share => " share-point",
            _ => "%",
        }
    ));
    out
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;

    fn span_line(section: &str, parent: &str, label: &str, count: u64, total: u64) -> String {
        format!(
            "{{\"kind\":\"span\",\"section\":\"{section}\",\"label\":\"{label}\",\
             \"parent\":\"{parent}\",\"count\":{count},\"total_ns\":{total},\
             \"min_ns\":1,\"max_ns\":{total},\"bytes\":0}}"
        )
    }

    /// A synthetic two-level trace: root epoch (1000ns) with train_step
    /// (800) and eval (100) children; train_step has a gemm child (600).
    fn sample_trace(step_total: u64, gemm_total: u64) -> Trace {
        let text = [
            "{\"kind\":\"meta\",\"section\":\"train\",\"git_rev\":\"abc\",\"unix_time_s\":1,\"cores\":4,\"env\":{}}".to_string(),
            span_line("train", "", "trainer.epoch", 2, 1000),
            span_line("train", "trainer.epoch", "trainer.train_step", 10, step_total),
            span_line("train", "trainer.epoch", "eval.evaluate", 1, 100),
            span_line("train", "trainer.train_step", "kernel.gemm_nn", 40, gemm_total),
            "{\"kind\":\"gauge\",\"section\":\"train\",\"label\":\"alloc.hits\",\"value\":7}".to_string(),
            "{\"kind\":\"progress\",\"message\":\"epoch 0\",\"unix_time_s\":2}".to_string(),
        ]
        .join("\n");
        Trace::parse_str(&text, None).unwrap()
    }

    #[test]
    fn parse_aggregates_edges_and_skips_progress() {
        let t = sample_trace(800, 600);
        assert_eq!(t.edges.len(), 4);
        assert_eq!(t.wall_ns(), 1000);
        assert_eq!(t.gauges.get("alloc.hits"), Some(&7));
        assert_eq!(t.git_revs, vec!["abc".to_string()]);
        let step = &t.edges[&("trainer.epoch".to_string(), "trainer.train_step".to_string())];
        assert_eq!((step.count, step.total_ns), (10, 800));
    }

    #[test]
    fn self_time_is_total_minus_children() {
        let t = sample_trace(800, 600);
        // epoch: total 1000, children 800 + 100 → self 100
        assert_eq!(t.self_ns("trainer.epoch"), 100);
        // train_step: total 800, child gemm 600 → self 200
        assert_eq!(t.self_ns("trainer.train_step"), 200);
        // leaf: self == total
        assert_eq!(t.self_ns("kernel.gemm_nn"), 600);
        // The tree preserves the identity: self + children == total.
        let summary = render_summary(&t);
        assert!(summary.contains("trainer.epoch"), "{summary}");
        assert!(summary.contains("  trainer.train_step"), "missing indented child:\n{summary}");
        assert!(summary.contains("    kernel.gemm_nn"), "missing grandchild:\n{summary}");
    }

    #[test]
    fn collapsed_stacks_emit_full_paths() {
        let t = sample_trace(800, 600);
        let folded = collapsed_stacks(&t);
        assert!(
            folded.contains("trainer.epoch;trainer.train_step;kernel.gemm_nn 600"),
            "{folded}"
        );
        assert!(folded.contains("trainer.epoch;trainer.train_step 200"), "{folded}");
        assert!(folded.contains("trainer.epoch 100"), "{folded}");
        // Folded values partition wall time exactly.
        let total: u64 = folded
            .lines()
            .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
            .sum();
        assert_eq!(total, t.wall_ns());
    }

    #[test]
    fn identical_traces_diff_clean() {
        let t = sample_trace(800, 600);
        let report = diff(&t, &t, &DiffOptions { tol_pct: 2.0, metric: DiffMetric::Mean, min_share_pct: 1.0 });
        assert_eq!(report.regressions, 0, "{:#?}", report.rows);
        assert!(report.rows.iter().all(|r| r.delta == 0.0));
    }

    #[test]
    fn slowed_span_regresses_beyond_tolerance() {
        let base = sample_trace(800, 600);
        let slowed = sample_trace(1600, 1400); // gemm 600 → 1400 ns, same counts
        let report = diff(&base, &slowed, &DiffOptions { tol_pct: 2.0, metric: DiffMetric::Mean, min_share_pct: 1.0 });
        assert!(report.regressions >= 1, "{}", render_diff(&report));
        let gemm = report
            .rows
            .iter()
            .find(|r| r.label == "kernel.gemm_nn")
            .unwrap();
        assert_eq!(gemm.status, DiffStatus::Regressed);
        assert!((gemm.delta - 133.33).abs() < 0.1, "delta {}", gemm.delta);
        // Share metric flags it too: gemm's share of wall jumped.
        let report = diff(&base, &slowed, &DiffOptions { tol_pct: 2.0, metric: DiffMetric::Share, min_share_pct: 1.0 });
        assert!(report.regressions >= 1, "{}", render_diff(&report));
    }

    #[test]
    fn missing_span_in_base_is_informational_not_regression() {
        let base = sample_trace(800, 600);
        let mut text = [
            span_line("train", "", "trainer.epoch", 2, 1000),
            span_line("train", "trainer.epoch", "trainer.train_step", 10, 800),
            span_line("train", "trainer.epoch", "eval.evaluate", 1, 100),
            span_line("train", "trainer.train_step", "kernel.gemm_nn", 40, 600),
            span_line("train", "trainer.train_step", "kernel.sdpa", 5, 50),
        ]
        .join("\n");
        text.push('\n');
        let new = Trace::parse_str(&text, None).unwrap();
        let report = diff(&base, &new, &DiffOptions::default());
        let sdpa = report.rows.iter().find(|r| r.label == "kernel.sdpa").unwrap();
        assert_eq!(sdpa.status, DiffStatus::New);
        assert_eq!(report.regressions, 0, "{}", render_diff(&report));
        // And the reverse direction reports it as removed, still clean.
        let report = diff(&new, &base, &DiffOptions::default());
        let sdpa = report.rows.iter().find(|r| r.label == "kernel.sdpa").unwrap();
        assert_eq!(sdpa.status, DiffStatus::Removed);
        assert_eq!(report.regressions, 0);
    }

    #[test]
    fn zero_count_spans_never_gate() {
        let base_text = span_line("t", "", "weird.zero", 0, 0);
        let new_text = span_line("t", "", "weird.zero", 0, 500);
        let base = Trace::parse_str(&base_text, None).unwrap();
        let new = Trace::parse_str(&new_text, None).unwrap();
        let report = diff(
            &base,
            &new,
            &DiffOptions { tol_pct: 2.0, metric: DiffMetric::Mean, min_share_pct: 1.0 },
        );
        assert_eq!(report.regressions, 0, "{}", render_diff(&report));
        assert_eq!(report.rows[0].status, DiffStatus::BelowFloor);
    }

    #[test]
    fn below_floor_spans_never_gate() {
        // A 0.1%-of-wall span that triples must not fail the diff.
        let base_text = [
            span_line("t", "", "big.root", 10, 1_000_000),
            span_line("t", "big.root", "tiny.leaf", 10, 1_000),
        ]
        .join("\n");
        let new_text = [
            span_line("t", "", "big.root", 10, 1_000_000),
            span_line("t", "big.root", "tiny.leaf", 10, 3_000),
        ]
        .join("\n");
        let base = Trace::parse_str(&base_text, None).unwrap();
        let new = Trace::parse_str(&new_text, None).unwrap();
        let report = diff(
            &base,
            &new,
            &DiffOptions { tol_pct: 2.0, metric: DiffMetric::Mean, min_share_pct: 1.0 },
        );
        assert_eq!(report.regressions, 0, "{}", render_diff(&report));
        let leaf = report.rows.iter().find(|r| r.label == "tiny.leaf").unwrap();
        assert_eq!(leaf.status, DiffStatus::BelowFloor);
    }

    #[test]
    fn section_filter_restricts_aggregation() {
        let text = [
            span_line("a", "", "x", 1, 100),
            span_line("b", "", "x", 1, 900),
        ]
        .join("\n");
        let all = Trace::parse_str(&text, None).unwrap();
        assert_eq!(all.wall_ns(), 1000);
        let only_a = Trace::parse_str(&text, Some("a")).unwrap();
        assert_eq!(only_a.wall_ns(), 100);
    }

    #[test]
    fn legacy_traces_without_parent_parse_as_roots() {
        let text = "{\"kind\":\"span\",\"section\":\"s\",\"label\":\"old.span\",\
                    \"count\":1,\"total_ns\":10,\"min_ns\":10,\"max_ns\":10,\"bytes\":0}";
        let t = Trace::parse_str(text, None).unwrap();
        assert_eq!(t.edges[&(String::new(), "old.span".to_string())].total_ns, 10);
        assert_eq!(t.wall_ns(), 10);
    }
}
