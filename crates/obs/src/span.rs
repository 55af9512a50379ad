//! Hierarchical query spans and trace export.
//!
//! One [`Tracer`] per traced query records a tree of [`Span`]s: the root
//! covers the whole query, each operator gets a child, and hot paths
//! (Monte-Carlo evaluation, bootstrap accuracy) may open grandchildren.
//! Spans carry typed attributes (`rows_in`, `ci_width`, `df_n`,
//! `resamples`, …) so the accuracy signals the paper makes first-class
//! stay attached to the operator that produced them.
//!
//! Well-formedness invariants (property-tested in `tests/prop_span.rs`):
//!
//! 1. every non-root span's parent exists and was started earlier;
//! 2. a child's `[start, end]` interval nests within its parent's;
//! 3. the Chrome trace-event export round-trips through a strict JSON
//!    parser.
//!
//! Finished traces land in the process-global [`ring`] (capacity
//! [`crate::TRACE_CAP`], shared with the journal), drained by the server's
//! `TRACEX` command and `ausdb serve --trace-json` as Chrome trace-event
//! JSON that opens directly in `chrome://tracing` / Perfetto.
//!
//! Tracing is observational: recording reads clocks and counters only,
//! never an RNG or a seed, so results stay bit-identical traced or not.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Identifier of one span within its [`Tracer`] (1-based; an id is the
/// span's position in creation order). Id 0 is the null span: returned
/// by [`Tracer::start`] once the per-trace span cap is reached, and
/// ignored by `end`/`attr`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpanId(u64);

impl SpanId {
    /// The raw 1-based id (0 for the null span).
    pub fn get(&self) -> u64 {
        self.0
    }
}

/// Hard cap on spans per trace: a pathological query (e.g. a span per
/// emitted tuple) degrades to dropped spans, never unbounded memory.
const MAX_SPANS: usize = 4096;

/// A typed span attribute value.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// Unsigned integer (counts: rows, batches, resamples).
    U64(u64),
    /// Floating point (widths, milliseconds).
    F64(f64),
    /// Free-form text (stream names, modes).
    Str(String),
}

impl std::fmt::Display for AttrValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AttrValue::U64(v) => write!(f, "{v}"),
            AttrValue::F64(v) => write!(f, "{v}"),
            AttrValue::Str(s) => f.write_str(s),
        }
    }
}

/// One finished span of a [`Trace`].
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// This span's id (1-based creation order).
    pub id: SpanId,
    /// Parent span, `None` for the root.
    pub parent: Option<SpanId>,
    /// Span name (`query t`, `Filter`, `bootstrap_accuracy`, …).
    pub name: String,
    /// Start, microseconds since the tracer's epoch (monotonic clock).
    pub start_us: u64,
    /// End, microseconds since the tracer's epoch (`end_us >= start_us`).
    pub end_us: u64,
    /// Typed attributes in recording order.
    pub attrs: Vec<(&'static str, AttrValue)>,
}

impl Span {
    /// Span duration in microseconds.
    pub fn duration_us(&self) -> u64 {
        self.end_us.saturating_sub(self.start_us)
    }

    /// The attribute recorded under `key`, if any.
    pub fn attr(&self, key: &str) -> Option<&AttrValue> {
        self.attrs.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }
}

struct SpanRec {
    parent: Option<SpanId>,
    name: String,
    start_us: u64,
    end_us: Option<u64>,
    attrs: Vec<(&'static str, AttrValue)>,
}

/// Records one query's span tree. Shared as `Arc` between the executor
/// and the operator metrics handles; all mutation goes through one mutex
/// (spans open/close a handful of times per query, never per tuple).
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<SpanRec>>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer").field("spans", &self.lock().len()).finish_non_exhaustive()
    }
}

impl Tracer {
    /// A fresh tracer whose clock starts now.
    pub fn new() -> Arc<Self> {
        Arc::new(Self { epoch: Instant::now(), spans: Mutex::new(Vec::new()) })
    }

    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<SpanRec>> {
        self.spans.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Opens a span. A `parent` id must come from this tracer; an unknown
    /// parent is recorded as a root, and an already-closed parent resolves
    /// to its nearest still-open ancestor — both keep intervals nesting by
    /// construction. Past [`MAX_SPANS`] the null span is returned and the
    /// span is dropped.
    pub fn start(&self, name: impl Into<String>, parent: Option<SpanId>) -> SpanId {
        let start_us = self.now_us();
        let mut spans = self.lock();
        if spans.len() >= MAX_SPANS {
            return SpanId(0);
        }
        let mut parent = parent.filter(|p| p.get() >= 1 && (p.get() as usize) <= spans.len());
        while let Some(p) = parent {
            let rec = &spans[p.get() as usize - 1];
            if rec.end_us.is_none() {
                break;
            }
            parent = rec.parent;
        }
        spans.push(SpanRec {
            parent,
            name: name.into(),
            start_us,
            end_us: None,
            attrs: Vec::new(),
        });
        SpanId(spans.len() as u64)
    }

    /// Closes a span, closing any still-open descendants at the same
    /// instant (a child cannot outlive its parent). The first end sticks;
    /// later ends are ignored.
    pub fn end(&self, id: SpanId) {
        let end_us = self.now_us();
        let mut spans = self.lock();
        let idx = id.get() as usize;
        if idx == 0 || idx > spans.len() || spans[idx - 1].end_us.is_some() {
            return;
        }
        for i in idx..spans.len() {
            if spans[i].end_us.is_none() && Self::has_ancestor(&spans, i, id) {
                spans[i].end_us = Some(end_us);
            }
        }
        spans[idx - 1].end_us = Some(end_us);
    }

    /// Whether span at index `i` has `target` on its ancestor chain.
    fn has_ancestor(spans: &[SpanRec], mut i: usize, target: SpanId) -> bool {
        while let Some(p) = spans[i].parent {
            if p == target {
                return true;
            }
            i = p.get() as usize - 1;
        }
        false
    }

    /// Attaches one typed attribute to an open or closed span.
    pub fn attr(&self, id: SpanId, key: &'static str, value: AttrValue) {
        if id.get() == 0 {
            return;
        }
        let mut spans = self.lock();
        if let Some(rec) = spans.get_mut(id.get() as usize - 1) {
            rec.attrs.push((key, value));
        }
    }

    /// Closes every still-open span and freezes the tree into a
    /// [`Trace`]. Open spans inherit their parent's deadline semantics:
    /// children are closed before parents (creation order reversed), so
    /// intervals nest even when the caller forgot an `end`.
    pub fn finish(&self) -> Trace {
        let now = self.now_us();
        let mut spans = self.lock();
        // Close leftover spans deepest-first so child end <= parent end.
        for rec in spans.iter_mut().rev() {
            rec.end_us.get_or_insert(now);
        }
        let frozen = spans
            .iter()
            .enumerate()
            .map(|(i, rec)| Span {
                id: SpanId(i as u64 + 1),
                parent: rec.parent,
                name: rec.name.clone(),
                start_us: rec.start_us,
                end_us: rec.end_us.unwrap_or(rec.start_us).max(rec.start_us),
                attrs: rec.attrs.clone(),
            })
            .collect();
        Trace { spans: frozen }
    }
}

/// A finished, immutable span tree (spans in creation order, parents
/// before children).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Trace {
    /// All spans; index `i` holds the span with id `i + 1`.
    pub spans: Vec<Span>,
}

impl Trace {
    /// The first root span (no parent), if the trace is non-empty.
    pub fn root(&self) -> Option<&Span> {
        self.spans.iter().find(|s| s.parent.is_none())
    }

    /// The root span's duration in microseconds (0 for an empty trace).
    pub fn duration_us(&self) -> u64 {
        self.root().map_or(0, Span::duration_us)
    }

    /// The span with `id`, if present (`None` for the null span).
    pub fn span(&self, id: SpanId) -> Option<&Span> {
        self.spans.get((id.get() as usize).checked_sub(1)?)
    }

    /// Direct children of `id`, in creation order.
    pub fn children(&self, id: SpanId) -> Vec<&Span> {
        self.spans.iter().filter(|s| s.parent == Some(id)).collect()
    }

    /// Checks the structural invariants: every non-root parent exists and
    /// was created earlier, and child intervals nest within their
    /// parent's. Returns the first violation as text.
    pub fn check_well_formed(&self) -> Result<(), String> {
        for span in &self.spans {
            if span.end_us < span.start_us {
                return Err(format!("span {} ends before it starts", span.id.get()));
            }
            let Some(pid) = span.parent else { continue };
            let Some(parent) = self.span(pid) else {
                return Err(format!("span {} has unknown parent {}", span.id.get(), pid.get()));
            };
            if pid >= span.id {
                return Err(format!("span {} precedes its parent {}", span.id.get(), pid.get()));
            }
            if span.start_us < parent.start_us || span.end_us > parent.end_us {
                return Err(format!(
                    "span {} [{}, {}]us escapes parent {} [{}, {}]us",
                    span.id.get(),
                    span.start_us,
                    span.end_us,
                    pid.get(),
                    parent.start_us,
                    parent.end_us
                ));
            }
        }
        Ok(())
    }

    /// Renders the tree as indented text, one span per line (names and
    /// attribute text are newline-sanitized) with duration and
    /// attributes — the slow-query-log / debugging view.
    pub fn render_tree(&self) -> String {
        let mut out = Vec::new();
        for root in self.spans.iter().filter(|s| s.parent.is_none()) {
            self.render_into(root, 0, &mut out);
        }
        out.join("\n")
    }

    fn render_into(&self, span: &Span, depth: usize, out: &mut Vec<String>) {
        let mut line = format!(
            "{}{} [{:.3}ms",
            "  ".repeat(depth),
            span.name,
            span.duration_us() as f64 / 1e3
        );
        for (key, value) in &span.attrs {
            line.push_str(&format!(" {key}={value}"));
        }
        line.push(']');
        out.push(line.replace(['\n', '\r'], " "));
        for child in self.children(span.id) {
            self.render_into(child, depth + 1, out);
        }
    }
}

// ---------------------------------------------------------------------
// Chrome trace-event export.
// ---------------------------------------------------------------------

/// Renders traces as a Chrome trace-event JSON array of `ph:"X"`
/// (complete) events — the format `chrome://tracing` and Perfetto open
/// directly. Each trace gets its own `tid`, so concurrent queries render
/// as separate rows; nesting within a row follows interval containment.
/// One event per line, so the array streams cleanly over the protocol.
pub fn chrome_trace_json(traces: &[Trace]) -> String {
    let mut lines = vec!["[".to_string()];
    let mut first = true;
    for (tid, trace) in traces.iter().enumerate() {
        for span in &trace.spans {
            let mut event = String::new();
            if !first {
                lines.last_mut().expect("at least '['").push(',');
            }
            first = false;
            event.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"ausdb\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                 \"pid\":1,\"tid\":{}",
                json_escape(&span.name),
                span.start_us,
                span.duration_us(),
                tid + 1
            ));
            event.push_str(",\"args\":{");
            let mut args: Vec<String> = vec![format!("\"span_id\":{}", span.id.get())];
            if let Some(parent) = span.parent {
                args.push(format!("\"parent\":{}", parent.get()));
            }
            for (key, value) in &span.attrs {
                let rendered = match value {
                    AttrValue::U64(v) => v.to_string(),
                    AttrValue::F64(v) if v.is_finite() => format!("{v}"),
                    AttrValue::F64(_) => "null".to_string(),
                    AttrValue::Str(s) => format!("\"{}\"", json_escape(s)),
                };
                args.push(format!("\"{}\":{rendered}", json_escape(key)));
            }
            event.push_str(&args.join(","));
            event.push_str("}}");
            lines.push(event);
        }
    }
    lines.push("]".to_string());
    lines.join("\n")
}

/// Escapes a string for a JSON string literal.
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

// ---------------------------------------------------------------------
// The process-global finished-trace ring.
// ---------------------------------------------------------------------

/// A bounded ring of finished traces — the buffer behind the server's
/// `TRACEX` command and `ausdb serve --trace-json`.
pub struct TraceRing {
    capacity: usize,
    inner: Mutex<VecDeque<Trace>>,
}

impl TraceRing {
    /// A ring holding at most `capacity` traces.
    pub fn new(capacity: usize) -> Self {
        Self { capacity: capacity.max(1), inner: Mutex::new(VecDeque::new()) }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, VecDeque<Trace>> {
        self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Appends a finished trace, evicting the oldest past capacity.
    pub fn push(&self, trace: Trace) {
        let mut inner = self.lock();
        if inner.len() == self.capacity {
            inner.pop_front();
        }
        inner.push_back(trace);
    }

    /// All retained traces, oldest first.
    pub fn snapshot(&self) -> Vec<Trace> {
        self.lock().iter().cloned().collect()
    }

    /// Retained trace count.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The process-global trace ring, [`crate::TRACE_CAP`] traces deep
/// (the journal's capacity).
pub fn ring() -> &'static TraceRing {
    static GLOBAL: OnceLock<TraceRing> = OnceLock::new();
    GLOBAL.get_or_init(|| TraceRing::new(crate::TRACE_CAP))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_level_trace() -> Trace {
        let tracer = Tracer::new();
        let root = tracer.start("query t", None);
        let op = tracer.start("Filter", Some(root));
        tracer.attr(op, "rows_in", AttrValue::U64(100));
        tracer.attr(op, "ci_width", AttrValue::F64(0.25));
        tracer.attr(op, "mode", AttrValue::Str("mc".into()));
        let inner = tracer.start("mc_eval", Some(op));
        tracer.end(inner);
        tracer.end(op);
        tracer.end(root);
        tracer.finish()
    }

    #[test]
    fn spans_nest_and_attrs_survive() {
        let trace = two_level_trace();
        trace.check_well_formed().unwrap();
        assert_eq!(trace.spans.len(), 3);
        let root = trace.root().unwrap();
        assert_eq!(root.name, "query t");
        let children = trace.children(root.id);
        assert_eq!(children.len(), 1);
        let op = children[0];
        assert_eq!(op.attr("rows_in"), Some(&AttrValue::U64(100)));
        assert_eq!(op.attr("ci_width"), Some(&AttrValue::F64(0.25)));
        assert_eq!(op.attr("missing"), None);
        assert_eq!(trace.children(op.id).len(), 1);
    }

    #[test]
    fn finish_closes_open_spans_nested() {
        let tracer = Tracer::new();
        let root = tracer.start("root", None);
        let _child = tracer.start("child", Some(root));
        // Neither span ended explicitly: finish must close both with
        // child ⊆ parent.
        let trace = tracer.finish();
        trace.check_well_formed().unwrap();
        assert_eq!(trace.spans.len(), 2);
    }

    #[test]
    fn unknown_parent_becomes_root() {
        let tracer = Tracer::new();
        let id = tracer.start("orphan", Some(SpanId(99)));
        tracer.end(id);
        let trace = tracer.finish();
        trace.check_well_formed().unwrap();
        assert!(trace.spans[0].parent.is_none());
    }

    #[test]
    fn span_cap_degrades_to_null_span() {
        let tracer = Tracer::new();
        let root = tracer.start("root", None);
        let mut last = root;
        for i in 0..MAX_SPANS {
            last = tracer.start(format!("s{i}"), Some(root));
        }
        assert_eq!(last, SpanId(0), "span past the cap is the null span");
        // Null-span operations are safe no-ops.
        tracer.attr(last, "rows_in", AttrValue::U64(1));
        tracer.end(last);
        let trace = tracer.finish();
        trace.check_well_formed().unwrap();
        assert_eq!(trace.spans.len(), MAX_SPANS);
        assert!(trace.span(SpanId(0)).is_none());
    }

    #[test]
    fn render_tree_indents_children() {
        let trace = two_level_trace();
        let text = trace.render_tree();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].starts_with("query t ["), "{text}");
        assert!(lines[1].starts_with("  Filter ["), "{text}");
        assert!(lines[1].contains("rows_in=100"), "{text}");
        assert!(lines[1].contains("ci_width=0.25"), "{text}");
        assert!(lines[2].starts_with("    mc_eval ["), "{text}");
    }

    #[test]
    fn chrome_export_shape() {
        let trace = two_level_trace();
        let json = chrome_trace_json(&[trace]);
        assert!(json.starts_with("[\n"), "{json}");
        assert!(json.ends_with("\n]"), "{json}");
        assert!(json.contains("\"ph\":\"X\""), "{json}");
        assert!(json.contains("\"name\":\"query t\""), "{json}");
        assert!(json.contains("\"ci_width\":0.25"), "{json}");
        assert!(json.contains("\"mode\":\"mc\""), "{json}");
        // Three events → two separators.
        assert_eq!(json.matches("},").count(), 2, "{json}");
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
        let tracer = Tracer::new();
        let id = tracer.start("evil \"name\"", None);
        tracer.attr(id, "note", AttrValue::Str("line\nbreak".into()));
        tracer.attr(id, "bad", AttrValue::F64(f64::NAN));
        tracer.end(id);
        let json = chrome_trace_json(&[tracer.finish()]);
        assert!(json.contains("evil \\\"name\\\""), "{json}");
        assert!(json.contains("line\\nbreak"), "{json}");
        assert!(json.contains("\"bad\":null"), "{json}");
    }

    #[test]
    fn ring_is_bounded() {
        let ring = TraceRing::new(2);
        for _ in 0..3 {
            ring.push(two_level_trace());
        }
        assert_eq!(ring.len(), 2, "oldest trace evicted");
        assert!(!ring.is_empty());
        assert_eq!(ring.snapshot().len(), 2);
    }
}
