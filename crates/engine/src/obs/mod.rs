//! Engine-wide observability: per-operator metrics, drop reasons, poison
//! tracking, and global execution counters.
//!
//! The paper's thesis is that a stream system must report *how much to
//! trust* its answers; this module extends that discipline to the
//! operators themselves. Every operator owns an [`OpMetrics`] handle that
//! tallies tuples in/out, dropped tuples **with a [`DropReason`]**,
//! significance decisions, accuracy fallbacks, and (when traced) wall-clock
//! time. Errors are recorded — never discarded: per-tuple failures become
//! a [`StreamStatus::Degraded`] with the retained cause, fatal ones a
//! [`StreamStatus::Poisoned`].
//!
//! A [`MetricsRegistry`] collects the handles of one pipeline and
//! snapshots them into a [`StatsReport`], whose `Display` renders an
//! EXPLAIN-ANALYZE-style tree. Global counters (Monte-Carlo draws,
//! bootstrap resamples, the stats crate's quantile-cache hits) ride along
//! in the report.
//!
//! An operator is timed exactly when its registry traces (an
//! `Instant::now()` pair per batch is not free, and only a trace or
//! `EXPLAIN ANALYZE` reads it). Reported times are **inclusive**: an
//! operator's clock runs while it pulls from its input, exactly like
//! EXPLAIN ANALYZE.
//!
//! ## Query-grain tracing
//!
//! A [`MetricsRegistry`] built with [`MetricsRegistry::traced`] also
//! records a hierarchical span tree ([`ausdb_obs::span`]): one root span
//! for the query, one child per registered operator, and grandchildren
//! around hot paths opened with [`OpMetrics::with_span`] (bootstrap
//! accuracy, Monte-Carlo evaluation). When the query finishes,
//! [`MetricsRegistry::finish_trace`] stamps each operator span with its
//! counters — rows in/out, drops by reason, busy time, and the paper's
//! accuracy attributes (`ci_width`, `df_n`, `resamples`) — and returns a
//! frozen [`Trace`] that feeds `EXPLAIN ANALYZE`, the Chrome trace
//! export, and the `AUSDB_SLOW_QUERY_MS` slow-query log. Tracing is
//! observational (clocks and counters only, never an RNG or a seed), so
//! results stay bit-identical traced or untraced.
//!
//! The telemetry core (histograms, labeled metric families, the trace
//! journal, env knobs) lives in the [`ausdb_obs`] crate and is re-exported
//! here; [`telemetry`] holds the engine's process-global registry.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ausdb_model::accuracy::AccuracyInfo;
use ausdb_model::stream::{PoisonReason, StreamStatus};
use ausdb_model::ModelError;
use ausdb_obs::span::{AttrValue, SpanId, Trace, Tracer};
use ausdb_obs::Level;

use crate::error::EngineError;

pub mod telemetry;

pub use ausdb_obs::{hist, journal, knobs};

/// Why an operator dropped a tuple. "Dropped" covers everything that
/// entered but did not leave, so intended filtering and failures are
/// distinguishable at a glance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// The predicate / significance test legitimately rejected the tuple.
    FilteredOut,
    /// An `UNSURE` significance outcome was dropped (`keep_unsure` off).
    Unsure,
    /// The tuple could not be evaluated; the error was recorded, not
    /// swallowed (see [`OpMetrics::record_error`]).
    Error,
}

impl DropReason {
    /// All reasons, in counter-index order.
    pub const ALL: [DropReason; 3] =
        [DropReason::FilteredOut, DropReason::Unsure, DropReason::Error];

    /// Short label used in [`StatsReport`] rendering.
    pub fn label(&self) -> &'static str {
        match self {
            DropReason::FilteredOut => "filtered",
            DropReason::Unsure => "unsure",
            DropReason::Error => "error",
        }
    }

    /// Static span-attribute key for this reason's drop counter.
    pub fn attr_key(&self) -> &'static str {
        match self {
            DropReason::FilteredOut => "dropped_filtered",
            DropReason::Unsure => "dropped_unsure",
            DropReason::Error => "dropped_error",
        }
    }

    fn index(&self) -> usize {
        match self {
            DropReason::FilteredOut => 0,
            DropReason::Unsure => 1,
            DropReason::Error => 2,
        }
    }
}

/// Adds `delta` to an `f64` accumulated in an `AtomicU64` as raw bits.
fn add_f64(cell: &AtomicU64, delta: f64) {
    let mut current = cell.load(Ordering::Relaxed);
    loop {
        let next = (f64::from_bits(current) + delta).to_bits();
        match cell.compare_exchange_weak(current, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(observed) => current = observed,
        }
    }
}

/// An operator's hook into a query's span tree: the shared tracer plus
/// this operator's own span.
#[derive(Debug, Clone)]
struct TraceCtx {
    tracer: Arc<Tracer>,
    span: SpanId,
}

/// Live counters of one operator. Cheap to update (relaxed atomics), and
/// shared as `Arc` so a snapshot remains reachable after the operator is
/// boxed into a pipeline or consumed by execution.
#[derive(Debug)]
pub struct OpMetrics {
    name: String,
    tuples_in: AtomicU64,
    tuples_out: AtomicU64,
    batches: AtomicU64,
    dropped: [AtomicU64; 3],
    decided_true: AtomicU64,
    decided_false: AtomicU64,
    decided_unsure: AtomicU64,
    fallbacks: AtomicU64,
    busy_nanos: AtomicU64,
    acc_count: AtomicU64,
    ci_width_sum: AtomicU64,
    ci_count: AtomicU64,
    df_n_min: AtomicU64,
    resamples: AtomicU64,
    traced: AtomicBool,
    last_error: Mutex<Option<PoisonReason>>,
    poison: Mutex<Option<PoisonReason>>,
    trace: Mutex<Option<TraceCtx>>,
}

impl OpMetrics {
    /// Creates a fresh handle for the operator `name`.
    pub fn new(name: impl Into<String>) -> Arc<Self> {
        Arc::new(Self {
            name: name.into(),
            tuples_in: AtomicU64::new(0),
            tuples_out: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            dropped: [AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)],
            decided_true: AtomicU64::new(0),
            decided_false: AtomicU64::new(0),
            decided_unsure: AtomicU64::new(0),
            fallbacks: AtomicU64::new(0),
            busy_nanos: AtomicU64::new(0),
            acc_count: AtomicU64::new(0),
            ci_width_sum: AtomicU64::new(0),
            ci_count: AtomicU64::new(0),
            df_n_min: AtomicU64::new(u64::MAX),
            resamples: AtomicU64::new(0),
            traced: AtomicBool::new(false),
            last_error: Mutex::new(None),
            poison: Mutex::new(None),
            trace: Mutex::new(None),
        })
    }

    /// The operator name this handle belongs to.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Records one input batch of `tuples` tuples.
    pub fn record_batch(&self, tuples: usize) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.tuples_in.fetch_add(tuples as u64, Ordering::Relaxed);
    }

    /// Records `tuples` tuples leaving the operator.
    pub fn record_out(&self, tuples: usize) {
        self.tuples_out.fetch_add(tuples as u64, Ordering::Relaxed);
    }

    /// Records one dropped tuple. Use [`OpMetrics::record_error`] for
    /// [`DropReason::Error`] so the cause is retained too.
    pub fn record_drop(&self, reason: DropReason) {
        self.dropped[reason.index()].fetch_add(1, Ordering::Relaxed);
    }

    /// Records a tuple that errored: counts it under [`DropReason::Error`]
    /// and retains the cause for [`OpMetrics::status`].
    pub fn record_error(&self, reason: PoisonReason) {
        self.record_drop(DropReason::Error);
        *self.last_error.lock().expect("metrics mutex") = Some(reason);
    }

    /// Records a significance outcome: `Some(true)` / `Some(false)` for a
    /// decision, `None` for UNSURE. Also tallied into the engine-wide
    /// `ausdb_sig_verdicts_total` counter family.
    pub fn record_decision(&self, decided: Option<bool>) {
        match decided {
            Some(true) => &self.decided_true,
            Some(false) => &self.decided_false,
            None => &self.decided_unsure,
        }
        .fetch_add(1, Ordering::Relaxed);
        telemetry::global().verdict(decided).inc();
    }

    /// Records an accuracy-computation fallback (e.g. a membership
    /// probability kept without its interval after an interval error).
    pub fn record_fallback(&self) {
        self.fallbacks.fetch_add(1, Ordering::Relaxed);
    }

    /// Records the accuracy information attached to one emitted result:
    /// the minimum de-facto sample size `n` seen and the running mean CI
    /// width. These are plain counters, so `STATS` and `EXPLAIN ANALYZE`
    /// read them whether or not the query was traced.
    pub fn record_accuracy(&self, info: &AccuracyInfo) {
        self.acc_count.fetch_add(1, Ordering::Relaxed);
        self.df_n_min.fetch_min(info.sample_size as u64, Ordering::Relaxed);
        if let Some(ci) = &info.mean_ci {
            let width = ci.hi - ci.lo;
            if width.is_finite() {
                add_f64(&self.ci_width_sum, width);
                self.ci_count.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Records `r` de-facto bootstrap resamples attributed to this
    /// operator (the engine-wide total is tallied separately by
    /// [`record_bootstrap_resamples`]).
    pub fn record_resamples(&self, r: u64) {
        self.resamples.fetch_add(r, Ordering::Relaxed);
    }

    /// Hooks this operator into a query's span tree. [`timed`] measures
    /// wall-clock time while the span is attached, until
    /// [`OpMetrics::finish_span`].
    pub fn attach_span(&self, tracer: Arc<Tracer>, span: SpanId) {
        *self.trace.lock().expect("metrics mutex") = Some(TraceCtx { tracer, span });
        self.traced.store(true, Ordering::Relaxed);
    }

    /// Runs `f` inside a child span named `name` when this operator is
    /// traced; plain call otherwise. The fast path is one relaxed load.
    /// A query runs on one thread, so parents are always open when
    /// children start.
    pub fn with_span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.traced.load(Ordering::Relaxed) {
            return f();
        }
        let ctx = self.trace.lock().expect("metrics mutex").clone();
        match ctx {
            Some(ctx) => {
                let child = ctx.tracer.start(name, Some(ctx.span));
                let result = f();
                ctx.tracer.end(child);
                result
            }
            None => f(),
        }
    }

    /// Detaches and closes this operator's span, stamping it with the
    /// final counters: rows, drops by reason, decisions, busy time, and
    /// the accuracy attributes (`ci_width`, `df_n`, `resamples`).
    pub fn finish_span(&self) {
        let Some(ctx) = self.trace.lock().expect("metrics mutex").take() else { return };
        self.traced.store(false, Ordering::Relaxed);
        let stats = self.snapshot();
        let tracer = &ctx.tracer;
        tracer.attr(ctx.span, "rows_in", AttrValue::U64(stats.tuples_in));
        tracer.attr(ctx.span, "rows_out", AttrValue::U64(stats.tuples_out));
        tracer.attr(ctx.span, "batches", AttrValue::U64(stats.batches));
        for reason in DropReason::ALL {
            if stats.dropped(reason) > 0 {
                tracer.attr(ctx.span, reason.attr_key(), AttrValue::U64(stats.dropped(reason)));
            }
        }
        if stats.decided_true + stats.decided_false + stats.decided_unsure > 0 {
            tracer.attr(ctx.span, "decided_true", AttrValue::U64(stats.decided_true));
            tracer.attr(ctx.span, "decided_false", AttrValue::U64(stats.decided_false));
            tracer.attr(ctx.span, "decided_unsure", AttrValue::U64(stats.decided_unsure));
        }
        if stats.fallbacks > 0 {
            tracer.attr(ctx.span, "fallbacks", AttrValue::U64(stats.fallbacks));
        }
        if let Some(busy) = stats.busy {
            tracer.attr(ctx.span, "busy_ms", AttrValue::F64(busy.as_secs_f64() * 1e3));
        }
        if let Some(df_n) = stats.df_n_min {
            tracer.attr(ctx.span, "df_n", AttrValue::U64(df_n));
        }
        if let Some(width) = stats.ci_width_mean {
            tracer.attr(ctx.span, "ci_width", AttrValue::F64(width));
        }
        if stats.resamples > 0 {
            tracer.attr(ctx.span, "resamples", AttrValue::U64(stats.resamples));
        }
        if let Some(poison) = &stats.poisoned {
            tracer.attr(ctx.span, "poisoned", AttrValue::Str(poison.to_string()));
        }
        tracer.end(ctx.span);
    }

    /// Retains an error cause for the snapshot without counting a
    /// dropped tuple — for tuples that survived in degraded form (e.g.
    /// kept with a point probability after the interval computation
    /// failed). Does not change [`OpMetrics::status`] on its own.
    pub fn note_error(&self, reason: PoisonReason) {
        *self.last_error.lock().expect("metrics mutex") = Some(reason);
    }

    /// Marks the stream fatally failed, retaining the cause. The first
    /// poison sticks; later ones are ignored (the stream already stopped).
    pub fn poison(&self, reason: PoisonReason) {
        let mut slot = self.poison.lock().expect("metrics mutex");
        if slot.is_none() {
            *slot = Some(reason);
        }
    }

    /// Adds measured busy time (used by [`timed`]).
    pub fn add_busy(&self, elapsed: Duration) {
        self.busy_nanos.fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
    }

    /// This operator's own health — poison, then degradation, then Ok.
    /// Operators combine this with their input's status via
    /// [`StreamStatus::combine`].
    pub fn status(&self) -> StreamStatus {
        if let Some(reason) = self.poison.lock().expect("metrics mutex").clone() {
            return StreamStatus::Poisoned(reason);
        }
        let errored = self.dropped[DropReason::Error.index()].load(Ordering::Relaxed);
        match self.last_error.lock().expect("metrics mutex").clone() {
            Some(last_error) if errored > 0 => StreamStatus::Degraded { errored, last_error },
            _ => StreamStatus::Ok,
        }
    }

    /// A point-in-time copy of every counter.
    pub fn snapshot(&self) -> OpStats {
        let busy = self.busy_nanos.load(Ordering::Relaxed);
        let ci_count = self.ci_count.load(Ordering::Relaxed);
        let df_n_min = self.df_n_min.load(Ordering::Relaxed);
        OpStats {
            name: self.name.clone(),
            tuples_in: self.tuples_in.load(Ordering::Relaxed),
            tuples_out: self.tuples_out.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            dropped: [
                self.dropped[0].load(Ordering::Relaxed),
                self.dropped[1].load(Ordering::Relaxed),
                self.dropped[2].load(Ordering::Relaxed),
            ],
            decided_true: self.decided_true.load(Ordering::Relaxed),
            decided_false: self.decided_false.load(Ordering::Relaxed),
            decided_unsure: self.decided_unsure.load(Ordering::Relaxed),
            fallbacks: self.fallbacks.load(Ordering::Relaxed),
            busy: (busy > 0).then(|| Duration::from_nanos(busy)),
            acc_count: self.acc_count.load(Ordering::Relaxed),
            ci_width_mean: (ci_count > 0).then(|| {
                f64::from_bits(self.ci_width_sum.load(Ordering::Relaxed)) / ci_count as f64
            }),
            df_n_min: (df_n_min != u64::MAX).then_some(df_n_min),
            resamples: self.resamples.load(Ordering::Relaxed),
            last_error: self.last_error.lock().expect("metrics mutex").clone(),
            poisoned: self.poison.lock().expect("metrics mutex").clone(),
        }
    }
}

/// Frozen [`OpMetrics`] counters for one operator.
#[derive(Debug, Clone)]
pub struct OpStats {
    /// Operator name.
    pub name: String,
    /// Tuples pulled from the input.
    pub tuples_in: u64,
    /// Tuples emitted downstream.
    pub tuples_out: u64,
    /// Input batches processed.
    pub batches: u64,
    /// Dropped-tuple counts, indexed like [`DropReason::ALL`].
    pub dropped: [u64; 3],
    /// Significance outcomes decided TRUE.
    pub decided_true: u64,
    /// Significance outcomes decided FALSE.
    pub decided_false: u64,
    /// UNSURE significance outcomes.
    pub decided_unsure: u64,
    /// Accuracy-computation fallbacks.
    pub fallbacks: u64,
    /// Inclusive busy time, when the operator was traced.
    pub busy: Option<Duration>,
    /// Results emitted with accuracy information attached.
    pub acc_count: u64,
    /// Mean width of the mean-CIs this operator attached to results.
    pub ci_width_mean: Option<f64>,
    /// Minimum de-facto sample size `n` seen in accuracy computations.
    pub df_n_min: Option<u64>,
    /// De-facto bootstrap resamples attributed to this operator.
    pub resamples: u64,
    /// Most recent per-tuple error, retained.
    pub last_error: Option<PoisonReason>,
    /// Terminal error, if the operator poisoned the stream.
    pub poisoned: Option<PoisonReason>,
}

impl OpStats {
    /// The count dropped for `reason`.
    pub fn dropped(&self, reason: DropReason) -> u64 {
        self.dropped[reason.index()]
    }

    /// Total dropped tuples across all reasons.
    pub fn dropped_total(&self) -> u64 {
        self.dropped.iter().sum()
    }

    /// The bracketed annotation without the operator name — what
    /// `EXPLAIN ANALYZE` appends to each plan line.
    pub fn details(&self) -> String {
        let mut out =
            format!("[in={} out={} batches={}", self.tuples_in, self.tuples_out, self.batches);
        if self.dropped_total() > 0 {
            out.push_str(&format!(" dropped={}", self.dropped_total()));
            let parts: Vec<String> = DropReason::ALL
                .iter()
                .filter(|r| self.dropped(**r) > 0)
                .map(|r| format!("{}={}", r.label(), self.dropped(*r)))
                .collect();
            out.push_str(&format!(" ({})", parts.join(", ")));
        }
        if self.decided_true + self.decided_false + self.decided_unsure > 0 {
            out.push_str(&format!(
                " decided: true={} false={} unsure={}",
                self.decided_true, self.decided_false, self.decided_unsure
            ));
        }
        if self.fallbacks > 0 {
            out.push_str(&format!(" fallbacks={}", self.fallbacks));
        }
        if let Some(busy) = self.busy {
            out.push_str(&format!(" time={:.3}ms", busy.as_secs_f64() * 1e3));
        }
        if self.acc_count > 0 {
            out.push_str(&format!(" acc={}", self.acc_count));
            if let Some(width) = self.ci_width_mean {
                out.push_str(&format!(" ci_width={width:.4}"));
            }
            if let Some(df_n) = self.df_n_min {
                out.push_str(&format!(" df_n={df_n}"));
            }
            if self.resamples > 0 {
                out.push_str(&format!(" resamples={}", self.resamples));
            }
        }
        out.push(']');
        if let Some(p) = &self.poisoned {
            out.push_str(&format!(" POISONED: {p}"));
        } else if let Some(e) = &self.last_error {
            out.push_str(&format!(" last_error: {e}"));
        }
        out
    }
}

impl std::fmt::Display for OpStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} {}", self.name, self.details())
    }
}

// ---------------------------------------------------------------------
// Global (engine-wide) counters.
// ---------------------------------------------------------------------

/// Tallies `n` Monte-Carlo values drawn (called by [`crate::mc`]). Backed
/// by the `ausdb_mc_draws_total` counter in [`telemetry::global`].
pub fn record_mc_draws(n: usize) {
    telemetry::global().mc_draws.add(n as u64);
}

/// Tallies `n` de-facto bootstrap resamples (called by
/// [`crate::bootstrap`]). Backed by `ausdb_bootstrap_resamples_total`.
pub fn record_bootstrap_resamples(n: usize) {
    telemetry::global().bootstrap_resamples.add(n as u64);
}

/// Engine-wide counters, cumulative over the process lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GlobalStats {
    /// Monte-Carlo values drawn across all evaluation paths.
    pub mc_draws: u64,
    /// De-facto resamples processed by `BOOTSTRAP-ACCURACY-INFO`.
    pub bootstrap_resamples: u64,
    /// Hits in the stats crate's t/χ² quantile memo.
    pub quantile_cache_hits: u64,
    /// Misses in the stats crate's t/χ² quantile memo.
    pub quantile_cache_misses: u64,
}

/// Snapshots the engine-wide counters (including the stats crate's
/// quantile-cache tallies).
pub fn global_stats() -> GlobalStats {
    let (hits, misses) = ausdb_stats::ci::quantile_cache_counters();
    let telemetry = telemetry::global();
    GlobalStats {
        mc_draws: telemetry.mc_draws.get(),
        bootstrap_resamples: telemetry.bootstrap_resamples.get(),
        quantile_cache_hits: hits,
        quantile_cache_misses: misses,
    }
}

impl std::fmt::Display for GlobalStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "engine: mc_draws={} bootstrap_resamples={} quantile_cache_hits={} \
             quantile_cache_misses={}",
            self.mc_draws,
            self.bootstrap_resamples,
            self.quantile_cache_hits,
            self.quantile_cache_misses
        )
    }
}

// ---------------------------------------------------------------------
// Registry and report.
// ---------------------------------------------------------------------

/// Metrics handles of one pipeline, registered source-side first (the
/// order the executor wraps operators in). Built with
/// [`MetricsRegistry::traced`], it additionally records a span tree.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    ops: Vec<Arc<OpMetrics>>,
    trace: Option<(Arc<Tracer>, SpanId)>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// A registry that also records a span tree rooted at `root_name`
    /// (registered operators become child spans).
    pub fn traced(root_name: &str) -> Self {
        let tracer = Tracer::new();
        let root = tracer.start(root_name, None);
        Self { ops: Vec::new(), trace: Some((tracer, root)) }
    }

    /// Whether this registry records a span tree.
    pub fn is_traced(&self) -> bool {
        self.trace.is_some()
    }

    /// Attaches an attribute to the query's root span (no-op untraced).
    pub fn root_attr(&self, key: &'static str, value: AttrValue) {
        if let Some((tracer, root)) = &self.trace {
            tracer.attr(*root, key, value);
        }
    }

    /// Adds one operator's handle. Call in pipeline construction order —
    /// deepest (closest to the source) first. When tracing, the operator
    /// gets a child span under the query root, which also times it.
    pub fn register(&mut self, metrics: Arc<OpMetrics>) {
        if let Some((tracer, root)) = &self.trace {
            let span = tracer.start(metrics.name(), Some(*root));
            metrics.attach_span(Arc::clone(tracer), span);
        }
        self.ops.push(metrics);
    }

    /// Ends the query: stamps and closes every operator span, closes the
    /// root, and freezes the tree. When the root outlasted
    /// `AUSDB_SLOW_QUERY_MS`, the rendered tree is journaled at WARN
    /// under the `slow_query` span. Returns `None` for untraced
    /// registries; idempotent (the second call returns `None`).
    pub fn finish_trace(&mut self) -> Option<Trace> {
        let (tracer, root) = self.trace.take()?;
        for op in &self.ops {
            op.finish_span();
        }
        tracer.end(root);
        let trace = tracer.finish();
        if let Some(threshold_ms) = knobs::slow_query_ms() {
            let root_us = trace.duration_us();
            if root_us >= threshold_ms.saturating_mul(1000) {
                journal::global().record(Level::Warn, "slow_query", || {
                    format!(
                        "root span took {:.3}ms (threshold {threshold_ms}ms): {}",
                        root_us as f64 / 1e3,
                        trace.render_tree()
                    )
                });
            }
        }
        Some(trace)
    }

    /// Number of registered operators.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether no operator registered.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Snapshots every registered operator plus the global counters.
    pub fn report(&self) -> StatsReport {
        StatsReport { ops: self.ops.iter().map(|m| m.snapshot()).collect(), engine: global_stats() }
    }
}

/// A pipeline-wide statistics snapshot: one [`OpStats`] per operator
/// (source-side first) plus the [`GlobalStats`]. `Display` renders the
/// EXPLAIN-ANALYZE-style tree, consumer at the top.
#[derive(Debug, Clone)]
pub struct StatsReport {
    /// Per-operator snapshots, source-side (deepest) first.
    pub ops: Vec<OpStats>,
    /// Engine-wide counters at snapshot time.
    pub engine: GlobalStats,
}

impl StatsReport {
    /// Builds a report directly from operator snapshots (source-side
    /// first), for pipelines assembled by hand.
    pub fn from_ops(ops: Vec<OpStats>) -> Self {
        Self { ops, engine: global_stats() }
    }

    /// Looks an operator up by name (first match).
    pub fn op(&self, name: &str) -> Option<&OpStats> {
        self.ops.iter().find(|o| o.name == name)
    }

    /// The worst poison recorded by any operator, if one exists.
    pub fn poison(&self) -> Option<&PoisonReason> {
        self.ops.iter().rev().find_map(|o| o.poisoned.as_ref())
    }
}

impl std::fmt::Display for StatsReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Consumer-side operator first, each deeper stage indented, like
        // `Query::explain`.
        for (depth, op) in self.ops.iter().rev().enumerate() {
            writeln!(f, "{}{op}", "  ".repeat(depth))?;
        }
        write!(f, "{}", self.engine)
    }
}

// ---------------------------------------------------------------------
// Wall-clock timing of traced operators.
// ---------------------------------------------------------------------

/// Runs `f`, charging its wall-clock time to `metrics` while the operator
/// is traced. The measurement is inclusive of input pulls
/// (EXPLAIN-ANALYZE semantics).
pub fn timed<T>(metrics: &OpMetrics, f: impl FnOnce() -> T) -> T {
    if metrics.traced.load(Ordering::Relaxed) {
        let start = Instant::now();
        let result = f();
        metrics.add_busy(start.elapsed());
        result
    } else {
        f()
    }
}

// ---------------------------------------------------------------------
// Poison → EngineError bridging.
// ---------------------------------------------------------------------

/// Recovers an [`EngineError`] from a retained poison cause: a direct
/// downcast when the operator stored one, a [`ModelError`] wrap when the
/// source was the data model, and a descriptive `Eval` otherwise.
pub fn poison_error(reason: &PoisonReason) -> EngineError {
    if let Some(e) = reason.error().downcast_ref::<EngineError>() {
        return e.clone();
    }
    if let Some(e) = reason.error().downcast_ref::<ModelError>() {
        return EngineError::Model(e.clone());
    }
    EngineError::Eval(reason.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_counters_accumulate() {
        let m = OpMetrics::new("Filter");
        m.record_batch(10);
        m.record_batch(5);
        m.record_out(8);
        m.record_drop(DropReason::FilteredOut);
        m.record_drop(DropReason::FilteredOut);
        m.record_drop(DropReason::Unsure);
        m.record_fallback();
        let s = m.snapshot();
        assert_eq!(s.tuples_in, 15);
        assert_eq!(s.tuples_out, 8);
        assert_eq!(s.batches, 2);
        assert_eq!(s.dropped(DropReason::FilteredOut), 2);
        assert_eq!(s.dropped(DropReason::Unsure), 1);
        assert_eq!(s.dropped_total(), 3);
        assert_eq!(s.fallbacks, 1);
        assert!(s.busy.is_none(), "timing off by default");
        assert!(m.status().is_ok());
    }

    #[test]
    fn record_error_degrades_status() {
        let m = OpMetrics::new("SigFilter");
        m.record_error(PoisonReason::new("SigFilter", EngineError::Eval("no dist".into())));
        let status = m.status();
        assert!(!status.is_ok());
        assert!(status.poison().is_none(), "per-tuple errors degrade, not poison");
        let last = status.last_error().expect("cause retained");
        assert!(last.to_string().contains("no dist"));
        assert_eq!(m.snapshot().dropped(DropReason::Error), 1);
    }

    #[test]
    fn poison_sticks_and_surfaces_engine_error() {
        let m = OpMetrics::new("WindowAgg");
        let original = EngineError::Eval("out-of-order timestamp 5 after 10".into());
        m.poison(PoisonReason::new("WindowAgg", original.clone()));
        m.poison(PoisonReason::new("WindowAgg", EngineError::Eval("later".into())));
        let status = m.status();
        let reason = status.poison().expect("poisoned");
        assert_eq!(poison_error(reason), original, "first poison sticks, error recoverable");
    }

    #[test]
    fn poison_error_bridges_model_and_unknown_errors() {
        let model = PoisonReason::new("op", ModelError::UnknownColumn("x".into()));
        assert_eq!(poison_error(&model), EngineError::Model(ModelError::UnknownColumn("x".into())));
        let other = PoisonReason::new("op", std::fmt::Error);
        assert!(matches!(poison_error(&other), EngineError::Eval(_)));
    }

    #[test]
    fn decisions_tally_by_outcome() {
        let m = OpMetrics::new("SigFilter");
        m.record_decision(Some(true));
        m.record_decision(Some(true));
        m.record_decision(Some(false));
        m.record_decision(None);
        let s = m.snapshot();
        assert_eq!((s.decided_true, s.decided_false, s.decided_unsure), (2, 1, 1));
    }

    #[test]
    fn report_renders_explain_analyze_tree() {
        let filter = OpMetrics::new("Filter");
        filter.record_batch(100);
        filter.record_out(60);
        for _ in 0..40 {
            filter.record_drop(DropReason::FilteredOut);
        }
        let sig = OpMetrics::new("SigFilter");
        sig.record_batch(60);
        sig.record_out(30);
        sig.record_decision(Some(true));
        let mut registry = MetricsRegistry::new();
        registry.register(filter);
        registry.register(sig.clone());
        assert_eq!(registry.len(), 2);
        assert!(!registry.is_empty());
        let report = registry.report();
        let text = report.to_string();
        // Consumer side (SigFilter) on top, Filter indented below it.
        let sig_line = text.lines().position(|l| l.contains("SigFilter")).unwrap();
        let filter_line = text.lines().position(|l| l.trim_start().starts_with("Filter")).unwrap();
        assert!(sig_line < filter_line, "consumer first:\n{text}");
        assert!(text.lines().nth(filter_line).unwrap().starts_with("  "), "depth indent");
        assert!(text.contains("dropped=40 (filtered=40)"), "{text}");
        assert!(text.contains("engine: mc_draws="), "{text}");
        assert_eq!(report.op("Filter").unwrap().tuples_in, 100);
        assert!(report.poison().is_none());
    }

    #[test]
    fn global_counters_accumulate() {
        let before = global_stats();
        record_mc_draws(123);
        record_bootstrap_resamples(7);
        let after = global_stats();
        assert!(after.mc_draws >= before.mc_draws + 123);
        assert!(after.bootstrap_resamples >= before.bootstrap_resamples + 7);
        assert!(after.to_string().contains("mc_draws="));
    }

    #[test]
    fn untraced_timed_runs_the_closure_without_timing() {
        let m = OpMetrics::new("op");
        let out = timed(&m, || 41 + 1);
        assert_eq!(out, 42);
        assert!(m.snapshot().busy.is_none());
        assert_eq!(m.with_span("mc_eval", || 7), 7, "untraced with_span is a plain call");
    }

    #[test]
    fn busy_time_recorded_when_added() {
        let m = OpMetrics::new("op");
        m.add_busy(Duration::from_millis(2));
        let s = m.snapshot();
        assert!(s.busy.unwrap() >= Duration::from_millis(2));
        assert!(s.to_string().contains("time="), "{s}");
    }

    #[test]
    fn accuracy_counters_track_min_n_and_mean_width() {
        use ausdb_stats::ci::ConfidenceInterval;
        let m = OpMetrics::new("WindowAgg");
        assert!(m.snapshot().df_n_min.is_none(), "no accuracy recorded yet");
        m.record_accuracy(
            &AccuracyInfo::new(25).with_mean_ci(ConfidenceInterval::new(9.0, 11.0, 0.9)),
        );
        m.record_accuracy(
            &AccuracyInfo::new(10).with_mean_ci(ConfidenceInterval::new(8.0, 12.0, 0.9)),
        );
        m.record_accuracy(&AccuracyInfo::new(40)); // no interval: n still counts
        m.record_resamples(100);
        m.record_resamples(50);
        let s = m.snapshot();
        assert_eq!(s.acc_count, 3);
        assert_eq!(s.df_n_min, Some(10), "minimum de-facto n");
        assert!((s.ci_width_mean.unwrap() - 3.0).abs() < 1e-12, "mean of widths 2 and 4");
        assert_eq!(s.resamples, 150);
        let text = s.details();
        assert!(text.contains("acc=3"), "{text}");
        assert!(text.contains("ci_width=3.0000"), "{text}");
        assert!(text.contains("df_n=10"), "{text}");
        assert!(text.contains("resamples=150"), "{text}");
    }

    #[test]
    fn traced_registry_builds_well_formed_span_tree() {
        use ausdb_stats::ci::ConfidenceInterval;
        let mut registry = MetricsRegistry::traced("query t");
        assert!(registry.is_traced());
        let filter = OpMetrics::new("Filter");
        let agg = OpMetrics::new("WindowAgg");
        registry.register(filter.clone());
        registry.register(agg.clone());
        timed(&filter, || filter.record_batch(100));
        filter.record_out(60);
        agg.record_batch(60);
        agg.record_out(6);
        agg.with_span("bootstrap_accuracy", || {
            agg.record_accuracy(
                &AccuracyInfo::new(12).with_mean_ci(ConfidenceInterval::new(1.0, 2.0, 0.9)),
            );
            agg.record_resamples(83);
        });
        registry.root_attr("rows", AttrValue::U64(6));
        let trace = registry.finish_trace().expect("traced registry yields a trace");
        assert!(registry.finish_trace().is_none(), "second finish is None");
        assert!(filter.snapshot().busy.is_some(), "a traced operator is timed");
        trace.check_well_formed().unwrap();
        let root = trace.root().unwrap();
        assert_eq!(root.name, "query t");
        assert_eq!(root.attr("rows"), Some(&AttrValue::U64(6)));
        let ops: Vec<&str> = trace.children(root.id).iter().map(|s| s.name.as_str()).collect();
        assert_eq!(ops, ["Filter", "WindowAgg"]);
        let agg_span = trace.children(root.id)[1];
        assert_eq!(agg_span.attr("rows_in"), Some(&AttrValue::U64(60)));
        assert_eq!(agg_span.attr("df_n"), Some(&AttrValue::U64(12)));
        assert_eq!(agg_span.attr("ci_width"), Some(&AttrValue::F64(1.0)));
        assert_eq!(agg_span.attr("resamples"), Some(&AttrValue::U64(83)));
        let grandchildren = trace.children(agg_span.id);
        assert_eq!(grandchildren.len(), 1);
        assert_eq!(grandchildren[0].name, "bootstrap_accuracy");
    }
}
