//! The engine's shared types and its one cross-key half, the `QueryCore`.
//!
//! This is the glue the paper's Figure 1 implies but the one-shot CLI
//! never needed: raw rows stream in per connection, per-key learners
//! buffer them, and each **closed window** turns into a registered
//! probabilistic relation that one-shot `QUERY`s and standing
//! `SUBSCRIBE`s evaluate against — with the learned distributions
//! carrying their accuracy information end to end.
//!
//! [`crate::shard::ShardSet`] is the engine: it owns the per-shard learner
//! buffers and each stream's window cursor, and hands every closed window
//! to the `QueryCore` defined here — the query session, the subscriptions
//! with their SLO targets, and the accuracy history. The two share one
//! metric registry. This module also holds what both speak: the
//! configuration, the outcome and reply types, the snapshot model and the
//! row/name parsers.
//!
//! ## Window semantics
//!
//! Windows are aligned: observation `ts` belongs to the window starting at
//! `ts - ts % width`. A window *closes* when an observation at or past its
//! end arrives on the same stream; closing learns one probabilistic tuple
//! per key (`emit_window`), registers the result as the stream's current
//! content, and fans events out to subscribers. Ingest that jumps far
//! ahead in time skips empty windows via
//! [`StreamLearner::min_buffered_ts`] instead of closing them one by one.
//! Observations older than the current window are dropped at the next
//! close (counted as `late_rows` in `STATS`).

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use ausdb_engine::obs::StatsReport;
use ausdb_engine::query::Session;
use ausdb_learn::ingest::parse_timestamp;
use ausdb_learn::learner::{LearnerConfig, RawObservation, StreamLearner};
use ausdb_model::codec::{Codec, CodecError, Reader, Writer};
use ausdb_model::schema::Schema;
use ausdb_model::tuple::Tuple;
use ausdb_obs::hist::log_linear_bounds;
use ausdb_obs::{journal, AccuracyPoint, Counter, Gauge, Histogram, Level, Registry, SeriesStore};
use ausdb_sql::parser::parse;
use ausdb_sql::planner::{plan, run_sql, run_statement_with_stats, SqlOutput};

use crate::numtext::push_u64;
use crate::render::render_rows_into;
use crate::subscriber::SubscriberQueue;

/// Engine-level configuration (the server's `ServerConfig` carries this
/// plus the transport settings).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineConfig {
    /// Learner settings applied to every new stream.
    pub learner: LearnerConfig,
    /// Maximum concurrent subscriptions across all connections.
    pub max_subscribers: usize,
    /// Per-subscriber queue capacity in protocol lines.
    pub queue_cap: usize,
    /// Key shards in [`crate::shard::ShardSet`] (`--shards`; at least 1).
    /// Every count runs the same code and produces the same bytes.
    pub shards: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            learner: LearnerConfig::gaussian(60),
            max_subscribers: 64,
            queue_cap: 256,
            shards: 1,
        }
    }
}

/// Per-stream metric handles (labeled `{stream="<name>"}`), cached by the
/// stream's coordinator so the ingest hot path is one atomic add per run
/// of rows and never a registry lock.
#[derive(Debug)]
pub(crate) struct StreamCounters {
    pub(crate) rows: Arc<Counter>,
    pub(crate) late: Arc<Counter>,
    pub(crate) windows: Arc<Counter>,
    /// Event-time distance the watermark ran past each closed window's
    /// end (how out-of-order / bursty the stream's clock is).
    pub(crate) event_lag: Arc<Histogram>,
    /// Wall-clock from the open window's first buffered row to its close.
    pub(crate) ingest_to_close: Arc<Histogram>,
}

/// One engine's metric registry plus cached handles, shared by the
/// [`crate::shard::ShardSet`] (ingest, close and snapshot series) and its
/// [`QueryCore`] (query, event and SLO series). Every engine owns its own
/// registry, so embedded instances and tests stay isolated; the `METRICS`
/// exposition merges it with the process-wide engine registry.
#[derive(Debug)]
pub(crate) struct ServerTelemetry {
    pub(crate) registry: Registry,
    pub(crate) queries: Arc<Counter>,
    pub(crate) events: Arc<Counter>,
    query_latency: Arc<Histogram>,
    pub(crate) window_close: Arc<Histogram>,
    pub(crate) snapshot_encode: Arc<Histogram>,
    pub(crate) snapshot_decode: Arc<Histogram>,
    /// Streams that ever had a `ausdb_subscriber_queue_depth{stream=…}`
    /// series, so sampling can pin a now-subscriber-less stream back to
    /// 0 instead of leaving its last depth frozen in the exposition.
    queue_streams: Mutex<BTreeSet<String>>,
    /// Raw backlog high-water mark (gauges have no `fetch_max`).
    backlog_highwater_raw: AtomicU64,
    backlog_highwater: Arc<Gauge>,
}

/// Help text for the per-stream subscriber queue-depth gauge family.
const QUEUE_DEPTH_HELP: &str = "Protocol lines queued across the stream's subscriber queues";

impl ServerTelemetry {
    pub(crate) fn new() -> Self {
        let registry = Registry::new();
        // 1µs .. 90s covers a tick-resolution server comfortably.
        let latency = log_linear_bounds(-6, 1);
        Self {
            queries: registry.counter(
                "ausdb_queries_total",
                "One-shot QUERY statements executed",
                &[],
            ),
            events: registry.counter(
                "ausdb_subscriber_events_total",
                "Subscriber event blocks generated (before any queue drops)",
                &[],
            ),
            query_latency: registry.histogram(
                "ausdb_query_latency_seconds",
                "One-shot query latency",
                &latency,
                &[],
            ),
            window_close: registry.histogram(
                "ausdb_window_close_seconds",
                "Window-close latency (learn + register + fan-out)",
                &latency,
                &[],
            ),
            snapshot_encode: registry.histogram(
                "ausdb_snapshot_encode_seconds",
                "Snapshot capture (encode) time",
                &latency,
                &[],
            ),
            snapshot_decode: registry.histogram(
                "ausdb_snapshot_decode_seconds",
                "Snapshot restore (decode) time",
                &latency,
                &[],
            ),
            queue_streams: Mutex::new(BTreeSet::new()),
            backlog_highwater_raw: AtomicU64::new(0),
            backlog_highwater: registry.gauge(
                "ausdb_subscriber_backlog_highwater",
                "Highest total subscriber queue depth observed since start",
                &[],
            ),
            registry,
        }
    }

    /// Folds `total` queued lines into the backlog high-water mark.
    fn note_backlog(&self, total: u64) {
        let prev = self.backlog_highwater_raw.fetch_max(total, Ordering::Relaxed);
        self.backlog_highwater.set(prev.max(total) as f64);
    }

    /// Fetches (or creates) the SLO series for standing query `id`.
    fn slo(&self, id: u64) -> (Arc<Counter>, Arc<Gauge>) {
        let query = id.to_string();
        let labels = [("query", query.as_str())];
        (
            self.registry.counter(
                "ausdb_accuracy_slo_violations_total",
                "Window closes where a standing query's CI width exceeded its SLO target",
                &labels,
            ),
            self.registry.gauge(
                "ausdb_ci_width_over_target",
                "How far the last evaluated CI width sat above the SLO target (0 = compliant)",
                &labels,
            ),
        )
    }

    /// Fetches (or creates) the labeled counter handles for `name`. A
    /// stream re-created under the same name resumes its counts — the
    /// series, not the handle, owns the value.
    pub(crate) fn stream(&self, name: &str) -> StreamCounters {
        let labels = [("stream", name)];
        StreamCounters {
            rows: self.registry.counter(
                "ausdb_rows_ingested_total",
                "Raw rows accepted by INGEST",
                &labels,
            ),
            late: self.registry.counter(
                "ausdb_late_rows_total",
                "Rows whose timestamp predated the open window",
                &labels,
            ),
            windows: self.registry.counter(
                "ausdb_windows_emitted_total",
                "Windows closed with at least one learned tuple",
                &labels,
            ),
            // Event-time units: 1 .. 9·10⁵ covers in-order streams (lag
            // 0-1 windows) through day-scale replays.
            event_lag: self.registry.histogram(
                "ausdb_event_time_lag_seconds",
                "Event-time distance the watermark ran past each closed window's end",
                &log_linear_bounds(0, 5),
                &labels,
            ),
            // Wall-clock: 1µs .. 90s, same shape as the latency families.
            ingest_to_close: self.registry.histogram(
                "ausdb_ingest_to_close_seconds",
                "Wall-clock from a window's first buffered row to its close",
                &log_linear_bounds(-6, 1),
                &labels,
            ),
        }
    }
}

/// One standing query's accuracy SLO: the CI-width ceiling plus its
/// cached metric handles (fetched once at `SLO SET`, because evaluation
/// happens in `fire_events`, which holds only `&self`).
#[derive(Debug)]
struct SloTarget {
    /// Maximum acceptable CI width across the query's result tuples.
    width: f64,
    violations: Arc<Counter>,
    over: Arc<Gauge>,
}

/// One stream's health snapshot, rendered as a `STREAM` line by the
/// `HEALTH` protocol verb.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct StreamHealth {
    /// Stream name (lowercased).
    pub(crate) name: String,
    /// Event-time watermark (largest timestamp seen), if any row arrived.
    pub(crate) watermark: Option<u64>,
    /// Microseconds since the last ingest touched the stream; `None`
    /// only until the first ingest after a restore.
    pub(crate) age_us: Option<u64>,
    /// Observations buffered in the open window.
    pub(crate) buffered: usize,
}

/// A standing query owned by some connection.
#[derive(Debug)]
pub struct Subscription {
    /// The FROM stream (lowercased) whose window closes trigger this query.
    pub stream: String,
    /// The SQL text, re-evaluated per closed window.
    pub sql: String,
    /// The subscriber's bounded event queue.
    pub queue: Arc<SubscriberQueue>,
}

/// A point-in-time summary of the server's monotonic counters, surfaced
/// by `STATS`. Computed from the metric registry's counter series (the
/// registry is the single source of truth; this struct is the stable
/// programmatic view of it).
#[derive(Debug, Default, Clone, Copy)]
pub struct Counters {
    /// Raw rows accepted by `INGEST`.
    pub rows_ingested: u64,
    /// Rows whose timestamp predated the open window (dropped at close).
    pub late_rows: u64,
    /// Windows closed with at least one learned tuple.
    pub windows_emitted: u64,
    /// One-shot `QUERY` statements executed.
    pub queries_run: u64,
    /// Subscriber event blocks generated (before any queue drops).
    pub events_emitted: u64,
}

/// What one `QUERY` statement produced: rows for a SELECT, rendered plan
/// lines for `EXPLAIN` / `EXPLAIN ANALYZE`.
#[derive(Debug, Clone)]
pub enum QueryReply {
    /// SELECT results.
    Rows(Schema, Vec<Tuple>),
    /// Plan text, one operator per line.
    Plan(Vec<String>),
}

/// What one `INGEST` did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestOutcome {
    /// Windows that closed with learned tuples as a result of this row.
    pub windows_emitted: u64,
}

/// What one `INGESTB` batch frame did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchOutcome {
    /// Rows accepted from the frame.
    pub accepted: u64,
    /// Rows whose timestamp predated the then-open window.
    pub late: u64,
    /// Windows that closed with learned tuples while applying the frame.
    pub windows_emitted: u64,
}

/// The cross-key half of the engine, one per [`crate::shard::ShardSet`]
/// behind its `core` mutex (the last lock in the order): the query session
/// holding each stream's last closed window, the standing queries with
/// their SLO targets, and the accuracy history. It never sees a raw row —
/// the shard set hands it closed windows.
pub(crate) struct QueryCore {
    max_subscribers: usize,
    queue_cap: usize,
    session: Session,
    subscriptions: BTreeMap<u64, Subscription>,
    next_subscription_id: u64,
    slo_targets: BTreeMap<u64, SloTarget>,
    telemetry: Arc<ServerTelemetry>,
    last_stats: Option<StatsReport>,
    /// The accuracy-trajectory / metric retention store. Strictly
    /// observational: written on window closes (accuracy points) and by
    /// the server's sampler thread (metric buckets), never read on the
    /// query path.
    history: Arc<SeriesStore>,
}

impl QueryCore {
    /// An empty core recording into the engine's shared `telemetry`.
    pub(crate) fn new(config: &EngineConfig, telemetry: Arc<ServerTelemetry>) -> Self {
        Self {
            max_subscribers: config.max_subscribers,
            queue_cap: config.queue_cap,
            session: Session::new(),
            subscriptions: BTreeMap::new(),
            next_subscription_id: 1,
            slo_targets: BTreeMap::new(),
            telemetry,
            last_stats: None,
            history: Arc::new(SeriesStore::with_default_tiers()),
        }
    }

    /// The retention store behind `HISTORY` / `GET /history`.
    pub(crate) fn history(&self) -> Arc<SeriesStore> {
        Arc::clone(&self.history)
    }

    /// The query session (registered streams = last closed windows).
    pub(crate) fn session(&self) -> &Session {
        &self.session
    }

    /// Registers a closed, non-empty window: it becomes the stream's
    /// session content, and every subscription on the stream is
    /// re-evaluated against it. `late_rows` is the stream's cumulative
    /// late count at this close.
    pub(crate) fn register_closed_window(
        &mut self,
        name: &str,
        schema: Schema,
        tuples: Vec<Tuple>,
        ws: u64,
        late_rows: u64,
    ) {
        self.session.register(name, schema, tuples);
        self.fire_events(name, ws, late_rows);
    }

    /// Replaces the session's content with a snapshot's registered windows
    /// without firing events (restore path). The session keeps its
    /// `QueryConfig` and batch size: seeds are not part of a snapshot.
    pub(crate) fn restore_session(&mut self, registered: Vec<(String, Schema, Vec<Tuple>)>) {
        let mut session = Session::new();
        session.config = self.session.config;
        session.batch_size = self.session.batch_size;
        for (name, schema, tuples) in registered {
            session.register(&name, schema, tuples);
        }
        self.session = session;
    }

    /// The highest total subscriber queue depth observed since start.
    pub(crate) fn backlog_highwater(&self) -> u64 {
        self.telemetry.backlog_highwater_raw.load(Ordering::Relaxed)
    }

    /// Samples the per-stream subscriber queue-depth gauges (and the
    /// backlog high-water mark) from current queue sizes. Streams that
    /// lost their last subscriber are pinned back to 0.
    pub(crate) fn sample_queue_depth(&self) {
        let mut per_stream: BTreeMap<String, usize> = BTreeMap::new();
        for sub in self.subscriptions.values() {
            *per_stream.entry(sub.stream.clone()).or_default() += sub.queue.len();
        }
        self.telemetry.note_backlog(per_stream.values().map(|&n| n as u64).sum());
        let mut known =
            self.telemetry.queue_streams.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        known.extend(per_stream.keys().cloned());
        for name in known.iter() {
            let depth = per_stream.get(name).copied().unwrap_or(0);
            self.telemetry
                .registry
                .gauge("ausdb_subscriber_queue_depth", QUEUE_DEPTH_HELP, &[("stream", name)])
                .set(depth as f64);
        }
    }

    /// The `STATS` per-subscriber lines plus the last-query block, without
    /// the server/stream lines (the shard set renders those from its cursors).
    pub(crate) fn subscriber_and_query_stat_lines(&self) -> Vec<String> {
        let mut out = Vec::new();
        for (id, sub) in &self.subscriptions {
            out.push(format!(
                "subscriber {id} stream={} queued={} dropped_pending={}",
                sub.stream,
                sub.queue.len(),
                sub.queue.dropped()
            ));
        }
        if let Some(report) = &self.last_stats {
            out.push("last query:".to_string());
            out.extend(report.to_string().lines().map(|l| format!("  {l}")));
        }
        out
    }

    /// Runs a one-shot statement against the current stream contents,
    /// recording its operator stats for `STATS` when it executed (SELECT
    /// and `EXPLAIN ANALYZE`; a plain `EXPLAIN` only plans).
    pub(crate) fn query(&mut self, sql: &str) -> Result<QueryReply, String> {
        let start = Instant::now();
        match run_statement_with_stats(&self.session, sql) {
            Ok((out, report)) => {
                self.telemetry.queries.inc();
                let elapsed = start.elapsed();
                self.telemetry.query_latency.observe_duration(elapsed);
                journal::global().record(Level::Info, "query", || {
                    let what = match &out {
                        SqlOutput::Rows { tuples, .. } => format!("rows={}", tuples.len()),
                        SqlOutput::Plan(_) => "plan".to_string(),
                    };
                    format!("{what} took={}us", elapsed.as_micros())
                });
                if let Some(report) = report {
                    self.last_stats = Some(report);
                }
                Ok(match out {
                    SqlOutput::Rows { schema, tuples } => QueryReply::Rows(schema, tuples),
                    SqlOutput::Plan(text) => {
                        QueryReply::Plan(text.lines().map(str::to_string).collect())
                    }
                })
            }
            Err(e) => {
                journal::global().record(Level::Warn, "query", || format!("error: {e}"));
                Err(e.to_string())
            }
        }
    }

    /// Registers a standing query. Returns `(id, stream)` on success.
    pub(crate) fn subscribe(
        &mut self,
        sql: &str,
    ) -> Result<(u64, String, Arc<SubscriberQueue>), String> {
        if self.subscriptions.len() >= self.max_subscribers {
            return Err(format!("subscriber limit {} reached", self.max_subscribers));
        }
        let stmt = parse(sql).map_err(|e| e.to_string())?;
        // Refuse here what could never run: an accepted subscription that
        // cannot plan would answer every close with `EVENT <id> ERR`. A
        // stream nothing has been ingested to yet has no schema to check.
        plan(&stmt, self.session.schema_of(&stmt.from).ok()).map_err(|e| e.to_string())?;
        let stream = stmt.from.to_ascii_lowercase();
        let id = self.next_subscription_id;
        self.next_subscription_id += 1;
        let queue = Arc::new(SubscriberQueue::new(self.queue_cap));
        self.subscriptions.insert(
            id,
            Subscription {
                stream: stream.clone(),
                sql: sql.to_string(),
                queue: Arc::clone(&queue),
            },
        );
        Ok((id, stream, queue))
    }

    /// Cancels a subscription (and any SLO attached to it); returns
    /// whether it existed.
    pub(crate) fn unsubscribe(&mut self, id: u64) -> bool {
        self.slo_targets.remove(&id);
        self.subscriptions.remove(&id).is_some()
    }

    /// Registers (or replaces) an accuracy SLO on standing query `id`:
    /// from now on, every window-close evaluation whose widest CI
    /// exceeds `width` counts a violation, pushes an `ACCURACY` notice
    /// on the subscriber's queue, and journals a WARN `slo` span.
    pub(crate) fn set_slo(&mut self, id: u64, width: f64) -> Result<(), String> {
        if !(width.is_finite() && width > 0.0) {
            return Err(format!("bad SLO width {width} (want a finite value > 0)"));
        }
        if !self.subscriptions.contains_key(&id) {
            return Err(format!("no subscription {id}"));
        }
        let (violations, over) = self.telemetry.slo(id);
        self.slo_targets.insert(id, SloTarget { width, violations, over });
        Ok(())
    }

    /// `(registered targets, total violations)` across every accuracy
    /// SLO — the `HEALTH` summary fields.
    pub(crate) fn slo_summary(&self) -> (usize, u64) {
        (self.slo_targets.len(), self.slo_targets.values().map(|t| t.violations.get()).sum())
    }

    /// The `SLO LIST` payload: one line per registered target.
    pub(crate) fn slo_lines(&self) -> Vec<String> {
        self.slo_targets
            .iter()
            .map(|(id, t)| {
                let stream = self.subscriptions.get(id).map_or("-", |s| s.stream.as_str());
                format!(
                    "SLO {id} stream={stream} target={} violations={}",
                    t.width,
                    t.violations.get()
                )
            })
            .collect()
    }

    /// Evaluates query `id`'s SLO against `width`, the widest CI of its
    /// freshly computed result, returning the `ACCURACY` notice line on a
    /// violation. Reads only already-computed accuracy info — results are
    /// never touched.
    fn check_slo(&self, id: u64, width: f64, window_start: u64) -> Option<String> {
        let target = self.slo_targets.get(&id)?;
        target.over.set((width - target.width).max(0.0));
        if width <= target.width {
            return None;
        }
        target.violations.inc();
        journal::global().record(Level::Warn, "slo", || {
            format!(
                "query={id} window_start={window_start} width={width} target={} violated",
                target.width
            )
        });
        Some(format!("ACCURACY {id} width={width} target={}", target.width))
    }

    /// Number of active subscriptions.
    pub(crate) fn subscriber_count(&self) -> usize {
        self.subscriptions.len()
    }

    /// Re-evaluates every subscription on `stream` and pushes the result
    /// into its queue as an `EVENT` block. `late_rows` is the stream's
    /// cumulative late count at this close (shard-count invariant by the
    /// merge invariant), recorded into the accuracy trajectory.
    fn fire_events(&self, stream: &str, window_start: u64, late_rows: u64) {
        let mut matched = 0usize;
        let engine = ausdb_engine::obs::telemetry::global();
        for (&id, sub) in &self.subscriptions {
            if sub.stream != stream {
                continue;
            }
            matched += 1;
            self.telemetry.events.inc();
            // Engine counter baselines: the deltas across this evaluation
            // are the per-window resample / coupled-verdict costs that go
            // into the accuracy trajectory.
            let resamples0 = engine.bootstrap_resamples.get();
            let true0 = engine.verdict(Some(true)).get();
            let false0 = engine.verdict(Some(false)).get();
            match run_sql(&self.session, &sub.sql) {
                Ok((_, tuples)) => {
                    let ci_width = max_ci_width(&tuples);
                    let notice = self.check_slo(id, ci_width, window_start);
                    self.history.record_accuracy(
                        id,
                        AccuracyPoint {
                            window_start,
                            ci_width,
                            df_n: max_sample_size(&tuples),
                            resamples: engine.bootstrap_resamples.get() - resamples0,
                            verdicts_true: engine.verdict(Some(true)).get() - true0,
                            verdicts_false: engine.verdict(Some(false)).get() - false0,
                            rows: tuples.len() as u64,
                            late_rows,
                        },
                    );
                    // Header, rows and notice go out as one block, so the
                    // subscriber's connection drains all of it or none.
                    let mut block = String::from("EVENT ");
                    push_u64(&mut block, id);
                    block.push_str(" WINDOW ");
                    push_u64(&mut block, window_start);
                    block.push_str(" ROWS ");
                    push_u64(&mut block, tuples.len() as u64);
                    block.push('\n');
                    render_rows_into(&mut block, &tuples);
                    let mut lines = 1 + tuples.len();
                    if let Some(notice) = notice {
                        block.push_str(&notice);
                        block.push('\n');
                        lines += 1;
                    }
                    sub.queue.push_block(block, lines);
                }
                Err(e) => {
                    sub.queue.push(format!("EVENT {id} ERR {e}"));
                }
            }
        }
        if matched > 0 {
            let backlog: usize = self.subscriptions.values().map(|s| s.queue.len()).sum();
            self.telemetry.note_backlog(backlog as u64);
            journal::global().record(Level::Info, "fanout", || {
                format!("stream={stream} window_start={window_start} subscribers={matched}")
            });
        }
    }
}

/// Serialized form of one stream's state.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamSnapshot {
    /// Stream name (lowercased).
    pub name: String,
    /// The learner's own encoded snapshot payload.
    pub learner: Vec<u8>,
    /// Open-window cursor.
    pub window_start: Option<u64>,
    /// The stream's registered content (last non-empty closed window).
    pub registered: Option<(Schema, Vec<Tuple>)>,
}

/// Serialized form of the whole engine: the unit [`crate::snapshot`]
/// writes to disk.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ServerSnapshot {
    /// Every known stream.
    pub streams: Vec<StreamSnapshot>,
    /// WAL watermark: the sequence number of the last WAL record whose
    /// effects this snapshot contains. Recovery replays only records with
    /// `seq > wal_seq`. Zero when no WAL was attached (and in every
    /// pre-WAL, format-version-1 snapshot).
    pub wal_seq: u64,
}

// The learner lives in another crate; nest its encoding as a byte payload
// so each crate owns its own format.
pub(crate) fn encode_learner(learner: &StreamLearner) -> Vec<u8> {
    let mut w = Writer::new();
    learner.encode(&mut w);
    w.into_bytes()
}

pub(crate) fn decode_learner(bytes: &[u8]) -> Result<StreamLearner, CodecError> {
    let mut r = Reader::new(bytes, ausdb_model::codec::FORMAT_VERSION);
    let learner = StreamLearner::decode(&mut r)?;
    if r.remaining() > 0 {
        return Err(CodecError::TrailingBytes(r.remaining()));
    }
    Ok(learner)
}

impl Codec for StreamSnapshot {
    fn encode(&self, w: &mut Writer) {
        w.put_str(&self.name);
        w.put_len(self.learner.len());
        w.put_bytes(&self.learner);
        self.window_start.encode(w);
        self.registered.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let name = r.get_str("stream name")?;
        let n = r.get_len("learner payload length")?;
        let mut learner = Vec::with_capacity(n);
        for _ in 0..n {
            learner.push(r.get_u8("learner payload")?);
        }
        Ok(Self {
            name,
            learner,
            window_start: Option::<u64>::decode(r)?,
            registered: Option::<(Schema, Vec<Tuple>)>::decode(r)?,
        })
    }
}

impl Codec for ServerSnapshot {
    fn encode(&self, w: &mut Writer) {
        self.streams.encode(w);
        w.put_u64(self.wal_seq);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let streams = Vec::<StreamSnapshot>::decode(r)?;
        // The watermark arrived with format version 2; a version-1
        // snapshot predates the WAL, so nothing is replay-covered.
        let wal_seq = if r.version() >= 2 { r.get_u64("wal watermark")? } else { 0 };
        Ok(Self { streams, wal_seq })
    }
}

/// Aligns a timestamp down to its window's start.
pub(crate) fn align(ts: u64, width: u64) -> u64 {
    ts - ts % width.max(1)
}

/// The widest confidence interval advertised anywhere in a result set:
/// tuple membership CIs plus every field's mean/variance/bin CIs. A
/// result with no accuracy info has width 0 (an exact answer trivially
/// meets any SLO).
pub(crate) fn max_ci_width(tuples: &[Tuple]) -> f64 {
    let mut width = 0.0f64;
    for t in tuples {
        if let Some(ci) = &t.membership.ci {
            width = width.max(ci.length());
        }
        for field in &t.fields {
            let Some(acc) = &field.accuracy else { continue };
            for ci in acc.mean_ci.iter().chain(acc.variance_ci.iter()) {
                width = width.max(ci.length());
            }
            for ci in acc.bin_cis.iter().flatten() {
                width = width.max(ci.length());
            }
        }
    }
    width
}

/// The de-facto sample size behind a result set: the largest `n`
/// advertised by any tuple's membership probability, field, or field
/// accuracy info. 0 when the result carries no sample-size information.
pub(crate) fn max_sample_size(tuples: &[Tuple]) -> u64 {
    let mut n = 0usize;
    for t in tuples {
        n = n.max(t.membership.sample_size.unwrap_or(0));
        for field in &t.fields {
            n = n.max(field.sample_size.unwrap_or(0));
            if let Some(acc) = &field.accuracy {
                n = n.max(acc.sample_size);
            }
        }
    }
    n as u64
}

/// Validates a stream name: SQL-identifier-shaped, lowercased.
pub(crate) fn normalize_stream_name(name: &str) -> Result<String, String> {
    let ok = !name.is_empty()
        && name.chars().next().is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
        && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_');
    if ok {
        Ok(name.to_ascii_lowercase())
    } else {
        Err(format!("bad stream name '{name}' (want [A-Za-z_][A-Za-z0-9_]*)"))
    }
}

/// Parses an `INGEST` row: `key,ts,value` with the same timestamp forms as
/// CSV ingestion (integer or `H:MM[:SS]`).
pub(crate) fn parse_observation(row: &str) -> Result<RawObservation, String> {
    let cells: Vec<&str> = row.split(',').map(str::trim).collect();
    if cells.len() != 3 {
        return Err(format!("expected key,ts,value — got {} cells", cells.len()));
    }
    let key: i64 = cells[0].parse().map_err(|_| format!("bad key '{}'", cells[0]))?;
    let ts = parse_timestamp(cells[1]).ok_or_else(|| format!("bad timestamp '{}'", cells[1]))?;
    let value: f64 = cells[2].parse().map_err(|_| format!("bad value '{}'", cells[2]))?;
    if !value.is_finite() {
        return Err(format!("non-finite value {value}"));
    }
    Ok(RawObservation::new(key, ts, value))
}

#[cfg(test)]
mod tests {
    //! `QueryCore` only ever sees closed windows, so these tests drive it
    //! (and the engine around it) through a one-shard [`ShardSet`].

    use super::*;
    use crate::shard::ShardSet;
    use ausdb_learn::accuracy::DistKind;

    fn test_config() -> EngineConfig {
        EngineConfig {
            learner: LearnerConfig {
                kind: DistKind::Empirical,
                level: 0.9,
                window_width: 10,
                min_observations: 2,
            },
            max_subscribers: 4,
            queue_cap: 64,
            shards: 1,
        }
    }

    /// The stream's session content: its last non-empty closed window.
    fn registered(state: &ShardSet, stream: &str) -> (Schema, Vec<Tuple>) {
        let streams = state.to_snapshot().streams;
        let s = streams.into_iter().find(|s| s.name == stream).expect("stream exists");
        s.registered.expect("a window closed")
    }

    fn ingest_window(state: &ShardSet, base_ts: u64) -> IngestOutcome {
        state.ingest("traffic", &format!("19,{},56", base_ts)).unwrap();
        state.ingest("traffic", &format!("19,{},38", base_ts + 1)).unwrap();
        state.ingest("traffic", &format!("19,{},97", base_ts + 1)).unwrap();
        // This row is in the next window: closes the previous one.
        state.ingest("traffic", &format!("19,{},60", base_ts + 10)).unwrap()
    }

    #[test]
    fn window_close_registers_stream() {
        let state = ShardSet::new(test_config());
        let out = ingest_window(&state, 100);
        assert_eq!(out.windows_emitted, 1);
        let (schema, tuples) = registered(&state, "traffic");
        assert_eq!(schema.columns().len(), 2);
        assert_eq!(tuples.len(), 1, "one key in the window");
        assert_eq!(state.counters().rows_ingested, 4);
    }

    #[test]
    fn large_time_jump_is_single_close() {
        let state = ShardSet::new(test_config());
        state.ingest("s", "1,0,5").unwrap();
        state.ingest("s", "1,1,6").unwrap();
        // Jump ~10^15 windows ahead: must close exactly one non-empty
        // window (and return promptly — O(non-empty), not O(Δt)).
        let out = state.ingest("s", "1,10000000000000000,7").unwrap();
        assert_eq!(out.windows_emitted, 1);
        assert_eq!(state.counters().windows_emitted, 1);
    }

    #[test]
    fn late_rows_counted_not_emitted() {
        let state = ShardSet::new(test_config());
        ingest_window(&state, 100);
        state.ingest("traffic", "19,50,1").unwrap(); // long before the open window
        assert_eq!(state.counters().late_rows, 1);
    }

    #[test]
    fn subscribe_fires_on_window_close() {
        let state = ShardSet::new(test_config());
        let (id, stream, queue) = state.subscribe("SELECT * FROM traffic").unwrap();
        assert_eq!(stream, "traffic");
        assert!(queue.is_empty(), "no events before any window closes");
        ingest_window(&state, 100);
        let lines = queue.drain();
        assert!(
            lines[0].starts_with(&format!("EVENT {id} WINDOW 100 ROWS ")),
            "got: {:?}",
            lines[0]
        );
        assert!(lines.len() >= 2, "header plus at least one row");
        assert!(state.unsubscribe(id));
        assert!(!state.unsubscribe(id));
    }

    /// One connection holding four subscriptions drains its queues while
    /// the ingest thread is still firing events: every `EVENT` block must
    /// arrive whole, never cut in two around another subscription's lines.
    #[test]
    fn event_blocks_reach_a_draining_connection_whole() {
        const KEYS: u64 = 32;
        const WINDOWS: u64 = 400;
        let state = ShardSet::new(EngineConfig { queue_cap: 1 << 20, ..test_config() });
        let queues: Vec<_> = (0..4)
            .map(|_| state.subscribe("SELECT * FROM traffic").expect("under the limit").2)
            .collect();
        let start = std::sync::Barrier::new(2);
        let done = std::sync::atomic::AtomicBool::new(false);
        let mut wire = String::new();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                start.wait();
                for w in 0..=WINDOWS {
                    for key in 0..KEYS {
                        for v in [40 + key, 60 + w % 7] {
                            state.ingest("traffic", &format!("{key},{},{v}", w * 10)).unwrap();
                        }
                    }
                }
                done.store(true, Ordering::SeqCst);
            });
            // The writer thread's drain step, without the socket or the
            // wake-up (`loopback.rs` runs the real two-thread connection).
            let mut fan_out = || {
                for queue in &queues {
                    queue.drain_into(&mut wire);
                }
            };
            start.wait();
            while !done.load(Ordering::SeqCst) {
                fan_out();
                // Closes pile up between fan-outs, so a block caught
                // mid-push would be completed only after the other
                // queue's newer events.
                std::thread::sleep(std::time::Duration::from_micros(500));
            }
            fan_out();
        });
        let mut lines = wire.lines();
        let mut events = 0;
        while let Some(header) = lines.next() {
            let rows: usize = header
                .strip_prefix("EVENT ")
                .and_then(|h| h.rsplit_once(" ROWS "))
                .and_then(|(_, n)| n.parse().ok())
                .unwrap_or_else(|| panic!("expected an EVENT header, got: {header}"));
            assert_eq!(rows, KEYS as usize);
            for _ in 0..rows {
                let row = lines.next().expect("block cut short at end of stream");
                assert!(row.starts_with("ROW "), "block cut in two after {header}: {row}");
            }
            events += 1;
        }
        assert_eq!(events, 4 * WINDOWS, "every close reached both subscriptions");
    }

    #[test]
    fn subscribe_that_cannot_plan_is_refused_and_registers_nothing() {
        let state = ShardSet::new(test_config());
        ingest_window(&state, 100);
        for sql in [
            "SELECT nope FROM traffic",
            "SELECT key, AVG(value) FROM traffic GROUP BY key WINDOW AVG(value) SIZE 2",
        ] {
            let err = state.subscribe(sql).expect_err(sql);
            assert!(err.contains("plan error"), "{sql}: {err}");
        }
        assert_eq!(state.subscriber_count(), 0);
        // Ids are not burnt by refusals, and an unseen stream still subscribes.
        assert_eq!(state.subscribe("SELECT * FROM traffic").unwrap().0, 1);
        assert_eq!(state.subscribe("SELECT anything FROM later").unwrap().0, 2);
    }

    #[test]
    fn subscriber_limit_enforced() {
        let state = ShardSet::new(test_config());
        for _ in 0..4 {
            state.subscribe("SELECT * FROM traffic").unwrap();
        }
        assert!(state.subscribe("SELECT * FROM traffic").is_err());
    }

    #[test]
    fn snapshot_restore_is_identical() {
        let state = ShardSet::new(test_config());
        ingest_window(&state, 100);
        state.ingest("traffic", "19,111,42").unwrap(); // buffered, window open
        let snap = state.to_snapshot();

        let restored = ShardSet::new(test_config());
        restored.restore(snap.clone()).unwrap();
        assert_eq!(restored.to_snapshot(), snap, "restore is lossless");

        // Same subsequent ingest ⇒ same registered tuples, bit for bit.
        state.ingest("traffic", "19,120,9").unwrap();
        restored.ingest("traffic", "19,120,9").unwrap();
        let (_, a) = registered(&state, "traffic");
        let (_, b) = registered(&restored, "traffic");
        assert_eq!(a, b);
    }

    #[test]
    fn bad_rows_and_names_rejected() {
        let state = ShardSet::new(test_config());
        assert!(state.ingest("s", "1,2").is_err());
        assert!(state.ingest("s", "x,2,3").is_err());
        assert!(state.ingest("s", "1,zz,3").is_err());
        assert!(state.ingest("s", "1,2,inf").is_err());
        assert!(state.ingest("9bad", "1,2,3").is_err());
        assert!(state.ingest("", "1,2,3").is_err());
        assert_eq!(state.counters().rows_ingested, 0);
    }

    #[test]
    fn metrics_text_reports_per_stream_counters() {
        let state = ShardSet::new(test_config());
        ingest_window(&state, 100);
        state.ingest("traffic", "19,50,1").unwrap(); // late row
        state.query("SELECT * FROM traffic").unwrap();
        let text = state.metrics_text();
        assert!(text.contains("ausdb_rows_ingested_total{stream=\"traffic\"} 5"), "{text}");
        assert!(text.contains("ausdb_late_rows_total{stream=\"traffic\"} 1"), "{text}");
        assert!(text.contains("ausdb_windows_emitted_total{stream=\"traffic\"} 1"), "{text}");
        assert!(text.contains("ausdb_queries_total 1"), "{text}");
        assert!(text.contains("# TYPE ausdb_query_latency_seconds histogram"), "{text}");
        assert!(text.contains("ausdb_subscriber_backlog_highwater 0"), "{text}");
        // The new lag families appear per stream once a window closed.
        assert!(text.contains("ausdb_event_time_lag_seconds_count{stream=\"traffic\"}"), "{text}");
        assert!(text.contains("ausdb_ingest_to_close_seconds_count{stream=\"traffic\"}"), "{text}");
        // Engine-wide accuracy families are merged into the exposition.
        assert!(text.contains("# TYPE ausdb_sig_verdicts_total counter"), "{text}");
        assert!(text.contains("# TYPE ausdb_ci_relative_width histogram"), "{text}");
        // The STATS view is computed from the same registry.
        let c = state.counters();
        assert_eq!((c.rows_ingested, c.late_rows, c.windows_emitted, c.queries_run), (5, 1, 1, 1));
        let stats = state.stats_lines();
        assert!(
            stats.iter().any(|l| l.starts_with("stream traffic") && l.contains("late_rows=1")),
            "per-stream late_rows in STATS: {stats:?}"
        );
    }

    #[test]
    fn queue_depth_gauges_are_per_stream_with_highwater() {
        let state = ShardSet::new(test_config());
        let (_, _, queue) = state.subscribe("SELECT * FROM traffic").unwrap();
        ingest_window(&state, 100); // one EVENT block queued, never drained
        let queued = queue.len();
        assert!(queued >= 2, "header plus rows");
        let text = state.metrics_text();
        assert!(
            text.contains(&format!("ausdb_subscriber_queue_depth{{stream=\"traffic\"}} {queued}")),
            "{text}"
        );
        assert!(text.contains(&format!("ausdb_subscriber_backlog_highwater {queued}")), "{text}");
        assert!(state.backlog_highwater() as usize >= queued);
        // Draining (and dropping the subscriber) pins the series to 0 —
        // but the high-water mark keeps the peak.
        queue.drain();
        let text = state.metrics_text();
        assert!(text.contains("ausdb_subscriber_queue_depth{stream=\"traffic\"} 0"), "{text}");
        assert!(text.contains(&format!("ausdb_subscriber_backlog_highwater {queued}")), "{text}");
    }

    #[test]
    fn slo_violation_fires_notice_counter_and_gauge() {
        let state = ShardSet::new(test_config());
        let (id, _, queue) = state.subscribe("SELECT * FROM traffic").unwrap();
        // SLO management: unknown id / bad widths rejected.
        assert!(state.set_slo(id + 1, 0.5).is_err());
        assert!(state.set_slo(id, 0.0).is_err());
        assert!(state.set_slo(id, f64::NAN).is_err());
        // An unreachably tight target: any learned CI is wider than 1e-9.
        state.set_slo(id, 1e-9).unwrap();
        assert_eq!(state.slo_lines().len(), 1);
        assert!(state.slo_lines()[0].contains("violations=0"), "{:?}", state.slo_lines());
        ingest_window(&state, 100);
        let lines = queue.drain();
        let notice = lines.iter().find(|l| l.starts_with("ACCURACY ")).expect("notice pushed");
        assert!(notice.starts_with(&format!("ACCURACY {id} width=")), "{notice}");
        assert!(notice.ends_with("target=0.000000001"), "{notice}");
        assert!(
            lines.iter().position(|l| l.starts_with("ACCURACY"))
                > lines.iter().position(|l| l.starts_with("EVENT")),
            "notice follows the EVENT block: {lines:?}"
        );
        assert!(state.slo_lines()[0].contains("violations=1"), "{:?}", state.slo_lines());
        let text = state.metrics_text();
        assert!(
            text.contains(&format!("ausdb_accuracy_slo_violations_total{{query=\"{id}\"}} 1")),
            "{text}"
        );
        assert!(text.contains(&format!("ausdb_ci_width_over_target{{query=\"{id}\"}}")), "{text}");
        // A loose target stops violating and zeroes the over-target gauge.
        state.set_slo(id, 1e9).unwrap();
        ingest_window(&state, 300);
        assert!(!queue.drain().iter().any(|l| l.starts_with("ACCURACY")), "loose SLO is quiet");
        let text = state.metrics_text();
        assert!(
            text.contains(&format!("ausdb_ci_width_over_target{{query=\"{id}\"}} 0")),
            "{text}"
        );
        // Unsubscribing tears the target down.
        state.unsubscribe(id);
        assert!(state.slo_lines().is_empty());
    }

    #[test]
    fn slo_watchdog_leaves_query_results_byte_identical() {
        let sql = "SELECT * FROM traffic";
        let plain = ShardSet::new(test_config());
        let watched = ShardSet::new(test_config());
        let (id, _, _queue) = watched.subscribe(sql).unwrap();
        watched.set_slo(id, 1e-9).unwrap();
        ingest_window(&plain, 100);
        ingest_window(&watched, 100);
        let QueryReply::Rows(_, a) = plain.query(sql).unwrap() else { panic!("rows") };
        let QueryReply::Rows(_, b) = watched.query(sql).unwrap() else { panic!("rows") };
        assert_eq!(a, b, "the watchdog observes, it never perturbs");
        assert_eq!(plain.to_snapshot(), watched.to_snapshot());
    }

    #[test]
    fn stream_health_tracks_watermark_and_buffer() {
        let state = ShardSet::new(test_config());
        assert!(state.stream_health().is_empty());
        ingest_window(&state, 100);
        let health = state.stream_health();
        assert_eq!(health.len(), 1);
        assert_eq!(health[0].name, "traffic");
        assert_eq!(health[0].watermark, Some(110), "largest ts seen");
        assert_eq!(health[0].buffered, 1, "the closing row stays buffered");
        assert!(health[0].age_us.is_some(), "an ingested stream has an age");
        // A late row never drags the watermark backwards.
        state.ingest("traffic", "19,50,1").unwrap();
        assert_eq!(state.stream_health()[0].watermark, Some(110));
    }

    #[test]
    fn max_ci_width_spans_membership_and_field_cis() {
        use ausdb_model::accuracy::TupleProbability;
        use ausdb_model::tuple::Field;
        use ausdb_stats::ci::ConfidenceInterval;
        assert_eq!(max_ci_width(&[]), 0.0);
        let plain = Tuple::certain(1, vec![Field::plain(1.0)]);
        assert_eq!(max_ci_width(std::slice::from_ref(&plain)), 0.0, "no accuracy info = exact");
        let mut t = plain;
        t.membership = TupleProbability {
            p: 0.5,
            ci: Some(ConfidenceInterval::new(0.4, 0.6, 0.9)),
            sample_size: Some(10),
        };
        t.fields[0].accuracy = Some(
            ausdb_model::accuracy::AccuracyInfo::new(10)
                .with_mean_ci(ConfidenceInterval::new(1.0, 2.5, 0.9)),
        );
        let width = max_ci_width(&[t]);
        assert!((width - 1.5).abs() < 1e-12, "widest CI wins: {width}");
    }

    #[test]
    fn restored_stream_resumes_its_counter_series() {
        let state = ShardSet::new(test_config());
        ingest_window(&state, 100);
        let snap = state.to_snapshot();
        assert_eq!(state.counters().rows_ingested, 4);
        state.restore(snap).unwrap();
        // Same registry, same series: counts survive the restore.
        state.ingest("traffic", "19,200,3").unwrap();
        assert_eq!(state.counters().rows_ingested, 5);
    }

    #[test]
    fn query_records_stats() {
        let state = ShardSet::new(test_config());
        ingest_window(&state, 100);
        let QueryReply::Rows(_, tuples) = state.query("SELECT * FROM traffic").unwrap() else {
            panic!("SELECT returns rows");
        };
        assert_eq!(tuples.len(), 1);
        assert!(state.stats_lines().iter().any(|l| l.contains("last query:")));
        assert!(state.query("SELECT * FROM nosuch").is_err());
    }

    #[test]
    fn explain_statements_return_plans() {
        let state = ShardSet::new(test_config());
        ingest_window(&state, 100);
        let QueryReply::Plan(plan) = state.query("EXPLAIN SELECT * FROM traffic").unwrap() else {
            panic!("EXPLAIN returns a plan");
        };
        assert!(plan.iter().any(|l| l.contains("Scan [traffic]")), "{plan:?}");
        // Plain EXPLAIN does not execute, so it leaves no operator stats.
        assert!(!state.stats_lines().iter().any(|l| l.contains("last query:")));
        let QueryReply::Plan(plan) =
            state.query("EXPLAIN ANALYZE SELECT * FROM traffic WHERE value > 40").unwrap()
        else {
            panic!("EXPLAIN ANALYZE returns a plan");
        };
        assert!(plan.iter().any(|l| l.contains("Filter") && l.contains("in=")), "{plan:?}");
        assert!(plan.iter().any(|l| l.starts_with("total:")), "{plan:?}");
        // ANALYZE executed, so STATS now carries the operator report.
        assert!(state.stats_lines().iter().any(|l| l.contains("last query:")));
    }
}
