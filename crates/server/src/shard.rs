//! The engine: key-sharded learner buffers behind one window-close path.
//!
//! A [`ShardSet`] is one logical engine for any `--shards N`, N ≥ 1. It
//! is made of three parts:
//!
//! * `N` `KeyBuffers`, each behind its own mutex: per stream, one
//!   [`StreamLearner`] buffering the keys that hash to the shard (a
//!   stable hash, so the assignment is identical across processes).
//!   Ingest for *different* streams then contends on different locks for
//!   all but the copy into a learner.
//! * one coordinator (`StreamMeta`) per stream: the window cursor, the
//!   watermark and the stream's counters.
//! * one `QueryCore`: everything cross-key — the query session
//!   (registered closed windows), subscriptions, SLO targets, history.
//!
//! There is one path for every shard count — `--shards 1` is this code
//! with N = 1, not a layout of its own: an `INGEST` line is a one-row
//! batch, a batch is cut into the longest runs that cannot close the open
//! window, each run is buffered shard by shard, and the row that ends a
//! run drives `ShardSet::close_global`, which hands the merged window
//! to `QueryCore::register_closed_window`.
//!
//! ## The merge invariant
//!
//! Sharding is an implementation detail, never a semantic one: for any
//! shard count, `QUERY` replies, subscriber blocks, `STATS` counts, and
//! snapshot bytes are **bit-identical** for the same rows in the same
//! order (`tests/golden_transcript.rs` pins the bytes themselves). Three
//! design rules make that hold:
//!
//! 1. **Shards only buffer.** A shard's per-stream learner accumulates
//!    observations but never advances a window cursor and never registers
//!    query content. The per-stream *coordinator* owns the one cursor.
//! 2. **The coordinator drives every close with that cursor.** A window
//!    closes exactly when an observation at/past its end arrives, and the
//!    empty-window jump uses the *minimum* buffered timestamp across all
//!    shards. (Letting each shard keep its own cursor is provably wrong:
//!    a shard that only holds old keys would lag, mis-classify late rows,
//!    and emit windows a single learner never emits.)
//! 3. **Merged output is key-sorted.** Each learner emits one tuple per
//!    key in key order and a key lives on exactly one shard, so sorting
//!    the concatenated per-shard tuples by key reproduces a single
//!    learner's `BTreeMap` iteration order exactly.
//!
//! ## Durability hook
//!
//! When a [`Wal`] is attached ([`ShardSet::attach_wal`]), every accepted
//! batch is appended to it **inside** the stream coordinator's critical
//! section and **before** any row touches a learner — so log order equals
//! apply order, and the log stores the raw pre-routing `(stream, rows)`
//! pair so replay re-splits correctly under any shard count.
//! [`ShardSet::snapshot_with_wal_seq`] captures a snapshot plus the WAL
//! watermark under the same locks, which is what makes "snapshot + replay
//! of records past the watermark" exact.
//!
//! Lock order (strict, deadlock-free): stream map → stream coordinator →
//! WAL → shard mutexes in ascending index → core. No path acquires an
//! earlier-order lock while holding a later one. A `QUERY` takes the core
//! alone, so it waits for at most one window close, never for the rest of
//! an ingest batch.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

use ausdb_learn::learner::{LearnerConfig, RawObservation, StreamLearner};
use ausdb_model::codec::FrameRow;
use ausdb_model::schema::Schema;
use ausdb_model::tuple::Tuple;
use ausdb_model::value::Value;
use ausdb_obs::{journal, Level, Registry, Sample, SeriesStore};
use ausdb_wal::{Wal, WalRecord};

use crate::state::{
    align, decode_learner, encode_learner, normalize_stream_name, parse_observation, BatchOutcome,
    Counters, EngineConfig, IngestOutcome, QueryCore, QueryReply, ServerSnapshot, ServerTelemetry,
    StreamCounters, StreamHealth, StreamSnapshot,
};
use crate::subscriber::SubscriberQueue;

/// Routes `key` to one of `n` shards with a stable 64-bit mix
/// (SplitMix64 finalizer). Stable across processes and architectures, so
/// snapshot restore onto a different shard count re-partitions exactly.
pub fn shard_of(key: i64, n: usize) -> usize {
    let mut x = (key as u64) ^ 0x9E37_79B9_7F4A_7C15;
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    (x % n.max(1) as u64) as usize
}

/// One shard's buffers: per stream, a learner holding the observations of
/// the keys that hash here, and nothing else — the cursor, the counters
/// and every query-side structure live once, outside the shards.
#[derive(Debug, Default)]
struct KeyBuffers {
    streams: BTreeMap<String, StreamLearner>,
}

impl KeyBuffers {
    /// Buffers `run` on stream `name`, resolving the stream once for the
    /// whole run. A stream this shard first sees rows for gets a learner
    /// built from `config`; an empty run creates nothing.
    fn observe_run(&mut self, name: &str, config: LearnerConfig, run: Vec<RawObservation>) {
        if run.is_empty() {
            return;
        }
        if !self.streams.contains_key(name) {
            self.streams.insert(name.to_string(), StreamLearner::new(config));
        }
        self.streams.get_mut(name).expect("stream just ensured").observe_all(run);
    }
}

/// Per-stream coordination state: the single window cursor, the
/// watermark, and the stream's metric handles (series in the engine's
/// registry, so they render in `METRICS` and survive restore).
#[derive(Debug)]
struct StreamMeta {
    /// Start of the currently open window; `None` until the first row.
    cursor: Option<u64>,
    /// Event-time watermark (largest timestamp seen). Observational only
    /// (never in snapshots or query results).
    max_ts: Option<u64>,
    /// Wall-clock of the last ingest call (`HEALTH` age); `None` until the
    /// first ingest after creation or restore.
    last_ingest: Option<Instant>,
    /// Wall-clock when the open window started accumulating rows
    /// (observed into `ingest_to_close` at close); `None` while no rows
    /// are buffered.
    opened_at: Option<Instant>,
    counters: StreamCounters,
}

impl StreamMeta {
    /// A coordinator at `cursor`. Metric handles are fetched by name: a
    /// stream re-created under a name it had before resumes its series.
    fn new(cursor: Option<u64>, telemetry: &ServerTelemetry, name: &str) -> Self {
        Self {
            cursor,
            max_ts: None,
            last_ingest: None,
            opened_at: None,
            counters: telemetry.stream(name),
        }
    }
}

/// `N` key-sharded learner buffers, one cursor per stream and one query
/// core presenting as one engine (see the module docs for the invariant
/// that keeps the merge exact).
pub struct ShardSet {
    config: EngineConfig,
    shards: Vec<Mutex<KeyBuffers>>,
    /// Per-stream coordinators, created on a stream's first non-empty batch.
    streams: Mutex<BTreeMap<String, Arc<Mutex<StreamMeta>>>>,
    /// Cross-key state: query session, subscriptions, SLO targets, history.
    core: Mutex<QueryCore>,
    /// The engine's one metric registry, shared with `core`.
    telemetry: Arc<ServerTelemetry>,
    /// Write-ahead log, attached once after recovery replay (so replay
    /// itself never re-logs). Absent when the server runs without
    /// `--wal-dir`.
    wal: OnceLock<Mutex<Wal>>,
}

/// How [`ShardSet::ingest_batch_inner`] treats the WAL for one batch.
#[derive(Debug, Clone, Copy)]
enum WalMode {
    /// Append with the next sequence number (live ingest).
    Log,
    /// Append with exactly this sequence number (follower replication).
    At(u64),
    /// Do not touch the log (recovery replay — the record is already there).
    Skip,
}

/// Locks a mutex, recovering from poisoning (a panicking connection
/// thread must not take the server down).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl ShardSet {
    /// Creates an engine with `config.shards` shards (minimum 1).
    pub fn new(config: EngineConfig) -> Self {
        let telemetry = Arc::new(ServerTelemetry::new());
        Self {
            config,
            shards: (0..config.shards.max(1)).map(|_| Mutex::default()).collect(),
            streams: Mutex::new(BTreeMap::new()),
            core: Mutex::new(QueryCore::new(&config, Arc::clone(&telemetry))),
            telemetry,
            wal: OnceLock::new(),
        }
    }

    /// Attaches the write-ahead log. Call once, after recovery replay —
    /// every subsequent accepted batch is logged before it is applied.
    ///
    /// # Panics
    ///
    /// Panics if a WAL is already attached.
    pub fn attach_wal(&self, wal: Wal) {
        assert!(self.wal.set(Mutex::new(wal)).is_ok(), "attach_wal called twice");
    }

    /// The attached write-ahead log, if any.
    pub fn wal(&self) -> Option<&Mutex<Wal>> {
        self.wal.get()
    }

    /// Appends one accepted, non-empty batch to the WAL per `mode`. The
    /// caller holds the stream coordinator, so log order equals apply order.
    fn wal_append(&self, name: &str, rows: &[RawObservation], mode: WalMode) -> Result<(), String> {
        let Some(wal) = self.wal.get() else { return Ok(()) };
        match mode {
            WalMode::Log => {
                // Encode straight from the observations — no intermediate
                // row vector on the hot path.
                lock(wal)
                    .append_iter(name, rows.iter().map(|r| (r.key, r.ts, r.value)))
                    .map_err(|e| format!("wal append: {e}"))?;
            }
            WalMode::At(seq) => {
                let frame: Vec<FrameRow> = rows.iter().map(|r| (r.key, r.ts, r.value)).collect();
                let rec = WalRecord { seq, stream: name.to_string(), rows: frame };
                lock(wal).append_at(&rec).map_err(|e| format!("wal append: {e}"))?;
            }
            WalMode::Skip => {}
        }
        Ok(())
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Fetches (or creates) the coordinator for stream `name`.
    fn stream_meta(&self, name: &str) -> Arc<Mutex<StreamMeta>> {
        let mut map = lock(&self.streams);
        if let Some(meta) = map.get(name) {
            return Arc::clone(meta);
        }
        let meta = Arc::new(Mutex::new(StreamMeta::new(None, &self.telemetry, name)));
        map.insert(name.to_string(), Arc::clone(&meta));
        meta
    }

    /// Ingests one `key,ts,value` row into `stream`: the `INGEST` line is
    /// a one-row batch.
    pub fn ingest(&self, stream: &str, row: &str) -> Result<IngestOutcome, String> {
        let obs = parse_observation(row)?;
        let out = self.ingest_batch_inner(stream, &[obs], WalMode::Log)?;
        Ok(IngestOutcome { windows_emitted: out.windows_emitted })
    }

    /// Ingests a pre-parsed batch as if each row arrived as its own
    /// `INGEST` line, in order. The whole batch is validated first (any
    /// non-finite value rejects the entire frame, so a partially applied
    /// batch is impossible to observe at the protocol level). Rows are
    /// then applied in the longest runs that cannot close the open window,
    /// so each such run takes one shard lock per shard instead of one per
    /// row — the serial equivalence is by construction (a row that cannot
    /// close a window only buffers, and the late verdict is constant
    /// while the cursor is).
    pub fn ingest_batch(
        &self,
        stream: &str,
        rows: &[RawObservation],
    ) -> Result<BatchOutcome, String> {
        self.ingest_batch_inner(stream, rows, WalMode::Log)
    }

    /// Re-applies a batch during crash recovery. Identical to
    /// [`ShardSet::ingest_batch`] except the WAL is left untouched — the
    /// record being replayed is already in it.
    pub fn apply_replayed(
        &self,
        stream: &str,
        rows: &[RawObservation],
    ) -> Result<BatchOutcome, String> {
        self.ingest_batch_inner(stream, rows, WalMode::Skip)
    }

    /// Applies a record streamed from a replication primary, logging it
    /// locally **at the primary's sequence number** so the follower's WAL
    /// is a byte-identical suffix of the primary's and promotion needs no
    /// renumbering.
    pub fn apply_replicated(&self, rec: &WalRecord) -> Result<BatchOutcome, String> {
        let rows: Vec<RawObservation> =
            rec.rows.iter().map(|&(k, t, v)| RawObservation::new(k, t, v)).collect();
        self.ingest_batch_inner(&rec.stream, &rows, WalMode::At(rec.seq))
    }

    fn ingest_batch_inner(
        &self,
        stream: &str,
        rows: &[RawObservation],
        mode: WalMode,
    ) -> Result<BatchOutcome, String> {
        let name = normalize_stream_name(stream)?;
        for (i, r) in rows.iter().enumerate() {
            if !r.value.is_finite() {
                return Err(format!("row {i}: non-finite value {}", r.value));
            }
        }
        // A frame with no rows is acknowledged and leaves no trace: no
        // stream, no coordinator, no WAL record.
        let Some(batch_max) = rows.iter().map(|r| r.ts).max() else {
            return Ok(BatchOutcome::default());
        };
        let width = self.config.learner.window_width;
        let meta_arc = self.stream_meta(&name);
        let mut meta = lock(&meta_arc);
        self.wal_append(&name, rows, mode)?;
        meta.max_ts = Some(meta.max_ts.map_or(batch_max, |m| m.max(batch_max)));
        // One `Instant` read per ingest *call*, not per row.
        let now = Instant::now();
        meta.last_ingest = Some(now);
        meta.opened_at.get_or_insert(now);
        let mut out = BatchOutcome::default();
        let mut i = 0;
        while i < rows.len() {
            let ws = *meta.cursor.get_or_insert_with(|| align(rows[i].ts, width));
            let end = ws.saturating_add(width);
            // Longest run that only buffers (no row at/past the window end).
            let mut late = 0u64;
            let mut j = i;
            while j < rows.len() && rows[j].ts < end {
                late += u64::from(rows[j].ts < ws);
                j += 1;
            }
            // The row that ends the run closes the window. It is buffered
            // with the run (never late — its timestamp is at/past the
            // window end) before it drives the close.
            let closing = rows.get(j).map(|obs| obs.ts);
            let run = &rows[i..(j + 1).min(rows.len())];
            self.observe_run(&name, run);
            meta.counters.rows.add(run.len() as u64);
            meta.counters.late.add(late);
            out.accepted += run.len() as u64;
            out.late += late;
            if let Some(through_ts) = closing {
                out.windows_emitted += self.close_global(&name, &mut meta, through_ts)?;
            }
            i += run.len();
        }
        Ok(out)
    }

    /// Buffers `run` on the shards owning its keys. The run is split by
    /// key hash into one staging vector per shard first, so each shard is
    /// locked once and resolves the stream once per run. Measured against
    /// filtering the run in place under each shard lock: the same at 1
    /// shard, about a quarter faster at 8, where in-place hashes every
    /// row once per shard.
    fn observe_run(&self, name: &str, run: &[RawObservation]) {
        let n = self.shards.len();
        let mut by_shard = vec![Vec::new(); n];
        for &obs in run {
            by_shard[shard_of(obs.key, n)].push(obs);
        }
        for (shard, mine) in self.shards.iter().zip(by_shard) {
            lock(shard).observe_run(name, self.config.learner, mine);
        }
    }

    /// Closes every window `through_ts` has moved past, merging each
    /// window's tuples across shards and registering non-empty ones on
    /// the core. The jump via the minimum buffered timestamp bounds
    /// iterations by the number of *non-empty* windows, so a large time
    /// skip is O(1), not O(Δt). Caller holds the stream's coordinator lock.
    fn close_global(
        &self,
        name: &str,
        meta: &mut StreamMeta,
        through_ts: u64,
    ) -> Result<u64, String> {
        let width = self.config.learner.window_width;
        let mut emitted = 0u64;
        loop {
            let ws = meta.cursor.expect("cursor set on first row");
            let next = ws.saturating_add(width);
            if through_ts < next {
                break;
            }
            let start = Instant::now();
            let (merged, schema, global_min) = {
                let mut guards: Vec<MutexGuard<'_, KeyBuffers>> =
                    self.shards.iter().map(lock).collect();
                let mut merged = Vec::new();
                let mut schema: Option<Schema> = None;
                for learner in guards.iter_mut().filter_map(|g| g.streams.get_mut(name)) {
                    merged.extend(learner.emit_window(ws).map_err(|e| format!("learn: {e}"))?);
                    if schema.is_none() {
                        schema = Some(learner.schema().clone());
                    }
                }
                // One tuple per key, each key on exactly one shard: sorting
                // by key reproduces a single learner's BTreeMap emission order.
                merged.sort_unstable_by_key(tuple_key);
                let global_min = guards
                    .iter()
                    .filter_map(|g| g.streams.get(name).and_then(StreamLearner::min_buffered_ts))
                    .min();
                (merged, schema, global_min)
            };
            meta.cursor = Some(match global_min {
                Some(min_ts) if min_ts >= next => align(min_ts, width),
                _ => next,
            });
            // Lag telemetry: watermark overrun in event time,
            // first-buffered-row to close in wall time.
            meta.counters.event_lag.observe(through_ts.saturating_sub(next) as f64);
            if let Some(t0) = meta.opened_at.take() {
                meta.counters.ingest_to_close.observe_duration(t0.elapsed());
            }
            if global_min.is_some() {
                // Buffered rows (the closing one, at least) started
                // accumulating the next window just now.
                meta.opened_at = Some(start);
            }
            let learned = merged.len();
            if let Some(schema) = schema.filter(|_| learned > 0) {
                emitted += 1;
                meta.counters.windows.inc();
                // Cumulative late rows at this close: the stream's counter
                // only moves under the coordinator lock held here, so the
                // accuracy trajectory is shard-count invariant.
                let late_rows = meta.counters.late.get();
                lock(&self.core).register_closed_window(name, schema, merged, ws, late_rows);
            }
            let elapsed = start.elapsed();
            self.telemetry.window_close.observe_duration(elapsed);
            journal::global().record(Level::Info, "window_close", || {
                format!(
                    "stream={name} window_start={ws} tuples={learned} took={}us",
                    elapsed.as_micros()
                )
            });
        }
        Ok(emitted)
    }

    /// Runs a one-shot statement against the merged session.
    pub fn query(&self, sql: &str) -> Result<QueryReply, String> {
        lock(&self.core).query(sql)
    }

    /// Registers a standing query.
    pub fn subscribe(&self, sql: &str) -> Result<(u64, String, Arc<SubscriberQueue>), String> {
        lock(&self.core).subscribe(sql)
    }

    /// Cancels a subscription; returns whether it existed.
    pub fn unsubscribe(&self, id: u64) -> bool {
        lock(&self.core).unsubscribe(id)
    }

    /// Number of active subscriptions.
    pub fn subscriber_count(&self) -> usize {
        lock(&self.core).subscriber_count()
    }

    /// Registers (or replaces) an accuracy SLO on standing query `id`.
    pub fn set_slo(&self, id: u64, width: f64) -> Result<(), String> {
        lock(&self.core).set_slo(id, width)
    }

    /// The `SLO LIST` payload.
    pub fn slo_lines(&self) -> Vec<String> {
        lock(&self.core).slo_lines()
    }

    /// `(registered targets, total violations)` across every accuracy SLO.
    pub fn slo_summary(&self) -> (usize, u64) {
        lock(&self.core).slo_summary()
    }

    /// The retention store accuracy points land in (subscriptions and
    /// closes live on the core). The server's sampler feeds metric scrapes
    /// into the same store.
    pub fn history(&self) -> Arc<SeriesStore> {
        lock(&self.core).history()
    }

    /// The highest total subscriber queue depth observed since start.
    pub fn backlog_highwater(&self) -> u64 {
        lock(&self.core).backlog_highwater()
    }

    /// Per-stream health snapshots (watermark, ingest age, buffered
    /// rows) for the `HEALTH` verb, in stream-name order.
    pub(crate) fn stream_health(&self) -> Vec<StreamHealth> {
        self.meta_list()
            .into_iter()
            .map(|(name, meta_arc)| {
                let (watermark, age_us) = {
                    let meta = lock(&meta_arc);
                    (meta.max_ts, meta.last_ingest.map(|t| t.elapsed().as_micros() as u64))
                };
                let buffered = self.shards.iter().map(|s| buffered_len(&lock(s), &name)).sum();
                StreamHealth { name, watermark, age_us, buffered }
            })
            .collect()
    }

    /// Current counters, summed across streams from the metric registry.
    pub fn counters(&self) -> Counters {
        self.sum_counters(&self.stream_counts())
    }

    /// Every stream's cursor and counters in name order, each read under
    /// the stream's coordinator lock.
    fn stream_counts(&self) -> Vec<(String, Option<u64>, Counters)> {
        self.meta_list()
            .into_iter()
            .map(|(name, meta_arc)| {
                let meta = lock(&meta_arc);
                let counts = Counters {
                    rows_ingested: meta.counters.rows.get(),
                    late_rows: meta.counters.late.get(),
                    windows_emitted: meta.counters.windows.get(),
                    ..Counters::default()
                };
                (name, meta.cursor, counts)
            })
            .collect()
    }

    /// The server-wide totals of `streams` plus the query and event counts.
    fn sum_counters(&self, streams: &[(String, Option<u64>, Counters)]) -> Counters {
        let mut c = Counters {
            queries_run: self.telemetry.queries.get(),
            events_emitted: self.telemetry.events.get(),
            ..Counters::default()
        };
        for (_, _, s) in streams {
            c.rows_ingested += s.rows_ingested;
            c.late_rows += s.late_rows;
            c.windows_emitted += s.windows_emitted;
        }
        c
    }

    /// `STATS` payload: server counters, per-stream and per-subscriber
    /// lines, then the last query's operator report.
    pub fn stats_lines(&self) -> Vec<String> {
        let streams = self.stream_counts();
        let guards: Vec<MutexGuard<'_, KeyBuffers>> = self.shards.iter().map(lock).collect();
        let core = lock(&self.core);
        let c = self.sum_counters(&streams);
        let mut out = vec![format!(
            "server rows_ingested={} late_rows={} windows_emitted={} queries={} events={} \
             subscribers={} streams={}",
            c.rows_ingested,
            c.late_rows,
            c.windows_emitted,
            c.queries_run,
            c.events_emitted,
            core.subscriber_count(),
            streams.len()
        )];
        for (name, cursor, counts) in &streams {
            let buffered: usize = guards.iter().map(|g| buffered_len(g, name)).sum();
            let registered = core.session().stream(name).map(|(_, t)| t.len()).unwrap_or(0);
            out.push(format!(
                "stream {name} buffered={buffered} window_start={} \
                 registered_rows={registered} rows={} late_rows={}",
                cursor.map_or_else(|| "-".to_string(), |ws| ws.to_string()),
                counts.rows_ingested,
                counts.late_rows,
            ));
        }
        out.extend(core.subscriber_and_query_stat_lines());
        out
    }

    /// The Prometheus exposition: the engine's registry (with the
    /// subscriber queue-depth gauges freshly sampled) merged with the
    /// process-wide engine accuracy registry.
    pub fn metrics_text(&self) -> String {
        self.metrics_text_with(&[])
    }

    /// Like [`ShardSet::metrics_text`], with extra registries merged in —
    /// WAL and replication telemetry live outside the engine.
    pub fn metrics_text_with(&self, extra: &[&Registry]) -> String {
        ausdb_obs::metrics::render_merged(&self.registries(extra))
    }

    /// One structured metric scrape for the retention sampler — the same
    /// registries, merge semantics, and ordering as
    /// [`ShardSet::metrics_text_with`], as typed samples instead of
    /// exposition text.
    pub fn collect_samples(&self, extra: &[&Registry]) -> Vec<Sample> {
        ausdb_obs::metrics::collect_merged(&self.registries(extra))
    }

    /// The registries one scrape merges, queue-depth gauges sampled first.
    fn registries<'a>(&'a self, extra: &[&'a Registry]) -> Vec<&'a Registry> {
        lock(&self.core).sample_queue_depth();
        let mut regs =
            vec![&self.telemetry.registry, ausdb_engine::obs::telemetry::global().registry()];
        regs.extend_from_slice(extra);
        regs
    }

    // -- snapshot / restore ------------------------------------------------

    /// Captures a **canonical** snapshot: per-shard learner buffers are
    /// merged back into one learner per stream before encoding, so the
    /// bytes do not depend on the shard count — a snapshot taken at 8
    /// shards restores at 1 (or 2, or 13) exactly. Subscriptions are
    /// connection-scoped and deliberately not persisted.
    pub fn to_snapshot(&self) -> ServerSnapshot {
        self.snapshot_cut(|| 0)
    }

    /// Captures a snapshot plus the WAL watermark as one **consistent
    /// cut**, so the snapshot contains exactly the effects of WAL records
    /// `≤ wal_seq` — replaying strictly-later records on top of it
    /// reproduces the live state bit for bit. The watermark is 0 when no
    /// WAL is attached.
    pub fn snapshot_with_wal_seq(&self) -> ServerSnapshot {
        self.snapshot_cut(|| self.wal.get().map_or(0, |wal| lock(wal).last_seq()))
    }

    /// The one snapshot body. The stream map (which every ingest consults
    /// first) and all coordinator locks are held while `wal_seq` is read
    /// and shard state captured, so no batch is half inside the cut.
    fn snapshot_cut(&self, wal_seq: impl FnOnce() -> u64) -> ServerSnapshot {
        let start = Instant::now();
        let map = lock(&self.streams);
        let metas: Vec<(&String, MutexGuard<'_, StreamMeta>)> =
            map.iter().map(|(name, meta)| (name, lock(meta))).collect();
        let wal_seq = wal_seq();
        let guards: Vec<MutexGuard<'_, KeyBuffers>> = self.shards.iter().map(lock).collect();
        let core = lock(&self.core);
        // A coordinator whose first batch failed its WAL append has no
        // learner on any shard: it snapshots as the empty stream it is.
        let fresh = StreamLearner::new(self.config.learner);
        let streams: Vec<StreamSnapshot> = metas
            .iter()
            .map(|(name, meta)| {
                let parts: Vec<&StreamLearner> =
                    guards.iter().filter_map(|g| g.streams.get(*name)).collect();
                let donor = parts.first().copied().unwrap_or(&fresh);
                let mut buffer: BTreeMap<i64, Vec<(u64, f64)>> = BTreeMap::new();
                for learner in &parts {
                    buffer.extend(learner.buffer().iter().map(|(&k, v)| (k, v.clone())));
                }
                let merged =
                    StreamLearner::from_parts(*donor.config(), donor.schema().clone(), buffer);
                StreamSnapshot {
                    name: (*name).clone(),
                    learner: encode_learner(&merged),
                    window_start: meta.cursor,
                    registered: core
                        .session()
                        .stream(name)
                        .map(|(schema, tuples)| (schema.clone(), tuples.to_vec())),
                }
            })
            .collect();
        let elapsed = start.elapsed();
        self.telemetry.snapshot_encode.observe_duration(elapsed);
        journal::global().record(Level::Info, "snapshot", || {
            format!("encode streams={} took={}us", streams.len(), elapsed.as_micros())
        });
        ServerSnapshot { streams, wal_seq }
    }

    /// Replaces all stream/learner/session state with the snapshot's,
    /// re-partitioning each learner's buffer by key hash, so a snapshot
    /// taken at any shard count restores. Counters and live subscriptions
    /// are untouched.
    pub fn restore(&self, snapshot: ServerSnapshot) -> Result<usize, String> {
        let start = Instant::now();
        // Decode everything first so a corrupt snapshot mutates nothing.
        let mut decoded = Vec::with_capacity(snapshot.streams.len());
        for s in snapshot.streams {
            let learner = decode_learner(&s.learner).map_err(|e| e.to_string())?;
            decoded.push((s.name, learner, s.window_start, s.registered));
        }
        let n = self.shards.len();
        let mut map = lock(&self.streams);
        let mut guards: Vec<MutexGuard<'_, KeyBuffers>> = self.shards.iter().map(lock).collect();
        let mut core = lock(&self.core);
        for g in guards.iter_mut() {
            g.streams.clear();
        }
        map.clear();
        let mut contents = Vec::new();
        for (name, learner, window_start, registered) in decoded {
            let mut parts: Vec<BTreeMap<i64, Vec<(u64, f64)>>> = vec![BTreeMap::new(); n];
            for (&k, v) in learner.buffer() {
                parts[shard_of(k, n)].insert(k, v.clone());
            }
            for (g, part) in guards.iter_mut().zip(parts) {
                let share =
                    StreamLearner::from_parts(*learner.config(), learner.schema().clone(), part);
                g.streams.insert(name.clone(), share);
            }
            if let Some((schema, tuples)) = registered {
                contents.push((name.clone(), schema, tuples));
            }
            let meta = StreamMeta::new(window_start, &self.telemetry, &name);
            map.insert(name, Arc::new(Mutex::new(meta)));
        }
        core.restore_session(contents);
        let restored = map.len();
        let elapsed = start.elapsed();
        self.telemetry.snapshot_decode.observe_duration(elapsed);
        journal::global().record(Level::Info, "snapshot", || {
            format!("decode streams={restored} took={}us", elapsed.as_micros())
        });
        Ok(restored)
    }

    /// Snapshot of the coordinator map: `(name, meta)` pairs in name order.
    fn meta_list(&self) -> Vec<(String, Arc<Mutex<StreamMeta>>)> {
        lock(&self.streams).iter().map(|(n, m)| (n.clone(), Arc::clone(m))).collect()
    }
}

/// Observations `shard` holds for stream `name`.
fn buffered_len(shard: &KeyBuffers, name: &str) -> usize {
    shard.streams.get(name).map_or(0, StreamLearner::buffered_len)
}

/// The grouping key a learner emitted a tuple for (field 0 is always the
/// key column).
fn tuple_key(t: &Tuple) -> i64 {
    match t.fields[0].value {
        Value::Int(k) => k,
        _ => i64::MAX,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ausdb_learn::accuracy::DistKind;
    use ausdb_learn::learner::LearnerConfig;
    use ausdb_model::codec::{Codec, Writer};

    fn config(shards: usize) -> EngineConfig {
        EngineConfig {
            learner: LearnerConfig {
                kind: DistKind::Empirical,
                level: 0.9,
                window_width: 10,
                min_observations: 2,
            },
            max_subscribers: 4,
            queue_cap: 64,
            shards,
        }
    }

    fn snapshot_bytes(snap: &ServerSnapshot) -> Vec<u8> {
        let mut w = Writer::new();
        snap.encode(&mut w);
        w.into_bytes()
    }

    /// A row mix that exercises multiple keys, a late row, and a time jump.
    fn rows() -> Vec<String> {
        let mut rows = Vec::new();
        for i in 0..40u64 {
            let key = (i % 7) as i64;
            let ts = 100 + i;
            rows.push(format!("{key},{ts},{}", 40.0 + (i % 11) as f64 * 0.5));
        }
        rows.push("3,95,1.5".to_string()); // late: before the open window
        rows.push("5,500,9.0".to_string()); // jump: closes + skips empties
        for i in 0..10u64 {
            rows.push(format!("{},{},{}", (i % 3) as i64, 500 + i, 60.0 + i as f64));
        }
        rows
    }

    #[test]
    fn shard_routing_is_stable_and_in_range() {
        for n in [1usize, 2, 8, 13] {
            for key in [-5i64, 0, 1, 19, i64::MIN, i64::MAX] {
                let s = shard_of(key, n);
                assert!(s < n);
                assert_eq!(s, shard_of(key, n), "stable");
            }
        }
        // Keys actually spread across shards (not all on one).
        let hits: std::collections::BTreeSet<usize> = (0..100i64).map(|k| shard_of(k, 8)).collect();
        assert!(hits.len() > 4, "100 keys land on >4 of 8 shards: {hits:?}");
    }

    #[test]
    fn batch_matches_line_ingest_across_shards() {
        let parsed: Vec<RawObservation> =
            rows().iter().map(|r| parse_observation(r).unwrap()).collect();
        for n in [1usize, 4] {
            let line = ShardSet::new(config(n));
            for row in rows() {
                line.ingest("traffic", &row).unwrap();
            }
            let batch = ShardSet::new(config(n));
            let out = batch.ingest_batch("traffic", &parsed).unwrap();
            assert_eq!(out.accepted, parsed.len() as u64);
            let c = line.counters();
            assert_eq!((out.late, out.windows_emitted), (c.late_rows, c.windows_emitted));
            assert_eq!(
                snapshot_bytes(&batch.to_snapshot()),
                snapshot_bytes(&line.to_snapshot()),
                "bit-identical state"
            );
            assert_eq!(batch.stats_lines(), line.stats_lines());
            // A non-finite value anywhere rejects the whole frame.
            let state = ShardSet::new(config(n));
            let bad = [RawObservation::new(1, 0, 1.0), RawObservation::new(1, 1, f64::NAN)];
            assert!(state.ingest_batch("traffic", &bad).is_err());
            assert_eq!(state.counters().rows_ingested, 0, "nothing applied");
        }
    }

    #[test]
    fn restore_across_shard_counts_is_exact() {
        let eight = ShardSet::new(config(8));
        for row in rows() {
            eight.ingest("traffic", &row).unwrap();
        }
        let snap = eight.to_snapshot();
        let bytes = snapshot_bytes(&snap);
        for n in [1usize, 2, 5] {
            let other = ShardSet::new(config(n));
            other.restore(snap.clone()).unwrap();
            assert_eq!(snapshot_bytes(&other.to_snapshot()), bytes, "restore at shards={n}");
            // Subsequent ingest diverges nowhere: feed one more closing row.
            other.ingest("traffic", "1,9999,5.0").unwrap();
            eight_like(&other);
        }
        fn eight_like(set: &ShardSet) {
            // The merged query view stays well-formed after restore+ingest.
            let QueryReply::Rows(_, tuples) = set.query("SELECT * FROM traffic").unwrap() else {
                panic!("SELECT returns rows");
            };
            assert!(!tuples.is_empty());
        }
    }

    #[test]
    fn slo_and_health_are_shard_count_invariant() {
        let mut queues = Vec::new();
        let sets: Vec<ShardSet> = [1usize, 4]
            .into_iter()
            .map(|n| {
                let set = ShardSet::new(config(n));
                let (id, _, queue) = set.subscribe("SELECT * FROM traffic").unwrap();
                set.set_slo(id, 1e-9).unwrap();
                assert!(set.set_slo(id + 1, 0.5).is_err(), "unknown id rejected sharded too");
                for row in rows() {
                    set.ingest("traffic", &row).unwrap();
                }
                queues.push(queue);
                set
            })
            .collect();
        // The watchdog fires identically at any shard count: same
        // subscriber byte stream (EVENT blocks + ACCURACY notices), same
        // SLO LIST lines, same snapshot bytes.
        let drained: Vec<Vec<String>> = queues.iter().map(|q| q.drain()).collect();
        assert_eq!(drained[0], drained[1], "subscriber streams diverge across shard counts");
        assert!(drained[0].iter().any(|l| l.starts_with("ACCURACY ")), "{:?}", drained[0]);
        assert_eq!(sets[0].slo_lines(), sets[1].slo_lines());
        assert!(sets[0].slo_lines()[0].contains("violations="), "{:?}", sets[0].slo_lines());
        assert_eq!(snapshot_bytes(&sets[0].to_snapshot()), snapshot_bytes(&sets[1].to_snapshot()));
        // Health: watermark and buffered counts agree (ages are wall
        // clocks, so only their presence is comparable).
        let healths: Vec<Vec<StreamHealth>> = sets.iter().map(|s| s.stream_health()).collect();
        for h in &healths {
            assert_eq!(h.len(), 1);
            assert_eq!(h[0].name, "traffic");
            assert!(h[0].age_us.is_some());
        }
        assert_eq!(healths[0][0].watermark, healths[1][0].watermark);
        assert_eq!(healths[0][0].buffered, healths[1][0].buffered);
        // The violation counter renders per query id in both layouts.
        for set in &sets {
            let text = set.metrics_text();
            assert!(text.contains("ausdb_accuracy_slo_violations_total{query=\"1\"}"), "{text}");
            assert!(
                text.contains("ausdb_event_time_lag_seconds_count{stream=\"traffic\"}"),
                "{text}"
            );
        }
    }

    /// Close and snapshot telemetry is recorded by the one path, once per
    /// event: every close (empty ones too) and every snapshot encode and
    /// decode count the same at any shard count.
    #[test]
    fn close_and_snapshot_series_count_the_same_at_any_shard_count() {
        let counts: Vec<Vec<u64>> = [1usize, 4]
            .into_iter()
            .map(|n| {
                let set = ShardSet::new(config(n));
                for row in rows() {
                    set.ingest("traffic", &row).unwrap();
                }
                // One observation per key: the close learns nothing, and counts.
                set.ingest_batch("sparse", &[RawObservation::new(1, 5, 1.0)]).unwrap();
                set.ingest_batch("sparse", &[RawObservation::new(2, 25, 1.0)]).unwrap();
                let snap = set.to_snapshot();
                set.restore(snap).unwrap();
                set.to_snapshot();
                let text = set.metrics_text();
                ["window_close", "snapshot_encode", "snapshot_decode"]
                    .iter()
                    .map(|series| {
                        let prefix = format!("ausdb_{series}_seconds_count ");
                        let line = text.lines().find_map(|l| l.strip_prefix(prefix.as_str()));
                        line.unwrap_or_else(|| panic!("no {prefix}in {text}")).parse().unwrap()
                    })
                    .collect()
            })
            .collect();
        assert_eq!(counts[0], counts[1], "[close, encode, decode] counts at shards 1 vs 4");
        let windows = ShardSet::new(config(1));
        for row in rows() {
            windows.ingest("traffic", &row).unwrap();
        }
        let non_empty = windows.counters().windows_emitted;
        assert_eq!(counts[0], [non_empty + 1, 2, 1], "the empty close on `sparse` counts too");
    }

    /// A coordinator can exist with no learner behind it (its first batch
    /// failed the WAL append). Snapshots and `STATS` must describe it as
    /// the empty stream it is — not panic holding every lock.
    #[test]
    fn a_stream_with_no_learner_snapshots_as_empty() {
        for n in [1usize, 3] {
            let set = ShardSet::new(config(n));
            set.stream_meta("ghost");
            let snap = set.to_snapshot();
            assert_eq!(snap.streams.len(), 1);
            assert_eq!((snap.streams[0].window_start, &snap.streams[0].registered), (None, &None));
            assert!(set.stats_lines()[1].starts_with("stream ghost buffered=0 window_start=- "));
            let revived = ShardSet::new(config(n));
            assert_eq!(revived.restore(snap.clone()).unwrap(), 1);
            assert_eq!(snapshot_bytes(&revived.to_snapshot()), snapshot_bytes(&snap));
        }
    }

    #[test]
    fn query_and_subscribe_work_sharded() {
        let set = ShardSet::new(config(4));
        let (id, stream, queue) = set.subscribe("SELECT * FROM traffic").unwrap();
        assert_eq!(stream, "traffic");
        for row in rows() {
            set.ingest("traffic", &row).unwrap();
        }
        assert!(!queue.drain().is_empty(), "subscriber saw window closes");
        assert!(set.unsubscribe(id));
        let QueryReply::Rows(schema, tuples) = set.query("SELECT * FROM traffic").unwrap() else {
            panic!("SELECT returns rows");
        };
        assert_eq!(schema.columns().len(), 2);
        assert!(!tuples.is_empty());
        let text = set.metrics_text();
        assert!(text.contains("ausdb_rows_ingested_total{stream=\"traffic\"}"), "{text}");
        assert!(text.contains("ausdb_queries_total 1"), "{text}");
    }
}
