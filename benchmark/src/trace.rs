//! The traced run: the per-layer budget.
//!
//! The child server is never traced. Instead the first ~2 million rows of
//! the workload's input are replayed **in this process** through a
//! *decomposed pipeline*: the same public functions the server calls, in
//! the same order (`parse_request` → `decode_ingest_frame` → `Wal::append_iter`
//! → `StreamLearner::observe` → `emit_window` → `Session::register` → per
//! subscription `parse` → `plan` → `Session::run_with_config` →
//! `render_rows` → `SubscriberQueue::push_all` → `drain_into`), each call
//! wrapped in a harness-side span. Spans live in memory and are written to
//! `benchmark/out/trace.json` when the run ends.
//!
//! Three checks keep the decomposition honest: its subscriber transcript
//! must equal the one a real [`ShardSet`] produces; the sum of its parts is
//! compared with the whole `ShardSet::ingest_batch` time on the same rows
//! (`budget.closure_ratio`); and the same pipeline run with spans off gives
//! the tracing overhead (`trace.overhead_pct`).

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use ausdb_engine::query::{QueryConfig, Session};
use ausdb_learn::learner::{RawObservation, StreamLearner};
use ausdb_model::codec::{
    crc32, decode_ingest_frame, decode_snapshot, encode_ingest_frame, encode_snapshot, FrameRow,
};
use ausdb_model::tuple::Tuple;
use ausdb_serve::{parse_request, render_rows, Request, ServerSnapshot, SubscriberQueue};
use ausdb_stats::rng::seeded;
use ausdb_wal::{Wal, WalOptions};

use crate::child::out_dir;
use crate::input::{query_set, Input, KeyMix, QUERY_NAMES, STANDING, STREAM, WINDOW};
use crate::load::{fnv1a, Reader, FNV_SEED};
use crate::oracle::{engine_config, replay};
use crate::run::{Invalid, RunOutcome, Workload};

/// How often the query pass runs each of the six queries.
const QUERY_PASS_REPEATS: usize = 10;

/// One timed call into a layer.
struct Span {
    layer: &'static str,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    /// Index of the span that caused this one.
    parent: Option<usize>,
    /// Frame the work belongs to; spans of one frame share it.
    frame: u64,
    /// Time spent in child spans.
    children_ns: u64,
}

/// In-memory span recorder. With `enabled == false` every call is a no-op,
/// which is what the overhead measurement compares against.
struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    frame: u64,
}

impl Tracer {
    fn new(enabled: bool) -> Self {
        Self { enabled, origin: Instant::now(), spans: Vec::new(), open: Vec::new(), frame: 0 }
    }

    fn begin(&mut self, layer: &'static str, name: &'static str) {
        if !self.enabled {
            return;
        }
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        self.open.push(self.spans.len());
        self.spans.push(Span {
            layer,
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.iter().rev().nth(1).copied(),
            frame: self.frame,
            children_ns: 0,
        });
    }

    fn end(&mut self) {
        if !self.enabled {
            return;
        }
        let index = self.open.pop().expect("end without begin");
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans[index].end_ns = end_ns;
        if let Some(parent) = self.spans[index].parent {
            self.spans[parent].children_ns += end_ns - self.spans[index].start_ns;
        }
    }

    /// Runs `f` inside a span.
    fn span<T>(&mut self, layer: &'static str, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.begin(layer, name);
        let out = f();
        self.end();
        out
    }

    /// `(calls, total ns, self ns)` over spans with this layer and name.
    fn total(&self, layer: &str, name: &str) -> (u64, f64, f64) {
        self.spans.iter().filter(|s| s.layer == layer && s.name == name).fold(
            (0, 0.0, 0.0),
            |(n, total, own), s| {
                let d = (s.end_ns - s.start_ns) as f64;
                (n + 1, total + d, own + d - s.children_ns as f64)
            },
        )
    }
}

/// The server's ingest path, taken apart into its layers' public calls.
struct Pipeline {
    learner: StreamLearner,
    cursor: Option<u64>,
    session: Session,
    /// `(subscription id, sql, query name, queue)`.
    subscriptions: Vec<(u64, String, &'static str, SubscriberQueue)>,
    wal: Option<Wal>,
    fanout: String,
    windows: u64,
    rendered_rows: u64,
    lines: u64,
    hashes: Vec<u64>,
}

impl Pipeline {
    fn new(sqls: &[String], wal_dir: Option<&Path>) -> Result<Self, String> {
        let config = engine_config();
        let wal = match wal_dir {
            Some(dir) => {
                let _ = std::fs::remove_dir_all(dir);
                std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
                Some(Wal::open(dir, WalOptions::new()).map_err(|e| e.to_string())?)
            }
            None => None,
        };
        Ok(Self {
            learner: StreamLearner::new(config.learner),
            cursor: None,
            session: Session::new(),
            subscriptions: sqls
                .iter()
                .zip(QUERY_NAMES)
                .enumerate()
                .map(|(i, (sql, name))| {
                    (i as u64 + 1, sql.clone(), name, SubscriberQueue::new(config.queue_cap))
                })
                .collect(),
            wal,
            fanout: String::new(),
            windows: 0,
            rendered_rows: 0,
            lines: 0,
            hashes: vec![FNV_SEED; sqls.len()],
        })
    }

    /// One statement the way `run_sql` runs it, a span per step. Returns the
    /// result tuples.
    fn run_statement(
        &self,
        t: &mut Tracer,
        sql: &str,
        exec_name: &'static str,
    ) -> Result<Vec<Tuple>, String> {
        let stmt = t.span("sql", "parse", || ausdb_sql::parse(sql)).map_err(|e| e.to_string())?;
        let planned = t.span("sql", "plan", || {
            let schema = self.session.schema_of(&stmt.from).map_err(|e| e.to_string())?.clone();
            ausdb_sql::planner::plan(&stmt, Some(&schema)).map_err(|e| e.to_string())
        })?;
        let config = match planned.accuracy {
            Some(accuracy) => QueryConfig { accuracy, ..self.session.config },
            None => self.session.config,
        };
        t.span("engine", exec_name, || {
            self.session.run_with_config(&planned.from, &planned.query, config)
        })
        .map(|(_, tuples)| tuples)
        .map_err(|e| e.to_string())
    }

    /// Closes every window `through_ts` has moved past: the body of
    /// `EngineState::close_windows_through` plus `fire_events`.
    fn close_through(&mut self, t: &mut Tracer, through_ts: u64) -> Result<(), String> {
        loop {
            let ws = self.cursor.expect("cursor set on first row");
            if through_ts < ws + WINDOW {
                return Ok(());
            }
            let tuples = t
                .span("learn", "emit_window", || self.learner.emit_window(ws))
                .map_err(|e| e.to_string())?;
            t.begin("server.shard", "advance_cursor");
            let next = ws + WINDOW;
            self.cursor = Some(match self.learner.min_buffered_ts() {
                Some(min_ts) if min_ts >= next => min_ts - min_ts % WINDOW,
                _ => next,
            });
            t.end();
            if tuples.is_empty() {
                continue;
            }
            self.windows += 1;
            let schema = self.learner.schema().clone();
            t.span("engine", "register", || self.session.register(STREAM, schema, tuples));
            for i in 0..self.subscriptions.len() {
                let (id, sql, name, _) = &self.subscriptions[i];
                let (id, name) = (*id, *name);
                let tuples = self.run_statement(t, sql, name)?;
                let rows = t.span("server.render", "render_rows", || render_rows(&tuples));
                self.rendered_rows += rows.len() as u64;
                let header = format!("EVENT {id} WINDOW {ws} ROWS {}", rows.len());
                let queue = &self.subscriptions[i].3;
                t.span("server.subscriber", "push_all", || {
                    queue.push_all(std::iter::once(header).chain(rows))
                });
            }
        }
    }

    /// One `INGESTB` exchange: the announcement line and the frame bytes in,
    /// the subscriber lines out.
    fn ingest(&mut self, t: &mut Tracer, line: &str, frame: &[u8]) -> Result<(), String> {
        t.frame += 1;
        t.begin("harness", "frame");
        let request = t.span("server.protocol", "parse_request", || parse_request(line))?;
        if !matches!(request, Request::IngestBatch { nbytes, .. } if nbytes == frame.len()) {
            return Err(format!("announcement does not match the frame: {line}"));
        }
        let decoded = t
            .span("model.codec", "decode_ingest_frame", || decode_ingest_frame(frame))
            .map_err(|e| e.to_string())?;
        let rows: Vec<RawObservation> = t.span("server.conn", "rows_from_frame", || {
            decoded
                .into_iter()
                .map(|(key, ts, value)| RawObservation::new(key, ts, value))
                .collect()
        });
        // From here to the end of the row loop is what `ShardSet::ingest_batch`
        // covers in the server; `budget.closure_ratio` compares the two.
        t.begin("server.shard", "ingest_batch");
        if let Some(wal) = &mut self.wal {
            t.span("wal", "append_iter", || {
                wal.append_iter(STREAM, rows.iter().map(|r| (r.key, r.ts, r.value)))
            })
            .map_err(|e| e.to_string())?;
        }
        let mut i = 0;
        while i < rows.len() {
            // The longest run of rows that cannot close the open window.
            t.begin("learn", "observe");
            let mut closing = None;
            while i < rows.len() {
                let obs = rows[i];
                self.learner.observe(obs);
                i += 1;
                let ws = *self.cursor.get_or_insert(obs.ts - obs.ts % WINDOW);
                if obs.ts >= ws + WINDOW {
                    closing = Some(obs.ts);
                    break;
                }
            }
            t.end();
            if let Some(through_ts) = closing {
                self.close_through(t, through_ts)?;
            }
        }
        t.end();
        // The subscriber's connection drains its queues once per tick.
        t.begin("server.subscriber", "drain_into");
        self.fanout.clear();
        for (_, _, _, queue) in &self.subscriptions {
            queue.drain_into(&mut self.fanout);
        }
        t.end();
        // Queues are drained in subscription order after every frame, so each
        // queue's lines are contiguous here: `EVENT <id> …` then its rows.
        let mut sub = 0;
        for text in self.fanout.lines() {
            if let Some(rest) = text.strip_prefix("EVENT ") {
                let id: u64 = rest.split(' ').next().and_then(|s| s.parse().ok()).unwrap_or(0);
                sub = self.subscriptions.iter().position(|s| s.0 == id).unwrap_or(0);
            }
            self.hashes[sub] = fnv1a(self.hashes[sub], text.as_bytes());
            self.lines += 1;
        }
        t.end();
        Ok(())
    }
}

/// The announcement line and frame bytes of every frame of the prefix,
/// built the way `BatchClient::ingest_batch` builds them.
fn build_wire(
    t: &mut Tracer,
    input: &Input,
    mix: KeyMix,
    frame_rows: usize,
    rows: u64,
) -> Vec<(String, Vec<u8>)> {
    let mut wire = Vec::new();
    let mut obs = Vec::with_capacity(frame_rows);
    let mut pos = 0u64;
    while pos < rows {
        let n = frame_rows.min((rows - pos) as usize);
        t.frame += 1;
        t.begin("client", "build_frame");
        input.fill(mix, pos, n, &mut obs);
        let tuples: Vec<FrameRow> = obs.iter().map(|r| (r.key, r.ts, r.value)).collect();
        let frame = t.span("model.codec", "encode_ingest_frame", || encode_ingest_frame(&tuples));
        let line = format!("INGESTB {STREAM} {}", frame.len());
        t.end();
        wire.push((line, frame));
        pos += n as u64;
    }
    wire
}

/// Runs the whole prefix through a fresh pipeline; returns it and the wall time.
fn run_pipeline(
    t: &mut Tracer,
    wire: &[(String, Vec<u8>)],
    sqls: &[String],
    wal_dir: Option<&Path>,
) -> Result<(Pipeline, f64), String> {
    let mut pipeline = Pipeline::new(sqls, wal_dir)?;
    let start = Instant::now();
    for (line, frame) in wire {
        pipeline.ingest(t, line, frame)?;
    }
    Ok((pipeline, start.elapsed().as_secs_f64()))
}

fn write_trace_json(t: &Tracer, workload: &str, seed: u64, rows: u64) -> std::io::Result<()> {
    use std::fmt::Write as _;
    let mut out = format!(
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"rows\": {rows}, \
         \"unit\": \"ns since the traced run began\",\n\"spans\": [\n"
    );
    for (i, s) in t.spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\": {i}, \"layer\": \"{}\", \"name\": \"{}\", \"start\": {}, \"end\": {}, \
             \"self\": {}, \"parent\": {parent}, \"frame\": {}}}{}",
            s.layer,
            s.name,
            s.start_ns,
            s.end_ns,
            s.end_ns - s.start_ns - s.children_ns,
            s.frame,
            if i + 1 < t.spans.len() { "," } else { "" }
        );
    }
    out.push_str("]}\n");
    std::fs::create_dir_all(out_dir())?;
    std::fs::write(out_dir().join("trace.json"), out)
}

/// The in-process part of `--trace 1`: returns the per-layer metrics that
/// the run against the child server could not measure.
pub fn traced_report(
    workload: &Workload,
    name: &str,
    seed: u64,
    outcome: &RunOutcome,
) -> Result<Vec<(&'static str, f64)>, Invalid> {
    let input = Input::generate(seed);
    let sqls = query_set(input.threshold);
    let rows = outcome.prefix_rows;
    let frame_rows = workload.pace.frame_rows();
    let standing: &[String] = &sqls[..STANDING];
    let subscribed: &[String] = if workload.reader == Reader::Standing { standing } else { &[] };
    let scratch = out_dir().join(format!("trace-wal-{}", std::process::id()));
    let wal_dir = workload.wal.then_some(scratch.as_path());
    let mut layers: Vec<(&'static str, f64)> = Vec::new();
    let mut t = Tracer::new(true);

    // -- whole-engine references: ShardSet::ingest_batch on the same rows -----
    let bare = replay(&input, workload.mix, frame_rows, rows, &[], None).map_err(Invalid)?;
    let with_set =
        replay(&input, workload.mix, frame_rows, rows, standing, None).map_err(Invalid)?;
    let closes = with_set.events[0].max(1) as f64;
    layers.push(("server.shard.ingest_ns_per_row", bare.ingest_secs * 1e9 / rows as f64));
    layers
        .push(("server.shard.close_us", (with_set.ingest_secs - bare.ingest_secs) * 1e6 / closes));
    // The workload's own configuration: its subscriptions, its WAL.
    let logged;
    let own = if workload.wal {
        logged =
            replay(&input, workload.mix, frame_rows, rows, subscribed, wal_dir).map_err(Invalid)?;
        &logged
    } else if subscribed.is_empty() {
        &bare
    } else {
        &with_set
    };
    layers.push((
        "server.conn.tcp_vs_inproc_ratio",
        outcome.ingest_rows_per_s / (rows as f64 / own.ingest_secs),
    ));

    // -- the decomposed pipeline, traced and untraced ------------------------------
    let wire = build_wire(&mut t, &input, workload.mix, frame_rows, rows);
    let (untraced, untraced_secs) =
        run_pipeline(&mut Tracer::new(false), &wire, subscribed, wal_dir).map_err(Invalid)?;
    drop(untraced);
    let (mut pipeline, traced_secs) =
        run_pipeline(&mut t, &wire, subscribed, wal_dir).map_err(Invalid)?;
    if pipeline.hashes != own.hashes {
        return Err(Invalid(
            "the decomposed pipeline's subscriber transcript differs from ShardSet's".into(),
        ));
    }
    println!(
        "  traced replay: {rows} rows, {} windows, {} subscriber lines; transcript equals \
         ShardSet's: ok",
        pipeline.windows, pipeline.lines
    );
    // The parts are the umbrella span's children: its total minus its self time.
    let (_, umbrella_ns, glue_ns) = t.total("server.shard", "ingest_batch");
    let closure = (umbrella_ns - glue_ns) / (own.ingest_secs * 1e9);
    layers.push(("budget.closure_ratio", closure));
    if !(0.75..=1.25).contains(&closure) {
        println!("  warning: budget.closure_ratio {closure:.3} is outside 0.75-1.25");
    }
    layers.push(("trace.overhead_pct", (traced_secs - untraced_secs) / untraced_secs * 100.0));
    if let Some(wal) = &mut pipeline.wal {
        t.frame += 1;
        t.span("wal", "flush", || wal.flush()).map_err(|e| Invalid(e.to_string()))?;
        layers.push(("wal.bytes_per_row", wal.stats().bytes as f64 / rows as f64));
    } else {
        layers.push(("wal.bytes_per_row", 0.0));
    }

    // -- the query pass: all six queries on the last closed window -----------------
    for _ in 0..QUERY_PASS_REPEATS {
        for (sql, name) in sqls.iter().zip(QUERY_NAMES) {
            t.frame += 1;
            t.begin("harness", "query");
            let line = format!("QUERY {sql}");
            t.span("server.protocol", "parse_request", || parse_request(&line)).map_err(Invalid)?;
            let tuples = pipeline.run_statement(&mut t, sql, name).map_err(Invalid)?;
            // `q.mc` rows carry a 1000-point empirical distribution each (18 KB
            // of text); they would swamp the per-row figure of ordinary rows.
            if name == "q.mc" {
                t.span("server.render", "render_rows.emp", || render_rows(&tuples));
            } else {
                pipeline.rendered_rows +=
                    t.span("server.render", "render_rows", || render_rows(&tuples)).len() as u64;
            }
            t.end();
        }
    }

    // -- single-function measurements ------------------------------------------------
    t.frame += 1;
    let block = vec![0xA5u8; 4 << 20];
    t.span("model.codec", "crc32", || black_box(crc32(black_box(&block))));
    let snapshot = own.engine.to_snapshot();
    let bytes = t.span("model.codec", "encode_snapshot", || encode_snapshot(&snapshot));
    t.span("model.codec", "decode_snapshot", || decode_snapshot::<ServerSnapshot>(&bytes))
        .map_err(|e| Invalid(e.to_string()))?;
    layers.push(("model.codec.snapshot_bytes", bytes.len() as f64));
    const CALLS: usize = 100_000;
    t.span("stats", "mean_interval_t", || {
        for i in 0..CALLS {
            black_box(ausdb_stats::ci::mean_interval_t(black_box(50.0 + i as f64), 12.0, 20, 0.9));
        }
    });
    let histogram = ausdb_obs::Histogram::log_linear(-6, 1);
    t.span("obs", "hist_observe", || {
        for i in 0..CALLS {
            histogram.observe(black_box(1e-6 * (1 + i % 1000) as f64));
        }
    });
    t.span("obs", "metrics_text", || black_box(own.engine.metrics_text()));
    // Monte-Carlo and bootstrap kernels on the last closed window, with the
    // expression `q.mc` projects.
    let mc_sql = ausdb_sql::parse(&sqls[5]).map_err(|e| Invalid(e.to_string()))?;
    let (schema, tuples) = pipeline
        .session
        .stream(STREAM)
        .map(|(schema, tuples)| (schema.clone(), tuples.to_vec()))
        .ok_or_else(|| Invalid("no closed window to sample".into()))?;
    let planned =
        ausdb_sql::planner::plan(&mc_sql, Some(&schema)).map_err(|e| Invalid(e.to_string()))?;
    let expr = &planned.query.projections.last().expect("q.mc projects z").expr;
    let draws_per_tuple = pipeline.session.config.mc_iters;
    let mut rng = seeded(seed);
    let mut values = Vec::new();
    t.begin("engine.mc", "monte_carlo_batch");
    for tuple in &tuples {
        values.push(
            ausdb_engine::mc::monte_carlo_batch(expr, tuple, &schema, draws_per_tuple, &mut rng)
                .map_err(|e| Invalid(e.to_string()))?,
        );
    }
    t.end();
    let mut resamples = 0usize;
    t.begin("engine.bootstrap", "bootstrap_accuracy_info");
    for v in &values {
        let n = crate::input::OBS_PER_KEY;
        black_box(
            ausdb_engine::bootstrap::bootstrap_accuracy_info(v, n, 0.9, None)
                .map_err(|e| Invalid(e.to_string()))?,
        );
        resamples += v.len() / n;
    }
    t.end();

    // -- per-layer numbers from the spans ----------------------------------------------
    let rows_f = rows as f64;
    let per = |(_, total, _): (u64, f64, f64), divisor: f64| total / divisor.max(1.0);
    let mean_us = |(n, total, _): (u64, f64, f64)| total / 1e3 / (n.max(1)) as f64;
    let (parse_n, parse_ns, _) = t.total("server.protocol", "parse_request");
    layers.extend([
        ("client.encode_ns_per_row", per(t.total("client", "build_frame"), rows_f)),
        ("server.protocol.parse_request_ns", parse_ns / parse_n.max(1) as f64),
        (
            "model.codec.decode_ns_per_row",
            per(t.total("model.codec", "decode_ingest_frame"), rows_f),
        ),
        (
            "model.codec.encode_ns_per_row",
            per(t.total("model.codec", "encode_ingest_frame"), rows_f),
        ),
        (
            "model.codec.crc32_mb_per_s",
            block.len() as f64 / 1e6 / (t.total("model.codec", "crc32").1 / 1e9),
        ),
        ("model.codec.snapshot_encode_us", mean_us(t.total("model.codec", "encode_snapshot"))),
        ("model.codec.snapshot_decode_us", mean_us(t.total("model.codec", "decode_snapshot"))),
        ("wal.append_ns_per_row", per(t.total("wal", "append_iter"), rows_f)),
        ("wal.flush_ms", t.total("wal", "flush").1 / 1e6),
        ("learn.observe_ns_per_row", per(t.total("learn", "observe"), rows_f)),
        ("learn.emit_window_us", mean_us(t.total("learn", "emit_window"))),
        ("sql.parse_us", mean_us(t.total("sql", "parse"))),
        ("sql.plan_us", mean_us(t.total("sql", "plan"))),
        ("engine.exec_us.star", mean_us(t.total("engine", "q.star"))),
        ("engine.exec_us.prob", mean_us(t.total("engine", "q.prob"))),
        ("engine.exec_us.mtest", mean_us(t.total("engine", "q.mtest"))),
        ("engine.exec_us.linear", mean_us(t.total("engine", "q.linear"))),
        ("engine.exec_us.boot", mean_us(t.total("engine", "q.boot"))),
        ("engine.exec_us.mc", mean_us(t.total("engine", "q.mc"))),
        (
            "engine.mc.draws_per_s",
            (tuples.len() * draws_per_tuple) as f64
                / (t.total("engine.mc", "monte_carlo_batch").1 / 1e9),
        ),
        (
            "engine.bootstrap.resamples_per_s",
            resamples as f64 / (t.total("engine.bootstrap", "bootstrap_accuracy_info").1 / 1e9),
        ),
        ("stats.ci_mean_ns", t.total("stats", "mean_interval_t").1 / CALLS as f64),
        (
            "server.render.ns_per_row",
            per(t.total("server.render", "render_rows"), pipeline.rendered_rows as f64),
        ),
        (
            "server.subscriber.push_drain_ns_per_line",
            if pipeline.lines == 0 {
                0.0
            } else {
                (t.total("server.subscriber", "push_all").1
                    + t.total("server.subscriber", "drain_into").1)
                    / pipeline.lines as f64
            },
        ),
        ("obs.hist_observe_ns", t.total("obs", "hist_observe").1 / CALLS as f64),
        ("obs.metrics_render_us", mean_us(t.total("obs", "metrics_text"))),
        ("trace.spans", t.spans.len() as f64),
    ]);

    // -- the table with self-times, and trace.json ---------------------------------------
    let mut kinds: Vec<(&str, &str)> = t.spans.iter().map(|s| (s.layer, s.name)).collect();
    kinds.sort_unstable();
    kinds.dedup();
    println!(
        "  {:<20} {:<26} {:>8} {:>14} {:>14}",
        "layer", "span", "calls", "total ms", "self ms"
    );
    for (layer, name) in kinds {
        let (n, total, own) = t.total(layer, name);
        println!("  {layer:<20} {name:<26} {n:>8} {:>14.3} {:>14.3}", total / 1e6, own / 1e6);
    }
    write_trace_json(&t, name, seed, rows).map_err(Invalid::from)?;
    println!("  {} spans written to {}", t.spans.len(), out_dir().join("trace.json").display());
    let _ = std::fs::remove_dir_all(&scratch);
    Ok(layers)
}
