//! Loopback integration tests — the PR's three acceptance proofs:
//!
//! 1. **Determinism**: with the same seed, a server-side `QUERY` returns
//!    results bit-identical to the in-process `run_sql` path (proven via
//!    the injective row renderer: equal lines ⇔ equal bits).
//! 2. **Kill-and-restore**: stopping a server writes a snapshot; a new
//!    server on the same path resumes with identical learner state —
//!    including *buffered, not-yet-emitted* observations — so subsequent
//!    windows are bit-identical too.
//! 3. **Backpressure**: a stalled subscriber's queue stays bounded; gaps
//!    are reported as `DROPPED <n>`, memory never grows without limit.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

use ausdb_engine::query::Session;
use ausdb_learn::accuracy::DistKind;
use ausdb_learn::learner::{LearnerConfig, RawObservation};
use ausdb_serve::client::BatchClient;
use ausdb_serve::render::{render_rows, render_schema};
use ausdb_serve::server::{Server, ServerConfig, ServerHandle};
use ausdb_serve::state::EngineConfig;
use ausdb_sql::planner::run_sql;

/// The in-process reference: one learner, one cursor, no `ShardSet`.
#[allow(dead_code)] // this file reads the emitted windows only
#[path = "support/serial_model.rs"]
mod serial_model;

const WINDOW: u64 = 10;

fn engine_config() -> EngineConfig {
    EngineConfig {
        learner: LearnerConfig {
            kind: DistKind::Empirical,
            level: 0.9,
            window_width: WINDOW,
            min_observations: 2,
        },
        max_subscribers: 8,
        queue_cap: 6,
        shards: 1,
    }
}

fn start_server(snapshot: Option<std::path::PathBuf>, tick: Duration) -> ServerHandle {
    start_sharded_server(snapshot, tick, 1)
}

fn start_sharded_server(
    snapshot: Option<std::path::PathBuf>,
    tick: Duration,
    shards: usize,
) -> ServerHandle {
    Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        snapshot_path: snapshot,
        engine: EngineConfig { shards, ..engine_config() },
        tick,
        ..ServerConfig::default()
    })
    .expect("server starts")
}

/// A tiny line-protocol client.
struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(handle: &ServerHandle) -> Self {
        let stream = TcpStream::connect(handle.addr()).expect("connect");
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        let mut client = Self { stream, reader };
        assert_eq!(client.read_line(), "OK ausdb-serve 1 ready");
        client
    }

    /// Writes `line` and its newline in one call, so Nagle's algorithm
    /// never holds the newline back for a delayed ACK.
    fn send(&mut self, line: &str) {
        self.stream.write_all(format!("{line}\n").as_bytes()).unwrap();
    }

    fn read_line(&mut self) -> String {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("read line");
        assert!(n > 0, "server closed the connection unexpectedly");
        line.trim_end_matches(['\n', '\r']).to_string()
    }

    /// Sends one request and reads lines until (and including) the
    /// block terminator (`END ...`) or a single-line `OK`/`ERR` reply.
    fn request(&mut self, line: &str) -> Vec<String> {
        self.send(line);
        let first = self.read_line();
        let mut lines = vec![first.clone()];
        if first.starts_with("OK") || first.starts_with("ERR") || first.starts_with("BYE") {
            return lines;
        }
        while !lines.last().unwrap().starts_with("END") {
            lines.push(self.read_line());
        }
        lines
    }
}

/// Raw observation rows shared by server and in-process paths. Two keys
/// with different sample sizes (the paper's Example 1 shape) across two
/// full windows, plus buffered leftovers in a third, open window.
fn observation_rows() -> Vec<(i64, u64, f64)> {
    let mut rows = Vec::new();
    for w in 0..2u64 {
        let base = 100 + w * WINDOW;
        rows.push((19, base, 56.0 + w as f64));
        rows.push((19, base + 1, 38.5));
        rows.push((19, base + 3, 97.25));
        for i in 0..8u64 {
            rows.push((20, base + (i % WINDOW), 60.0 + (i as f64) * 1.5));
        }
    }
    // Open third window: buffered only, not emitted.
    rows.push((19, 120, 41.0));
    rows.push((20, 121, 62.5));
    rows
}

fn ingest_rows_via(client: &mut Client, rows: &[(i64, u64, f64)]) {
    for (key, ts, value) in rows {
        let reply = client.request(&format!("INGEST traffic {key},{ts},{value}"));
        assert!(reply[0].starts_with("OK INGESTED"), "got {reply:?}");
    }
}

/// The query session a server that ingested `rows` into `traffic` must
/// hold — the stream's last non-empty closed window — computed by the
/// serial model instead of the engine.
fn session_after(rows: &[(i64, u64, f64)]) -> Session {
    let mut model = serial_model::SerialModel::new(engine_config().learner);
    for &(key, ts, value) in rows {
        model.ingest(RawObservation::new(key, ts, value));
    }
    let mut session = Session::new();
    if let Some((_, tuples)) = model.emitted.pop() {
        session.register("traffic", model.learner.schema().clone(), tuples);
    }
    session
}

/// Renders the in-process `run_sql` result exactly as the server would.
fn expected_reply(session: &Session, sql: &str) -> Vec<String> {
    let (schema, tuples) = run_sql(session, sql).expect("in-process query");
    let mut lines = vec![render_schema(&schema)];
    lines.extend(render_rows(&tuples));
    lines.push(format!("END {}", tuples.len()));
    lines
}

#[test]
fn server_query_bit_identical_to_run_sql() {
    let handle = start_server(None, Duration::from_millis(25));
    let mut client = Client::connect(&handle);
    let rows = observation_rows();
    ingest_rows_via(&mut client, &rows);

    let state = session_after(&rows);

    // Same default seed (QueryConfig::default) on both sides; BOOTSTRAP
    // exercises the seeded Monte-Carlo path, so bit-identity is a real
    // determinism statement, not just formatting luck.
    for sql in [
        "SELECT * FROM traffic",
        "SELECT key, value FROM traffic WHERE value > 50 PROB 0.5",
        "SELECT * FROM traffic WITH ACCURACY BOOTSTRAP LEVEL 0.9 SAMPLES 200",
    ] {
        let got = client.request(&format!("QUERY {sql}"));
        let want = expected_reply(&state, sql);
        assert_eq!(got, want, "server vs in-process mismatch for {sql}");
    }
    handle.stop();
}

#[test]
fn kill_and_restore_resumes_identical_state() {
    let dir = std::env::temp_dir().join(format!("ausdb_loopback_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let snap = dir.join("state.snap");
    let rows = observation_rows();
    let sql = "SELECT * FROM traffic";

    // Phase A: ingest everything (third window still open), then SHUTDOWN
    // — which must write the final snapshot and join all threads.
    let before;
    {
        let handle = start_server(Some(snap.clone()), Duration::from_millis(25));
        let mut client = Client::connect(&handle);
        ingest_rows_via(&mut client, &rows);
        before = client.request(&format!("QUERY {sql}"));
        let reply = client.request("SHUTDOWN");
        assert_eq!(reply[0], "OK shutting down");
        handle.join(); // SHUTDOWN came from the client; join must return
    }
    assert!(snap.exists(), "shutdown wrote the final snapshot");

    // Phase B: a fresh server on the same snapshot resumes identically.
    let handle = start_server(Some(snap.clone()), Duration::from_millis(25));
    assert_eq!(handle.restored_streams(), 1);
    let mut client = Client::connect(&handle);
    assert_eq!(
        client.request(&format!("QUERY {sql}")),
        before,
        "registered window content restored bit-identically"
    );

    // The *buffered* observations were restored too: closing the third
    // window must match an in-process state that saw all rows in one life.
    let closing = [(19i64, 131u64, 44.0f64), (20, 132, 63.0)];
    ingest_rows_via(&mut client, &closing);
    let state = session_after(&[&rows[..], &closing[..]].concat());
    assert_eq!(
        client.request(&format!("QUERY {sql}")),
        expected_reply(&state, sql),
        "post-restore window close is bit-identical to an uninterrupted run"
    );
    handle.stop();
    std::fs::remove_dir_all(&dir).ok();
}

/// Closes windows on `traffic` — one key, so every event is `EVENT` + one
/// `ROW` — until the writer thread of the stalled subscriber 1 is stuck in
/// `write`: the socket buffers are full, the cap-6 queue behind them is
/// full, and three batches in a row were dropped line for line (a drain in
/// between would have reset the pending count). `observer` reads `STATS`.
/// Returns the event lines generated in total.
fn close_windows_until_the_writer_blocks(handle: &ServerHandle, observer: &mut Client) -> u64 {
    const BATCH: u64 = 1_000;
    let cap = engine_config().queue_cap as u64;
    let mut producer = BatchClient::connect(&handle.addr().to_string()).expect("connect");
    let mut generated = 0u64;
    let (mut dropped_before, mut stuck_batches) = (0u64, 0);
    for batch in 0..1_000u64 {
        let rows: Vec<RawObservation> = (batch * BATCH..(batch + 1) * BATCH)
            .flat_map(|w| {
                let base = 100 + w * WINDOW;
                [RawObservation::new(19, base, 50.0), RawObservation::new(19, base + 1, 60.0)]
            })
            .collect();
        let batch_lines = 2 * producer.ingest_batch("traffic", &rows).unwrap().windows_emitted;
        generated += batch_lines;
        let stats = observer.request("STATS");
        let line = stats.iter().find(|l| l.starts_with("subscriber 1 ")).expect("subscriber line");
        let field = |name: &str| -> u64 {
            let value = line.split_whitespace().find_map(|kv| kv.strip_prefix(name));
            value.unwrap_or_else(|| panic!("no {name} in {line}")).parse().unwrap()
        };
        let (queued, dropped) = (field("queued="), field("dropped_pending="));
        assert!(queued <= cap, "queue holds {queued} lines over a cap of {cap}");
        let stuck = queued == cap && dropped_before > 0 && dropped == dropped_before + batch_lines;
        stuck_batches = if stuck { stuck_batches + 1 } else { 0 };
        if stuck_batches == 3 {
            return generated;
        }
        dropped_before = dropped;
    }
    panic!("the subscriber's socket took {generated} event lines without blocking the writer");
}

#[test]
fn stalled_subscriber_bounds_memory_with_drop_notices() {
    let handle = start_server(None, Duration::from_millis(25));
    let mut subscriber = Client::connect(&handle);
    let reply = subscriber.request("SUBSCRIBE SELECT * FROM traffic");
    assert!(reply[0].starts_with("OK SUBSCRIBED 1"), "got {reply:?}");

    // The subscriber stops reading. Its writer thread delivers until the
    // socket buffers are full and then blocks; from there on the queue is
    // the only place left, and it holds 6 lines.
    let mut observer = Client::connect(&handle);
    let generated = close_windows_until_the_writer_blocks(&handle, &mut observer);

    // The request thread stays responsive: the PING waits for the write
    // lock, not for a tick, and is answered once the peer reads again. The
    // gap notice and the queue's last lines may land on either side of it.
    subscriber.send("PING");
    let (mut delivered, mut dropped, mut since_notice) = (0u64, 0u64, 0usize);
    let mut pong = false;
    while !(pong && delivered + dropped == generated) {
        let line = subscriber.read_line();
        if let Some(n) = line.strip_prefix("DROPPED ") {
            let n: u64 = n.parse().unwrap();
            assert!(n > 0);
            dropped += n;
            since_notice = 0;
        } else if line.starts_with("EVENT") || line.starts_with("ROW") {
            delivered += 1;
            since_notice += 1;
        } else if line == "OK PONG" {
            pong = true;
        } else {
            panic!("unexpected line: {line}");
        }
        assert!(delivered + dropped <= generated, "more lines accounted for than generated");
    }
    assert!(dropped > 0, "queue overflow must surface as DROPPED <n>");
    assert!(
        since_notice <= engine_config().queue_cap,
        "{since_notice} lines followed the last gap notice for a cap of {}",
        engine_config().queue_cap
    );
    handle.stop();
}

#[test]
fn write_timeout_on_a_stalled_subscriber_ends_the_connection() {
    let handle = start_server(None, Duration::from_millis(25));
    let mut subscriber = Client::connect(&handle);
    let reply = subscriber.request("SUBSCRIBE SELECT * FROM traffic");
    assert!(reply[0].starts_with("OK SUBSCRIBED 1"), "got {reply:?}");
    let mut observer = Client::connect(&handle);
    close_windows_until_the_writer_blocks(&handle, &mut observer);

    // The peer never reads again: the blocked write gives up at the 5 s
    // write deadline (in total, however the kernel splits the send), the
    // writer thread shuts the socket down, the request thread sees the end
    // of the stream and releases the subscription.
    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    loop {
        let health = observer.request("HEALTH");
        if health[0].contains(" subscribers=0 ") {
            break;
        }
        assert!(health[0].contains(" subscribers=1 "), "got {}", health[0]);
        assert!(std::time::Instant::now() < deadline, "subscription never released");
        std::thread::sleep(Duration::from_millis(100));
    }
    handle.stop();
}

/// With delivery driven by the push, not by the connection's read
/// timeout, a 2 s tick must not show up in the notice latency.
#[test]
fn event_arrives_without_waiting_for_a_tick() {
    let handle = start_server(None, Duration::from_secs(2));
    let mut subscriber = Client::connect(&handle);
    let reply = subscriber.request("SUBSCRIBE SELECT * FROM traffic");
    assert!(reply[0].starts_with("OK SUBSCRIBED 1"), "got {reply:?}");
    let mut producer = Client::connect(&handle);
    ingest_rows_via(&mut producer, &[(19, 100, 50.0), (19, 101, 60.0)]);
    let ack = producer.request("INGEST traffic 19,110,55");
    assert_eq!(ack[0], "OK INGESTED traffic windows_emitted=1");
    let acked = std::time::Instant::now();
    assert_eq!(subscriber.read_line(), "EVENT 1 WINDOW 100 ROWS 1");
    let waited = acked.elapsed();
    assert!(waited < Duration::from_millis(250), "EVENT came {waited:?} after the ack");
    handle.stop();
}

/// The two threads of a subscribing connection against a concurrent
/// ingest flood on another connection: every ordering the protocol
/// promises must survive on the wire.
#[test]
fn fan_out_keeps_protocol_order_under_a_concurrent_flood() {
    const KEYS: i64 = 16;
    let handle = Server::start(ServerConfig {
        engine: EngineConfig { queue_cap: 1 << 20, ..engine_config() },
        ..ServerConfig::default()
    })
    .expect("server starts");
    let stop = std::sync::atomic::AtomicBool::new(false);
    let start = std::sync::Barrier::new(2);
    let mut subscriber = Client::connect(&handle);
    let mut transcript: Vec<String> = Vec::new();

    let windows_sent = std::thread::scope(|scope| {
        let flood = scope.spawn(|| {
            let mut producer = BatchClient::connect(&handle.addr().to_string()).expect("connect");
            start.wait();
            let mut w = 0u64;
            while !stop.load(std::sync::atomic::Ordering::SeqCst) {
                // Four windows per frame: closes pile up behind one write.
                let rows: Vec<RawObservation> = (w..w + 4)
                    .flat_map(|w| (0..KEYS).map(move |key| (w, key)))
                    .flat_map(|(w, key)| {
                        let base = 100 + w * WINDOW;
                        let v = 40.0 + key as f64;
                        [RawObservation::new(key, base, v), RawObservation::new(key, base + 1, v)]
                    })
                    .collect();
                producer.ingest_batch("traffic", &rows).unwrap();
                w += 4;
            }
            w
        });

        // Reads until `done` says so, keeping every line.
        let mut read_until = |subscriber: &mut Client, done: &dyn Fn(&[String]) -> bool| {
            while !done(&transcript) {
                transcript.push(subscriber.read_line());
            }
        };
        let events_of = |lines: &[String], id: u64| {
            lines.iter().filter(|l| l.starts_with(&format!("EVENT {id} "))).count()
        };
        start.wait();
        let four = "SUBSCRIBE SELECT * FROM traffic\n".repeat(4);
        subscriber.stream.write_all(four.as_bytes()).unwrap();
        read_until(&mut subscriber, &|lines| events_of(lines, 2) >= 20);
        subscriber.send("UNSUBSCRIBE 2");
        read_until(&mut subscriber, &|lines| {
            let acked = lines.iter().position(|l| l == "OK UNSUBSCRIBED 2");
            acked.is_some_and(|at| events_of(&lines[at..], 1) >= 20)
        });
        stop.store(true, std::sync::atomic::Ordering::SeqCst);
        flood.join().expect("flood thread")
    });
    // Straight into shutdown: whatever the writer thread has not sent yet
    // must still come before BYE.
    handle.shutdown();
    loop {
        let mut line = String::new();
        if subscriber.reader.read_line(&mut line).expect("read line") == 0 {
            break;
        }
        transcript.push(line.trim_end().to_string());
    }
    handle.join();

    assert_eq!(transcript.last().map(String::as_str), Some("BYE server shutting down"));
    let last_closed = 100 + (windows_sent - 2) * WINDOW;
    let mut live: std::collections::BTreeMap<u64, Option<u64>> = Default::default();
    let mut lines = transcript[..transcript.len() - 1].iter();
    while let Some(line) = lines.next() {
        let words: Vec<&str> = line.split_whitespace().collect();
        match words[..] {
            ["OK", "SUBSCRIBED", id, "traffic"] => {
                live.insert(id.parse().unwrap(), None);
            }
            ["OK", "UNSUBSCRIBED", id] => {
                live.remove(&id.parse().unwrap()).expect("was subscribed");
            }
            ["EVENT", id, "WINDOW", window, "ROWS", rows] => {
                let window: u64 = window.parse().unwrap();
                let last = live
                    .get_mut(&id.parse().unwrap())
                    .unwrap_or_else(|| panic!("{line} outside SUBSCRIBED..UNSUBSCRIBED of its id"));
                assert!(last.is_none_or(|w| w + WINDOW == window), "gap before {line}");
                *last = Some(window);
                assert_eq!(rows.parse(), Ok(KEYS));
                for _ in 0..KEYS {
                    let row = lines.next().expect("block cut short by BYE");
                    assert!(row.starts_with("ROW "), "block cut in two after {line}: {row}");
                }
            }
            _ => panic!("unexpected line: {line}"),
        }
    }
    assert_eq!(live.keys().collect::<Vec<_>>(), [&1, &3, &4]);
    for (id, last) in live {
        assert_eq!(last, Some(last_closed), "subscription {id} lost its last blocks to BYE");
    }
}

#[test]
fn graceful_shutdown_notifies_connected_clients() {
    let handle = start_server(None, Duration::from_millis(25));
    let mut client = Client::connect(&handle);
    assert_eq!(client.request("PING")[0], "OK PONG");
    handle.shutdown();
    // The connection loop notices the flag within a tick and says BYE.
    let line = client.read_line();
    assert_eq!(line, "BYE server shutting down");
    handle.join();
}

/// Splits a `METRICS` body into `series -> value` samples and
/// `family -> kind` TYPE declarations, asserting every line is either a
/// `# HELP`/`# TYPE` comment or a sample with a parsable float value.
fn parse_exposition(
    body: &[String],
) -> (std::collections::BTreeMap<String, f64>, std::collections::BTreeMap<String, String>) {
    let mut samples = std::collections::BTreeMap::new();
    let mut types = std::collections::BTreeMap::new();
    for line in body {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split_whitespace();
            types.insert(it.next().unwrap().to_string(), it.next().unwrap().to_string());
        } else if line.starts_with('#') {
            assert!(line.starts_with("# HELP "), "unexpected comment line: {line}");
        } else {
            let (series, value) =
                line.rsplit_once(' ').unwrap_or_else(|| panic!("malformed sample line: {line}"));
            let value: f64 =
                value.parse().unwrap_or_else(|_| panic!("unparsable sample value: {line}"));
            samples.insert(series.to_string(), value);
        }
    }
    (samples, types)
}

#[test]
fn metrics_exposition_is_valid_and_cross_checks() {
    // Engine-wide counters are process-global and shared with concurrent
    // tests, so they get sandwich (before <= reported <= after) asserts;
    // the per-server registry values are exact.
    let resamples_before = ausdb_engine::obs::telemetry::global().bootstrap_resamples.get();

    let handle = start_server(None, Duration::from_millis(25));
    let mut client = Client::connect(&handle);
    let rows = observation_rows();
    ingest_rows_via(&mut client, &rows);
    // GROUP BY + AVG computes a result distribution per key, which the
    // BOOTSTRAP accuracy mode resamples (r = m/n per group) — so this
    // query must move the engine-wide resample counter.
    let reply = client.request(
        "QUERY SELECT key, AVG(value) FROM traffic GROUP BY key \
         WITH ACCURACY BOOTSTRAP LEVEL 0.9 SAMPLES 200",
    );
    assert!(reply[0].starts_with("SCHEMA"), "got {reply:?}");
    // The queue-depth gauge family is per-stream now, so its series only
    // exist once a stream has (or had) a subscriber.
    let sub = client.request("SUBSCRIBE SELECT * FROM traffic");
    assert!(sub[0].starts_with("OK SUBSCRIBED"), "got {sub:?}");

    let metrics = client.request("METRICS");
    assert_eq!(metrics.last().unwrap(), "END");
    let body = &metrics[..metrics.len() - 1];
    let (samples, types) = parse_exposition(body);
    let resamples_after = ausdb_engine::obs::telemetry::global().bootstrap_resamples.get();

    for (family, kind) in [
        ("ausdb_query_latency_seconds", "histogram"),
        ("ausdb_ci_relative_width", "histogram"),
        ("ausdb_sig_verdicts_total", "counter"),
        ("ausdb_subscriber_queue_depth", "gauge"),
        ("ausdb_rows_ingested_total", "counter"),
        ("ausdb_bootstrap_resamples_total", "counter"),
    ] {
        assert_eq!(types.get(family).map(String::as_str), Some(kind), "TYPE of {family}");
    }

    // Exact cross-checks against what this client actually did (the
    // server owns a fresh per-instance registry).
    assert_eq!(samples["ausdb_rows_ingested_total{stream=\"traffic\"}"], rows.len() as f64);
    assert_eq!(samples["ausdb_late_rows_total{stream=\"traffic\"}"], 0.0);
    assert_eq!(samples["ausdb_windows_emitted_total{stream=\"traffic\"}"], 2.0);
    assert_eq!(samples["ausdb_queries_total"], 1.0);
    assert_eq!(samples["ausdb_query_latency_seconds_count"], 1.0);

    // Sandwich on the shared engine-wide resample counter (other tests in
    // this binary may also bootstrap concurrently, so bounds, not
    // equality): our query must have moved it.
    let reported = samples["ausdb_bootstrap_resamples_total"] as u64;
    assert!(
        resamples_before < reported && reported <= resamples_after,
        "resamples: before={resamples_before} reported={reported} after={resamples_after}"
    );

    // Histogram buckets are cumulative: counts non-decreasing in `le`,
    // with the +Inf bucket equal to `_count`.
    let buckets: Vec<f64> = body
        .iter()
        .filter(|l| l.starts_with("ausdb_query_latency_seconds_bucket{le="))
        .map(|l| l.rsplit_once(' ').unwrap().1.parse().unwrap())
        .collect();
    assert!(buckets.len() > 2, "expected bucket series, got {buckets:?}");
    assert!(buckets.windows(2).all(|w| w[0] <= w[1]), "non-cumulative buckets: {buckets:?}");
    assert_eq!(*buckets.last().unwrap(), samples["ausdb_query_latency_seconds_count"]);
    assert!(
        body.iter().any(|l| l.starts_with("ausdb_query_latency_seconds_bucket{le=\"+Inf\"}")),
        "missing +Inf bucket"
    );
    handle.stop();
}

#[test]
fn trace_drains_recent_journal_entries() {
    let handle = start_server(None, Duration::from_millis(25));
    let mut client = Client::connect(&handle);
    ingest_rows_via(&mut client, &observation_rows());
    let reply = client.request("QUERY SELECT * FROM traffic");
    assert!(reply[0].starts_with("SCHEMA"), "got {reply:?}");

    let trace = client.request("TRACE 5");
    // Header first: `TRACE dropped=<ring evictions>`.
    assert!(trace[0].starts_with("TRACE dropped="), "missing header: {trace:?}");
    let dropped: u64 =
        trace[0].strip_prefix("TRACE dropped=").unwrap().parse().expect("numeric dropped count");
    let _ = dropped; // any u64 is valid; other tests may have churned the ring
    let last = trace.last().unwrap();
    let n: usize = last.strip_prefix("END ").expect("END <n>").parse().unwrap();
    assert_eq!(n, trace.len() - 2, "END count matches entry lines");
    assert!((1..=5).contains(&n), "expected 1..=5 entries, got {trace:?}");
    for line in &trace[1..=n] {
        // `TRACE #<seq> +<micros>us <LEVEL> <span>: <message>`
        assert!(line.starts_with("TRACE #"), "malformed entry: {line}");
        assert!(line.contains("us "), "missing relative timestamp: {line}");
    }
    // Our ingest closed windows and ran a query just now, so the tail
    // must include one of those spans.
    assert!(
        trace[1..=n].iter().any(|l| l.contains(" query: ") || l.contains(" window_close: ")),
        "expected a query/window_close span in {trace:?}"
    );
    handle.stop();
}

#[test]
fn help_lists_every_verb() {
    let handle = start_server(None, Duration::from_millis(25));
    let mut client = Client::connect(&handle);
    let reply = client.request("HELP");
    assert_eq!(reply.last().unwrap(), "END");
    let body = &reply[..reply.len() - 1];
    for verb in [
        "INGEST",
        "INGESTB",
        "QUERY",
        "SUBSCRIBE",
        "UNSUBSCRIBE",
        "STATS",
        "METRICS",
        "TRACE",
        "TRACEX",
        "SNAPSHOT",
        "RESTORE",
        "WALSTAT",
        "REPLICATE",
        "PROMOTE",
        "HEALTH",
        "SLO",
        "HELP",
        "PING",
        "SHUTDOWN",
    ] {
        assert!(
            body.iter().any(|l| l.starts_with(verb) && l.contains('—')),
            "missing usage line for {verb} in {body:?}"
        );
    }
    handle.stop();
}

#[test]
fn explain_over_the_wire_returns_plan_lines() {
    let handle = start_server(None, Duration::from_millis(25));
    let mut client = Client::connect(&handle);
    ingest_rows_via(&mut client, &observation_rows());

    let reply = client.request("QUERY EXPLAIN SELECT * FROM traffic WHERE value > 50");
    assert!(reply.last().unwrap().starts_with("END "), "got {reply:?}");
    let body = &reply[..reply.len() - 1];
    assert!(!body.is_empty() && body.iter().all(|l| l.starts_with("PLAN ")), "got {body:?}");
    assert!(body.iter().any(|l| l.contains("Scan [traffic]")), "got {body:?}");
    assert!(body.iter().any(|l| l.contains("Filter")), "got {body:?}");

    // The ANALYZE form executes and annotates with observed counters,
    // accuracy attributes, and timing.
    let reply = client.request(
        "QUERY EXPLAIN ANALYZE SELECT * FROM traffic \
         WITH ACCURACY BOOTSTRAP LEVEL 0.9 SAMPLES 200",
    );
    let body = &reply[..reply.len() - 1];
    assert!(body.iter().all(|l| l.starts_with("PLAN ")), "got {body:?}");
    assert!(body.iter().any(|l| l.contains("engine:")), "got {body:?}");
    assert!(body.iter().any(|l| l.contains("total:")), "got {body:?}");
    handle.stop();
}

#[test]
fn tracex_exports_chrome_trace_json() {
    let handle = start_server(None, Duration::from_millis(25));
    let mut client = Client::connect(&handle);
    ingest_rows_via(&mut client, &observation_rows());
    let reply = client.request("QUERY SELECT * FROM traffic");
    assert!(reply[0].starts_with("SCHEMA"), "got {reply:?}");

    let reply = client.request("TRACEX");
    let n: usize = reply.last().unwrap().strip_prefix("END ").expect("END <n>").parse().unwrap();
    assert!(n >= 1, "the query above must have left a trace in the ring: {reply:?}");
    let body = &reply[..reply.len() - 1];
    assert_eq!(body.first().map(String::as_str), Some("["));
    assert_eq!(body.last().map(String::as_str), Some("]"));
    assert!(
        body.iter().any(|l| l.contains("\"ph\":\"X\"") && l.contains("query traffic")),
        "expected a root query span event in {body:?}"
    );
    handle.stop();
}

#[test]
fn http_metrics_scrape_matches_protocol_metrics() {
    let handle = Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        snapshot_path: None,
        engine: engine_config(),
        tick: Duration::from_millis(25),
        http_addr: Some("127.0.0.1:0".to_string()),
        ..ServerConfig::default()
    })
    .expect("server starts");
    let http = handle.http_addr().expect("http listener bound");
    let mut client = Client::connect(&handle);
    ingest_rows_via(&mut client, &observation_rows());
    let reply = client.request("QUERY SELECT * FROM traffic");
    assert!(reply[0].starts_with("SCHEMA"), "got {reply:?}");

    let (status, headers, body) = http_get(http, "/metrics");
    assert_eq!(status, "HTTP/1.1 200 OK");
    let content_type =
        headers.iter().find_map(|h| h.strip_prefix("Content-Type: ")).expect("Content-Type header");
    assert_eq!(content_type, "text/plain; version=0.0.4; charset=utf-8");
    let content_length: usize = headers
        .iter()
        .find_map(|h| h.strip_prefix("Content-Length: "))
        .expect("Content-Length header")
        .parse()
        .unwrap();
    assert_eq!(content_length, body.len(), "Content-Length matches the body");

    // The body is the METRICS reply minus the END terminator. Values of
    // process-global engine counters can move between the two requests
    // (other tests in this binary bootstrap concurrently), so the
    // comparison is: identical series/comment structure, byte-identical
    // per-instance sample lines.
    let metrics = client.request("METRICS");
    assert_eq!(metrics.last().unwrap(), "END");
    let proto_body = &metrics[..metrics.len() - 1];
    let http_lines: Vec<&str> = body.lines().collect();
    assert_eq!(http_lines.len(), proto_body.len(), "same line count");
    let series_name = |l: &str| l.split([' ', '{']).next().unwrap_or("").to_string();
    for (h, p) in http_lines.iter().zip(proto_body) {
        assert_eq!(series_name(h), series_name(p), "same series order: {h} vs {p}");
    }
    for prefix in
        ["ausdb_rows_ingested_total", "ausdb_windows_emitted_total", "ausdb_queries_total"]
    {
        let from_http: Vec<&&str> = http_lines.iter().filter(|l| l.starts_with(prefix)).collect();
        assert!(!from_http.is_empty(), "HTTP body has {prefix}");
        for line in from_http {
            assert!(proto_body.iter().any(|p| p == *line), "METRICS lacks line {line}");
        }
    }

    // Health endpoints: a primary is live and ready from startup, and
    // both answer JSON with per-probe detail.
    for target in ["/healthz", "/readyz"] {
        let (status, headers, body) = http_get(http, target);
        assert_eq!(status, "HTTP/1.1 200 OK", "{target}");
        let content_type = headers
            .iter()
            .find_map(|h| h.strip_prefix("Content-Type: "))
            .expect("Content-Type header");
        assert_eq!(content_type, "application/json", "{target}");
        assert!(body.starts_with("{\"status\":\"ok\",\"probes\":["), "{target} body: {body}");
        assert!(body.contains("\"name\":\"process\""), "{target} body: {body}");
    }
    // /readyz evaluates the bootstrap probe too; /healthz does not.
    assert!(http_get(http, "/readyz").2.contains("\"name\":\"bootstrap\""));
    assert!(!http_get(http, "/healthz").2.contains("\"name\":\"bootstrap\""));

    // Other targets 404; non-GET 405; the TCP protocol side still works.
    let (status, _, _) = http_get(http, "/nope");
    assert_eq!(status, "HTTP/1.1 404 Not Found");
    assert_eq!(client.request("PING")[0], "OK PONG");
    handle.stop();
}

#[test]
fn health_verb_reports_role_streams_and_readiness() {
    let handle = start_server(None, Duration::from_millis(25));
    let mut client = Client::connect(&handle);
    ingest_rows_via(&mut client, &observation_rows());

    let reply = client.request("HEALTH");
    let head = &reply[0];
    assert!(head.starts_with("HEALTH role=primary ready=true uptime_us="), "got {head}");
    assert!(head.contains(" wal=off "), "got {head}");
    assert!(head.contains(" repl_lag=0 "), "got {head}");
    assert!(head.contains(" streams=1 "), "got {head}");
    assert!(head.contains(" subscribers=0 "), "got {head}");
    assert!(head.ends_with(" slo_targets=0 slo_violations=0"), "got {head}");
    assert_eq!(reply.last().unwrap(), "END 1");
    // Watermark 121 = the open third window's newest row; two rows are
    // buffered there, and the ingest age is a number.
    let stream_line = &reply[1];
    assert!(stream_line.starts_with("STREAM traffic watermark=121 age_us="), "got {stream_line}");
    assert!(stream_line.ends_with(" buffered=2"), "got {stream_line}");
    assert!(!stream_line.contains("age_us=-"), "an ingested stream reports an age: {stream_line}");
    handle.stop();
}

/// Everything a client observes from one SLO-watchdog session.
#[derive(Debug, Clone, PartialEq, Eq)]
struct SloRun {
    events: Vec<String>,
    slo_list: Vec<String>,
    violations: String,
    query: Vec<String>,
}

/// Reads a subscriber's next `closes` `EVENT` blocks (header and `ROW`
/// lines), plus one `ACCURACY` notice per close with `notices`, then
/// checks with a `PING` that nothing else was queued. Counting, not a
/// `PING` sent first, marks the end: the connection's writer thread may
/// still be flushing when a request's reply goes out.
fn read_events(subscriber: &mut Client, closes: usize, notices: bool) -> Vec<String> {
    let (mut lines, mut events, mut accuracy, mut rows_due) = (Vec::new(), 0, 0, 0u64);
    while events < closes || rows_due > 0 || (notices && accuracy < closes) {
        let line = subscriber.read_line();
        if let Some((_, rows)) = line.strip_prefix("EVENT ").and_then(|l| l.rsplit_once(" ROWS ")) {
            rows_due = rows.parse().unwrap();
            events += 1;
        } else if line.starts_with("ROW ") {
            rows_due -= 1;
        } else if line.starts_with("ACCURACY ") {
            accuracy += 1;
        } else {
            panic!("unexpected subscriber line: {line}");
        }
        lines.push(line);
    }
    assert_eq!(subscriber.request("PING"), ["OK PONG"], "more was queued than {lines:?}");
    lines
}

/// One SLO-watchdog session: subscribe, arm an impossible-to-meet CI
/// width target, close two windows, and report everything observable —
/// the subscriber's event/notice lines, the `SLO LIST` reply, the
/// violation counter sample, and the full query reply.
fn slo_session(shards: usize) -> SloRun {
    let handle = Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        snapshot_path: None,
        // Room for both windows' events + notices without DROPPED races.
        engine: EngineConfig { shards, queue_cap: 64, ..engine_config() },
        tick: Duration::from_millis(25),
        ..ServerConfig::default()
    })
    .expect("server starts");
    let mut sub = Client::connect(&handle);
    let reply = sub.request("SUBSCRIBE SELECT * FROM traffic");
    assert!(reply[0].starts_with("OK SUBSCRIBED 1"), "got {reply:?}");
    let reply = sub.request("SLO SET 1 0.000000001");
    assert_eq!(reply[0], "OK SLO 1 target=0.000000001");

    let mut producer = Client::connect(&handle);
    ingest_rows_via(&mut producer, &observation_rows());

    let events = read_events(&mut sub, 2, true);
    let slo_list = sub.request("SLO LIST");
    let metrics = sub.request("METRICS");
    let violations = metrics
        .iter()
        .find(|l| l.starts_with("ausdb_accuracy_slo_violations_total{query=\"1\"}"))
        .expect("violation counter series")
        .clone();
    let query =
        sub.request("QUERY SELECT * FROM traffic WITH ACCURACY BOOTSTRAP LEVEL 0.9 SAMPLES 200");
    handle.stop();
    SloRun { events, slo_list, violations, query }
}

#[test]
fn slo_watchdog_fires_identically_across_shards() {
    let mut baseline: Option<SloRun> = None;
    for shards in [1, 4] {
        let got = slo_session(shards);
        let SloRun { events, slo_list, violations, query } = &got;

        // Two windows closed, each violating the 1e-9 target: an
        // ACCURACY notice follows each EVENT block.
        let notices: Vec<&String> =
            events.iter().filter(|l| l.starts_with("ACCURACY 1 width=")).collect();
        assert_eq!(notices.len(), 2, "one notice per violated close: {events:?}");
        for notice in &notices {
            assert!(notice.ends_with(" target=0.000000001"), "got {notice}");
        }
        assert!(events.iter().any(|l| l.starts_with("EVENT")), "got {events:?}");
        assert_eq!(violations.as_str(), "ausdb_accuracy_slo_violations_total{query=\"1\"} 2");
        assert_eq!(slo_list.len(), 2, "one SLO line + END: {slo_list:?}");
        assert!(
            slo_list[0].starts_with("SLO 1 stream=traffic target=0.000000001 violations=2"),
            "got {slo_list:?}"
        );
        assert!(query[0].starts_with("SCHEMA"), "got {query:?}");

        // The watchdog is observational: every byte the client sees is
        // identical sharded or not.
        match &baseline {
            None => baseline = Some(got.clone()),
            Some(want) => assert_eq!(&got, want, "SLO watchdog output differs (shards={shards})"),
        }
    }
}

/// Minimal HTTP/1.0-style GET over a raw socket: returns (status line,
/// header lines, body bytes as text).
fn http_get(addr: std::net::SocketAddr, target: &str) -> (String, Vec<String>, String) {
    let mut stream = TcpStream::connect(addr).expect("http connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    stream
        .write_all(format!("GET {target} HTTP/1.1\r\nHost: localhost\r\n\r\n").as_bytes())
        .unwrap();
    let mut raw = Vec::new();
    std::io::Read::read_to_end(&mut stream, &mut raw).expect("read response");
    let text = String::from_utf8(raw).expect("utf-8 response");
    let (head, body) = text.split_once("\r\n\r\n").expect("header/body separator");
    let mut lines = head.lines();
    let status = lines.next().unwrap_or("").to_string();
    (status, lines.map(str::to_string).collect(), body.to_string())
}

#[test]
fn protocol_errors_are_structured() {
    let handle = start_server(None, Duration::from_millis(25));
    let mut client = Client::connect(&handle);
    assert!(client.request("FROB")[0].starts_with("ERR unknown command"));
    assert!(client.request("INGEST traffic nonsense")[0].starts_with("ERR ingest:"));
    assert!(client.request("QUERY SELECT * FROM missing")[0].starts_with("ERR query:"));
    assert!(client.request("SNAPSHOT")[0].starts_with("ERR no snapshot path"));
    assert!(client.request("UNSUBSCRIBE 99")[0].starts_with("ERR subscription"));
    // A standing query that cannot plan is refused when it is made, not
    // accepted and then answered with an `EVENT <id> ERR` at every close.
    ingest_rows_via(&mut client, &observation_rows());
    for sql in [
        "SELECT nope FROM traffic",
        "SELECT key, AVG(value) FROM traffic GROUP BY key WINDOW AVG(value) SIZE 2",
    ] {
        let reply = client.request(&format!("SUBSCRIBE {sql}"));
        assert!(reply[0].starts_with("ERR subscribe: plan error"), "{sql}: {reply:?}");
    }
    // The connection survives every error, and refusals took no id.
    assert_eq!(client.request("PING")[0], "OK PONG");
    assert_eq!(client.request("SUBSCRIBE SELECT * FROM traffic")[0], "OK SUBSCRIBED 1 traffic");
    handle.stop();
}

/// The binary batch path must be observably identical to line-at-a-time
/// ingest: same `OK INGESTED` totals, same query results, same windows.
#[test]
fn ingestb_batch_matches_line_ingest() {
    use ausdb_learn::learner::RawObservation;
    use ausdb_serve::client::BatchClient;

    let handle = start_server(None, Duration::from_millis(25));
    let rows = observation_rows();

    let mut batch = BatchClient::connect(&handle.addr().to_string()).expect("batch connect");
    let raw: Vec<RawObservation> =
        rows.iter().map(|&(key, ts, value)| RawObservation::new(key, ts, value)).collect();
    let outcome = batch.ingest_batch("traffic", &raw).expect("batch ingest");
    assert_eq!(outcome.accepted, rows.len() as u64);
    assert_eq!(outcome.late, 0);
    assert_eq!(outcome.windows_emitted, 2, "two full windows close during the batch");

    // Bit-identical to the in-process line path for every query shape.
    let state = session_after(&rows);
    let mut client = Client::connect(&handle);
    for sql in [
        "SELECT * FROM traffic",
        "SELECT * FROM traffic WITH ACCURACY BOOTSTRAP LEVEL 0.9 SAMPLES 200",
    ] {
        assert_eq!(
            client.request(&format!("QUERY {sql}")),
            expected_reply(&state, sql),
            "batch-ingested server vs in-process mismatch for {sql}"
        );
    }

    // The same connection still speaks the line protocol afterwards.
    assert_eq!(batch.request_line("PING").unwrap(), "OK PONG");
    handle.stop();
}

/// Frame-level protocol errors: a corrupt frame is rejected without
/// killing the connection; an oversize announcement closes it.
#[test]
fn ingestb_frame_errors_are_structured() {
    use ausdb_model::codec::encode_ingest_frame;

    let handle = start_server(None, Duration::from_millis(25));
    let mut client = Client::connect(&handle);

    // Corrupt the CRC: ERR, but the connection survives.
    let mut frame = encode_ingest_frame(&[(19, 100, 56.0)]);
    let last = frame.len() - 1;
    frame[last] ^= 0xFF;
    client.send(&format!("INGESTB traffic {}", frame.len()));
    client.stream.write_all(&frame).unwrap();
    assert!(client.read_line().starts_with("ERR frame:"));
    assert_eq!(client.request("PING")[0], "OK PONG");

    // An absurd announced size is refused up front and closes the socket.
    client.send("INGESTB traffic 999999999");
    assert!(client.read_line().starts_with("ERR frame"));
    let mut probe = String::new();
    let n = client.reader.read_line(&mut probe).unwrap_or(0);
    assert_eq!(n, 0, "oversize frame announcement closes the connection");
    handle.stop();
}

/// A batch frame with no rows is acknowledged and leaves no trace — no
/// stream, no coordinator — so `STATS` cannot tell the shard counts apart
/// and a later `SNAPSHOT` finds nothing half-made. (Before the shard
/// counts shared one ingest path, two or more shards registered a
/// coordinator with no learner and every later snapshot panicked.)
#[test]
fn zero_row_frame_creates_nothing_at_any_shard_count() {
    use ausdb_model::codec::encode_ingest_frame;

    let frame = encode_ingest_frame(&[]);
    assert_eq!(frame.len(), 14, "header and CRC only");
    let dir = std::env::temp_dir().join(format!("ausdb_loopback_empty_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut stats = Vec::new();
    for shards in [1usize, 2, 8] {
        let snap = dir.join(format!("state{shards}.snap"));
        let handle = start_sharded_server(Some(snap), Duration::from_millis(25), shards);
        let mut client = Client::connect(&handle);
        client.send(&format!("INGESTB fresh {}", frame.len()));
        client.stream.write_all(&frame).unwrap();
        assert_eq!(client.read_line(), "OK INGESTED fresh rows=0 late=0 windows_emitted=0");
        let reply = client.request("STATS");
        assert!(reply[0].ends_with(" streams=0"), "shards={shards}: {reply:?}");
        stats.push(reply);
        let reply = client.request("SNAPSHOT");
        assert!(reply[0].starts_with("OK SNAPSHOT "), "shards={shards}: {reply:?}");
        handle.stop();
    }
    assert!(stats.iter().all(|s| s == &stats[0]), "STATS tells shard counts apart: {stats:?}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A sharded server must answer queries bit-identically to the
/// single-engine in-process path — the tentpole's hard invariant, proven
/// over the wire.
#[test]
fn sharded_server_is_bit_identical_to_unsharded() {
    use ausdb_learn::learner::RawObservation;
    use ausdb_serve::client::BatchClient;

    let rows = observation_rows();
    let state = session_after(&rows);

    for shards in [2usize, 8] {
        let handle = start_sharded_server(None, Duration::from_millis(25), shards);
        let mut batch = BatchClient::connect(&handle.addr().to_string()).expect("batch connect");
        let raw: Vec<RawObservation> =
            rows.iter().map(|&(key, ts, value)| RawObservation::new(key, ts, value)).collect();
        let outcome = batch.ingest_batch("traffic", &raw).expect("batch ingest");
        assert_eq!(outcome.accepted, rows.len() as u64);

        let mut client = Client::connect(&handle);
        for sql in [
            "SELECT * FROM traffic",
            "SELECT * FROM traffic WITH ACCURACY BOOTSTRAP LEVEL 0.9 SAMPLES 200",
        ] {
            assert_eq!(
                client.request(&format!("QUERY {sql}")),
                expected_reply(&state, sql),
                "{shards}-shard server vs unsharded in-process mismatch for {sql}"
            );
        }
        handle.stop();
    }
}

/// The renderer as it was when `core::fmt` wrote the numbers.
#[path = "support/display_oracle.rs"]
mod display_oracle;

/// Results do carry non-finite numbers: the model keeps them out of
/// distributions, but a scalar projection that overflows is `inf`, `-inf`
/// or (their difference) `NaN`. The reply must be, byte for byte, what the
/// in-process result renders to through `Display`.
#[test]
fn non_finite_query_results_match_the_display_oracle() {
    let handle = start_server(None, Duration::from_millis(25));
    let mut client = Client::connect(&handle);
    let rows = observation_rows();
    ingest_rows_via(&mut client, &rows);
    let state = session_after(&rows);

    let sql = "SELECT key, key * 1e300 * 1e300 AS up, (0 - key) * 1e300 * 1e300 AS down, \
               key * 1e300 * 1e300 - key * 1e300 * 1e300 AS nan, key * 1e300 AS big FROM traffic";
    let (schema, tuples) = run_sql(&state, sql).expect("in-process query");
    let mut want = String::new();
    display_oracle::render_schema_into(&mut want, &schema);
    want.push('\n');
    display_oracle::render_rows_into(&mut want, &tuples);
    want.push_str(&format!("END {}\n", tuples.len()));
    assert!(want.contains(" inf -inf NaN 19000000000"), "no non-finite values in {want}");

    let got = client.request(&format!("QUERY {sql}"));
    assert_eq!(got.join("\n") + "\n", want);
    handle.stop();
}

/// What the clients of one [`observed_session`] received: each
/// subscriber's stream (`EVENT`, `ROW` and `ACCURACY` lines) and each
/// `QUERY` reply.
#[derive(Debug, PartialEq, Eq)]
struct Observed {
    subscribers: Vec<Vec<String>>,
    queries: Vec<Vec<String>>,
}

/// A second stream for [`observed_session`]: two keys, three windows.
fn roads_rows() -> Vec<(i64, u64, f64)> {
    (0..30u64).map(|i| (7 + (i % 2) as i64, 100 + i, 40.0 + (i * 7 % 11) as f64)).collect()
}

/// One fixed script: three subscriptions over two streams (the first with
/// an SLO every close violates), fed alternately by `INGEST` lines and
/// `INGESTB` frames, then three ad-hoc queries. With `scrape`, every
/// introspection verb and both HTTP routes are read before each write.
fn observed_session(scrape: bool) -> Observed {
    let handle = Server::start(ServerConfig {
        engine: EngineConfig { queue_cap: 1 << 12, ..engine_config() },
        http_addr: Some("127.0.0.1:0".to_string()),
        history_sample_ms: Some(1),
        ..ServerConfig::default()
    })
    .expect("server starts");
    let http = handle.http_addr().expect("http listener bound");
    let mut subscribers: Vec<Client> = [
        "SUBSCRIBE SELECT * FROM traffic",
        "SUBSCRIBE SELECT key, value FROM traffic WHERE value > 50 PROB 0.5",
        "SUBSCRIBE SELECT * FROM roads",
    ]
    .into_iter()
    .enumerate()
    .map(|(i, sql)| {
        let mut subscriber = Client::connect(&handle);
        let reply = subscriber.request(sql);
        assert!(reply[0].starts_with(&format!("OK SUBSCRIBED {}", i + 1)), "got {reply:?}");
        subscriber
    })
    .collect();
    assert_eq!(subscribers[0].request("SLO SET 1 0.000000001")[0], "OK SLO 1 target=0.000000001");

    let mut scraper = Client::connect(&handle);
    let mut observe = || {
        if !scrape {
            return;
        }
        for verb in
            ["METRICS", "STATS", "HEALTH", "TRACE 5", "TRACEX", "HISTORY EXPORT", "SLO LIST"]
        {
            let reply = scraper.request(verb);
            assert!(reply.last().unwrap().starts_with("END"), "{verb}: {reply:?}");
        }
        for target in ["/metrics", "/history"] {
            assert_eq!(http_get(http, target).0, "HTTP/1.1 200 OK", "GET {target}");
        }
    };

    let mut lines = Client::connect(&handle);
    let mut frames = BatchClient::connect(&handle.addr().to_string()).expect("connect");
    let (traffic, roads) = (observation_rows(), roads_rows());
    for (n, (stream, chunk)) in traffic
        .chunks(4)
        .map(|c| ("traffic", c))
        .zip(roads.chunks(5).map(|c| ("roads", c)))
        .flat_map(|(a, b)| [a, b])
        .enumerate()
    {
        if n % 2 == 0 {
            for (key, ts, value) in chunk {
                observe();
                let reply = lines.request(&format!("INGEST {stream} {key},{ts},{value}"));
                assert!(reply[0].starts_with("OK INGESTED"), "got {reply:?}");
            }
        } else {
            observe();
            let rows: Vec<RawObservation> =
                chunk.iter().map(|&(key, ts, value)| RawObservation::new(key, ts, value)).collect();
            frames.ingest_batch(stream, &rows).expect("INGESTB");
        }
    }

    let mut querier = Client::connect(&handle);
    let queries = [
        "QUERY SELECT * FROM traffic",
        "QUERY SELECT * FROM roads WITH ACCURACY BOOTSTRAP LEVEL 0.9 SAMPLES 200",
        "QUERY SELECT key, value FROM traffic WHERE value > 50 PROB 0.5",
    ]
    .into_iter()
    .map(|sql| {
        observe();
        querier.request(sql)
    })
    .collect();

    // Each stream closed its first two windows; only subscription 1 has
    // an SLO.
    let subscribers = subscribers
        .iter_mut()
        .enumerate()
        .map(|(i, subscriber)| read_events(subscriber, 2, i == 0))
        .collect();
    handle.stop();
    Observed { subscribers, queries }
}

/// Observing is never perturbing: scraping every introspection surface
/// between every write leaves every result byte as it was.
#[test]
fn observing_never_perturbs_results() {
    let plain = observed_session(false);
    for (id, stream) in plain.subscribers.iter().enumerate() {
        assert!(stream.iter().any(|l| l.starts_with("EVENT")), "subscriber {}: {stream:?}", id + 1);
    }
    assert!(plain.subscribers[0].iter().any(|l| l.starts_with("ACCURACY 1 width=")));
    assert!(plain.queries.iter().all(|reply| reply[0].starts_with("SCHEMA")), "{plain:?}");
    let watched = observed_session(true);
    assert_eq!(watched, plain, "scraping changed a result byte");
}
