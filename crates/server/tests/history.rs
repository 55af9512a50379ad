//! Integration tests for the accuracy-trajectory store — the PR's
//! acceptance proofs:
//!
//! 1. **Strict observability**: `QUERY` / `SUBSCRIBE` transcripts are
//!    byte-identical across shard counts with the sampler thread
//!    scraping at full speed.
//! 2. **Determinism**: with the sampler disabled, `HISTORY` replies are
//!    a pure function of the ingest script — two identical sessions
//!    produce byte-identical trajectories.
//! 3. **Surface agreement**: `HISTORY EXPORT` over the line protocol and
//!    `GET /history` over HTTP serve the same JSON; per-series HTTP
//!    slices agree with the `HISTORY <series>` verb.
//! 4. **HTTP robustness**: bad query parameters are 400s, unknown paths
//!    404 with the endpoint list, and the router preserves the exact
//!    response framing the scrapers rely on.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use ausdb_learn::accuracy::DistKind;
use ausdb_learn::learner::LearnerConfig;
use ausdb_serve::server::{Server, ServerConfig, ServerHandle};
use ausdb_serve::state::EngineConfig;

const WINDOW: u64 = 10;

/// Serializes tests in this binary: accuracy points record *deltas* of
/// process-global engine counters (resamples, verdicts), so two
/// concurrently closing windows would inflate each other's points.
fn history_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn engine_config(shards: usize) -> EngineConfig {
    EngineConfig {
        learner: LearnerConfig {
            kind: DistKind::Empirical,
            level: 0.9,
            window_width: WINDOW,
            min_observations: 2,
        },
        max_subscribers: 8,
        queue_cap: 64,
        shards,
    }
}

/// Starts a server with the retention sampler configured explicitly.
/// `sample_ms = 0` keeps event-driven accuracy points but no sampler
/// thread (deterministic ticks).
fn start_server(shards: usize, sample_ms: u64, http: bool) -> ServerHandle {
    Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        engine: engine_config(shards),
        tick: Duration::from_millis(25),
        http_addr: http.then(|| "127.0.0.1:0".to_string()),
        history_sample_ms: Some(sample_ms),
        ..ServerConfig::default()
    })
    .expect("server starts")
}

/// A tiny line-protocol client (the loopback test's shape).
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

    fn send(&mut self, line: &str) {
        self.stream.write_all(line.as_bytes()).unwrap();
        self.stream.write_all(b"\n").unwrap();
    }

    fn read_line(&mut self) -> String {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("read line");
        assert!(n > 0, "server closed the connection unexpectedly");
        line.trim_end_matches(['\n', '\r']).to_string()
    }

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

/// The loopback suite's fixed ingest script: two keys over two full
/// windows plus buffered leftovers in an open third window.
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
    rows.push((19, 120, 41.0));
    rows.push((20, 121, 62.5));
    rows
}

fn ingest_rows(client: &mut Client, rows: &[(i64, u64, f64)]) {
    for (key, ts, value) in rows {
        let reply = client.request(&format!("INGEST traffic {key},{ts},{value}"));
        assert!(reply[0].starts_with("OK INGESTED"), "got {reply:?}");
    }
}

/// Everything a subscriber + querier observes from one session.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Transcript {
    events: Vec<String>,
    query: Vec<String>,
}

/// One standing-query session: subscribe, replay the ingest script,
/// drain both window closes' events, then run a seeded bootstrap query.
fn session(handle: &ServerHandle) -> Transcript {
    let mut sub = Client::connect(handle);
    let reply = sub.request("SUBSCRIBE SELECT * FROM traffic");
    assert!(reply[0].starts_with("OK SUBSCRIBED 1"), "got {reply:?}");

    let mut producer = Client::connect(handle);
    ingest_rows(&mut producer, &observation_rows());

    // Both closes queued their events before the producer's last OK, so
    // they drain before the PONG below.
    sub.send("PING");
    let mut events = Vec::new();
    loop {
        let line = sub.read_line();
        if line == "OK PONG" {
            break;
        }
        events.push(line);
    }
    let query =
        sub.request("QUERY SELECT * FROM traffic WITH ACCURACY BOOTSTRAP LEVEL 0.9 SAMPLES 200");
    Transcript { events, query }
}

#[test]
fn transcripts_byte_identical_across_shards_with_the_sampler_running() {
    let _guard = history_lock();
    let mut baseline: Option<Transcript> = None;
    for shards in [1, 4] {
        // The sampler runs at full speed to prove the scrape thread never
        // perturbs results.
        let handle = start_server(shards, 1, false);
        let got = session(&handle);
        handle.stop();
        assert!(!got.events.is_empty(), "two closes must emit events");
        assert!(got.query[0].starts_with("SCHEMA"), "got {:?}", got.query);
        match &baseline {
            None => baseline = Some(got),
            Some(want) => assert_eq!(&got, want, "transcript changed under shards={shards}"),
        }
    }
}

/// Runs one sampler-less session and returns its full `HISTORY` surface:
/// the series listing, the accuracy trajectory, and the export dump.
fn history_surface(shards: usize) -> (Vec<String>, Vec<String>, Vec<String>) {
    let handle = start_server(shards, 0, false);
    let mut sub = Client::connect(&handle);
    assert!(sub.request("SUBSCRIBE SELECT * FROM traffic")[0].starts_with("OK SUBSCRIBED 1"));
    let mut producer = Client::connect(&handle);
    ingest_rows(&mut producer, &observation_rows());
    // Both windows are closed (their events were queued before the last
    // ingest OK), so the trajectory is complete.
    let list = producer.request("HISTORY");
    let series = producer.request("HISTORY ausdb_accuracy{query=\"1\"} LAST 2h");
    let export = producer.request("HISTORY EXPORT");
    handle.stop();
    (list, series, export)
}

#[test]
fn history_replies_are_deterministic_and_shard_invariant() {
    let _guard = history_lock();
    let (list, series, export) = history_surface(1);

    // No sampler ran, so the only series is the standing query's
    // accuracy trajectory: one point per closed window.
    assert_eq!(
        list,
        vec![
            "SERIES ausdb_accuracy{query=\"1\"} kind=accuracy points=2".to_string(),
            "END 1".to_string()
        ]
    );
    assert_eq!(series[0], "SERIES ausdb_accuracy{query=\"1\"} kind=accuracy step=0 points=2");
    assert_eq!(series.len(), 4, "header + 2 points + END: {series:?}");
    assert_eq!(series[3], "END 2");
    // Points are keyed by event-time window start; the plain SELECT *
    // evaluation spends no bootstrap resamples and renders no verdicts,
    // and no rows were late.
    for (line, start) in [(&series[1], 100), (&series[2], 110)] {
        assert!(line.starts_with(&format!("POINT t={start} ci_width=")), "got {line}");
        assert!(line.contains(" df_n=8 "), "got {line}");
        assert!(line.contains(" resamples=0 "), "got {line}");
        assert!(line.contains(" verdicts_true=0 "), "got {line}");
        assert!(line.contains(" rows=2 "), "got {line}");
        assert!(line.ends_with(" late_rows=0"), "got {line}");
    }
    assert!(export.iter().any(|l| l.contains("\"version\": 1")), "{export:?}");

    // Determinism: an identical session replays to byte-identical
    // replies; sharding the engine changes none of them.
    assert_eq!(history_surface(1), (list.clone(), series.clone(), export.clone()));
    assert_eq!(history_surface(4), (list, series, export));
}

#[test]
fn history_without_sampler_or_subscription_stays_empty_and_errors_are_structured() {
    let _guard = history_lock();
    let handle = start_server(1, 0, false);
    let mut producer = Client::connect(&handle);
    ingest_rows(&mut producer, &observation_rows());
    assert_eq!(producer.request("HISTORY"), vec!["END 0".to_string()]);
    assert!(producer.request("HISTORY nope")[0].starts_with("ERR history: unknown series"));
    assert!(producer.request("HISTORY s LAST soon")[0].starts_with("ERR bad duration"));
    assert_eq!(producer.request("PING")[0], "OK PONG", "the connection survives every error");
    handle.stop();
}

/// Minimal GET over a raw socket: (status line, header lines, body).
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
fn http_history_agrees_with_the_protocol_verb() {
    let _guard = history_lock();
    let handle = start_server(1, 0, true);
    let http = handle.http_addr().expect("http listener bound");
    let mut sub = Client::connect(&handle);
    assert!(sub.request("SUBSCRIBE SELECT * FROM traffic")[0].starts_with("OK SUBSCRIBED 1"));
    let mut producer = Client::connect(&handle);
    ingest_rows(&mut producer, &observation_rows());

    // The consolidated dump is byte-identical on both surfaces (the verb
    // splits it into lines and appends END).
    let export = producer.request("HISTORY EXPORT");
    let (status, headers, body) = http_get(http, "/history");
    assert_eq!(status, "HTTP/1.1 200 OK");
    let content_type =
        headers.iter().find_map(|h| h.strip_prefix("Content-Type: ")).expect("Content-Type");
    assert_eq!(content_type, "application/json");
    let content_length: usize = headers
        .iter()
        .find_map(|h| h.strip_prefix("Content-Length: "))
        .expect("Content-Length")
        .parse()
        .unwrap();
    assert_eq!(content_length, body.len());
    let verb_json: Vec<&str> = export[..export.len() - 1].iter().map(String::as_str).collect();
    assert_eq!(body.lines().collect::<Vec<_>>(), verb_json, "verb and HTTP dumps agree");

    // A per-series slice carries the same points the verb renders
    // (query= percent-encoded; the router decodes it).
    let series = producer.request("HISTORY ausdb_accuracy{query=\"1\"}");
    let (status, _, body) =
        http_get(http, "/history?series=ausdb_accuracy%7Bquery%3D%221%22%7D&last=2h");
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert!(body.starts_with("{\"series\":\"ausdb_accuracy{query=\\\"1\\\"}\""), "got {body}");
    let n_points = body.matches("{\"t\":").count();
    assert_eq!(n_points, series.len() - 2, "same point count as the verb reply");
    assert!(body.contains("\"t\":100") && body.contains("\"t\":110"), "got {body}");

    // Bad query parameters are 400s; unknown paths list every endpoint.
    let (status, _, body) = http_get(http, "/history?series=nope");
    assert_eq!(status, "HTTP/1.1 400 Bad Request");
    assert!(body.starts_with("unknown series 'nope'"), "got {body}");
    let (status, _, body) = http_get(http, "/history?series=x&last=soon");
    assert_eq!(status, "HTTP/1.1 400 Bad Request");
    assert!(body.starts_with("bad last 'soon'"), "got {body}");
    let (status, _, body) = http_get(http, "/nope");
    assert_eq!(status, "HTTP/1.1 404 Not Found");
    assert_eq!(body, "try GET /metrics, /healthz, /readyz, or /history\n");
    handle.stop();
}

#[test]
fn sampler_feeds_metric_series_into_the_store() {
    let _guard = history_lock();
    let handle = start_server(1, 10, false);
    let mut client = Client::connect(&handle);
    ingest_rows(&mut client, &observation_rows());

    // The 10ms sampler scrapes the merged registries; within the
    // deadline the ingest counter series must appear with its full
    // delta. No LAST clause → the whole finest tier, open bucket
    // included; storage is sparse (the counter stops moving once ingest
    // is done), so the ring never wraps and the total is stable.
    let deadline = Instant::now() + Duration::from_secs(10);
    let series = "ausdb_rows_ingested_total{stream=\"traffic\"}";
    loop {
        let reply = client.request(&format!("HISTORY {series}"));
        if reply[0].starts_with("ERR") {
            assert!(Instant::now() < deadline, "sampler never recorded {series}: {reply:?}");
            std::thread::sleep(Duration::from_millis(10));
            continue;
        }
        assert!(reply[0].starts_with(&format!("SERIES {series} kind=counter")), "got {reply:?}");
        let total: u64 = reply[1..reply.len() - 1]
            .iter()
            .map(|l| {
                l.rsplit_once("delta=")
                    .and_then(|(_, d)| d.parse::<u64>().ok())
                    .unwrap_or_else(|| panic!("malformed point line {l}"))
            })
            .sum();
        if total == observation_rows().len() as u64 {
            break;
        }
        assert!(Instant::now() < deadline, "deltas never summed to the ingest count: {reply:?}");
        std::thread::sleep(Duration::from_millis(10));
    }
    // Step regrouping answers at the coarser resolution.
    let reply = client.request(&format!("HISTORY {series} STEP 10s"));
    assert!(reply[0].contains(" step=10 "), "got {:?}", reply[0]);
    handle.stop();
}
