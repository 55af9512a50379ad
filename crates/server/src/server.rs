//! The TCP server: thread-per-connection transport over one [`ShardSet`].
//!
//! One accept thread spawns one thread per client; all of them share the
//! engine, a [`ShardSet`] — the same code for every `--shards N`: ingest
//! serializes per stream on that stream's coordinator, buffers rows under
//! short per-shard locks, and takes the query core only to register a
//! closed window, so a `QUERY` waits for at most one close, never for the
//! rest of a batch. A connection thread reads requests
//! and writes replies; its read times out every `tick` only so that it
//! notices the shutdown flag. No async runtime (the build is std-only by
//! constraint).
//!
//! Subscriber fan-out is event-driven. A connection's first `SUBSCRIBE`
//! starts one writer thread for it. Every push into one of the
//! connection's [`SubscriberQueue`]s signals the connection's [`Wakeup`];
//! the writer thread blocks on it, then drains all of the connection's
//! queues into one buffer and writes that with one syscall — so an
//! `EVENT` reaches the client as soon as it is rendered, and closes that
//! pile up during a write leave together in the next. Both threads write
//! the shared socket under one per-connection write lock, which also
//! guards the subscription list, and the drain happens under it: `OK
//! SUBSCRIBED <id>` precedes that id's first `EVENT`, nothing of `<id>`
//! follows `OK UNSUBSCRIBED <id>`, and a block is never cut in two by a
//! reply. A connection that never subscribes keeps exactly one thread.
//!
//! Replies are written with one syscall per request, and the `INGESTB`
//! binary frame path amortizes the request/reply round-trip over
//! thousands of rows — see DESIGN.md §8 for the wire layout.
//!
//! Shutdown (client `SHUTDOWN`, [`ServerHandle::shutdown`], or Ctrl-C via
//! the binary) is cooperative: the flag flips, the acceptor is woken by a
//! loopback connect, every connection flushes its queues and says `BYE`
//! and joins its writer thread, the acceptor **joins every connection
//! thread**, and a final snapshot is written. Nothing detaches.

use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ausdb_learn::learner::RawObservation;
use ausdb_model::codec::{decode_ingest_frame, decode_snapshot, encode_snapshot};
use ausdb_obs::hist::log_linear_bounds;
use ausdb_obs::{
    journal, Counter, Gauge, HealthRegistry, Histogram, Level, ProbeKind, Registry, SeriesStore,
};
use ausdb_wal::{Wal, WalOptions, WalTelemetry};

use crate::http::{HttpRequest, HttpResponse, Router};
use crate::numtext::push_u64;
use crate::protocol::{help_lines, parse_request, Request};
use crate::render::{render_rows_into, render_schema_into, render_trace_entry};
use crate::repl::{self, ReplReply};
use crate::shard::ShardSet;
use crate::snapshot::{clean_stale_temps, read_snapshot, write_snapshot};
use crate::state::{EngineConfig, QueryReply};
use crate::subscriber::{SubscriberQueue, Wakeup};

/// Longest accepted request line; protects against a client streaming
/// bytes with no newline.
const MAX_LINE_BYTES: usize = 1 << 20;

/// Largest accepted `INGESTB` frame: the codec's row cap plus envelope.
/// An announced size beyond this is rejected **and closes the
/// connection** — the client's framing is untrusted at that point, so
/// resynchronizing on the byte stream would be guesswork.
const MAX_FRAME_BYTES: usize = ausdb_model::codec::MAX_FRAME_ROWS * 24 + 64;

/// Transport + engine configuration for [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:7878` (`:0` picks a free port).
    pub addr: String,
    /// Snapshot file: restored on startup if present, written on shutdown
    /// and on `SNAPSHOT`. `None` disables persistence.
    pub snapshot_path: Option<PathBuf>,
    /// Engine settings (learner, subscriber limits).
    pub engine: EngineConfig,
    /// Tick interval for connection loops: the read timeout after which a
    /// connection checks the shutdown flag. Not a delivery interval.
    pub tick: Duration,
    /// Optional HTTP bind address (e.g. `127.0.0.1:9100`) serving
    /// `GET /metrics` — the same exposition as the `METRICS` protocol
    /// command, scrape-able by Prometheus. `None` disables the listener.
    pub http_addr: Option<String>,
    /// Write-ahead log directory. When set, every accepted ingest batch
    /// is logged before it is applied, and startup replays records past
    /// the snapshot's watermark — so a crash loses at most the unsynced
    /// tail (`AUSDB_FSYNC` controls that window). `None` disables the WAL.
    pub wal_dir: Option<PathBuf>,
    /// Start as a read-only follower replicating from this primary
    /// address. Requires `wal_dir`. `PROMOTE` turns the follower into a
    /// writable primary.
    pub replicate_from: Option<String>,
    /// Sampler cadence in milliseconds (one retention-store tick per
    /// scrape of the merged registries); `Some(0)` disables the sampler
    /// thread while keeping event-driven accuracy points. `None` reads
    /// the `AUSDB_HISTORY_SAMPLE_MS` knob.
    pub history_sample_ms: Option<u64>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            snapshot_path: None,
            engine: EngineConfig::default(),
            tick: Duration::from_millis(25),
            http_addr: None,
            wal_dir: None,
            replicate_from: None,
            history_sample_ms: None,
        }
    }
}

struct Shared {
    /// The key-sharded engine; its methods lock internally.
    state: ShardSet,
    shutdown: AtomicBool,
    /// Set by [`ServerHandle::kill`]: skip the final snapshot and WAL
    /// flush/truncate so the on-disk state is what a real `kill -9`
    /// would leave behind.
    crashed: AtomicBool,
    /// Read-only follower mode; `PROMOTE` flips it off.
    follower: AtomicBool,
    /// Primary address when started with `replicate_from`.
    primary_addr: Option<String>,
    snapshot_path: Option<PathBuf>,
    tick: Duration,
    addr: SocketAddr,
    http_addr: Option<SocketAddr>,
    /// Server-scope metric registry: WAL telemetry (fsync latency,
    /// segment/byte gauges) and the replication-lag gauge. Merged into
    /// every `METRICS` / HTTP exposition.
    srv_registry: Registry,
    /// `ausdb_replication_lag_records`: how many WAL records this
    /// follower is behind its primary (0 on a primary).
    repl_lag: Arc<Gauge>,
    /// When the server finished recovery and started accepting.
    started: Instant,
    /// Readiness: true on a primary from startup, on a follower once the
    /// first replication reply (snapshot bootstrap + records) is fully
    /// applied. Drives `/readyz` and the `HEALTH` `ready=` field.
    ready: Arc<AtomicBool>,
    /// Liveness/readiness probes behind `/healthz` + `/readyz`.
    health: HealthRegistry,
    /// `ausdb_journal_dropped_total`, synced from the journal's ring
    /// eviction count whenever metrics render.
    journal_dropped: Arc<Counter>,
    /// `ausdb_fanout_delay_seconds`: per writer-thread flush, from the
    /// enqueue of the oldest block in it to the end of its socket write.
    fanout_delay: Arc<Histogram>,
    /// The retention store behind `HISTORY` / `GET /history` — the same
    /// store the engine appends accuracy points to at window close; the
    /// sampler thread feeds it metric scrapes.
    history: Arc<SeriesStore>,
}

/// Locks the WAL mutex, recovering from poisoning.
fn lock_wal(m: &Mutex<Wal>) -> MutexGuard<'_, Wal> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// The server entry point.
pub struct Server;

impl Server {
    /// Binds, recovers (cleans stale snapshot temps, restores the latest
    /// snapshot, replays WAL records past its watermark), and starts the
    /// accept thread. Returns a handle for shutdown/join.
    pub fn start(config: ServerConfig) -> std::io::Result<ServerHandle> {
        if config.replicate_from.is_some() && config.wal_dir.is_none() {
            return Err(std::io::Error::new(
                ErrorKind::InvalidInput,
                "--replicate-from requires --wal-dir (the follower mirrors the primary's log)",
            ));
        }
        if config.replicate_from.is_some() && config.snapshot_path.is_none() {
            return Err(std::io::Error::new(
                ErrorKind::InvalidInput,
                "--replicate-from requires --snapshot-path (a bootstrap snapshot must be \
                 persisted locally, or a follower restart would replay only the WAL tail \
                 and silently lose everything the bootstrap covered)",
            ));
        }
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let state = ShardSet::new(config.engine);
        let srv_registry = Registry::new();
        let repl_lag = srv_registry.gauge(
            "ausdb_replication_lag_records",
            "WAL records this follower is behind its primary (0 on a primary)",
            &[],
        );
        let journal_dropped = srv_registry.counter(
            "ausdb_journal_dropped_total",
            "Journal ring entries overwritten before being drained",
            &[],
        );
        let fanout_delay = srv_registry.histogram(
            "ausdb_fanout_delay_seconds",
            "Subscriber fan-out delay: oldest queued block's enqueue to the end of its socket write",
            &log_linear_bounds(-6, 1),
            &[],
        );
        // A primary is ready as soon as recovery completes (below); a
        // follower stays unready until its replication thread has fully
        // applied the first reply from the primary (snapshot bootstrap
        // included), so load balancers never route reads to a replica
        // that is still empty.
        let ready = Arc::new(AtomicBool::new(false));
        let health = HealthRegistry::new();
        health.register("process", ProbeKind::Liveness, || Ok("serving".to_string()));
        let probe_ready = Arc::clone(&ready);
        health.register("bootstrap", ProbeKind::Readiness, move || {
            if probe_ready.load(Ordering::SeqCst) {
                Ok("bootstrapped".to_string())
            } else {
                Err("bootstrapping (no replication reply applied yet)".to_string())
            }
        });
        let mut restored_streams = 0;
        let mut watermark = 0u64;
        if let Some(path) = &config.snapshot_path {
            clean_stale_temps(path);
            match read_snapshot(path) {
                Ok(snap) => {
                    watermark = snap.wal_seq;
                    restored_streams = state
                        .restore(snap)
                        .map_err(|e| std::io::Error::new(ErrorKind::InvalidData, e))?;
                }
                Err(e) if e.kind() == ErrorKind::NotFound => {}
                Err(e) => return Err(e),
            }
        }
        let mut replayed_records = 0usize;
        if let Some(dir) = &config.wal_dir {
            std::fs::create_dir_all(dir)?;
            let mut options = WalOptions::new();
            options.telemetry = Some(WalTelemetry::new(&srv_registry));
            let mut wal = Wal::open(dir, options)?;
            // Recovery is snapshot + replay of records past its watermark,
            // which only reconstructs state when the log actually extends
            // the snapshot. A log that is *behind* the watermark (follower
            // crashed between persisting a bootstrap snapshot and resetting
            // its WAL) or *gapped* past it (records between the watermark
            // and the oldest on disk are missing) cannot.
            let first = wal.first_available_seq();
            let behind = wal.last_seq() < watermark;
            let gapped = first > watermark + 1 && wal.last_seq() > watermark;
            if behind || gapped {
                if config.replicate_from.is_some() {
                    // A follower re-fetches everything past the watermark
                    // from its primary anyway: drop the useless tail so
                    // replication resumes exactly at the snapshot.
                    journal::global().record(Level::Warn, "wal", || {
                        format!(
                            "local WAL (seqs {first}..={}) cannot extend the snapshot \
                             watermark {watermark}; resetting it and re-syncing from the primary",
                            wal.last_seq()
                        )
                    });
                    wal.reset_to(watermark)?;
                } else if gapped {
                    journal::global().record(Level::Warn, "wal", || {
                        format!(
                            "WAL records {}..{first} past the snapshot watermark are missing \
                             (truncated by a snapshot this file predates?); recovered state \
                             may be incomplete",
                            watermark + 1
                        )
                    });
                }
            }
            // Replay everything past the snapshot watermark, in chunks so
            // a long log never materializes in memory at once. Apply
            // errors are warned and skipped: the record was accepted by a
            // previous run, and an uninterrupted server would also have
            // carried on past a failed batch.
            let mut from = watermark;
            loop {
                let records = wal.read_from(from, 4096)?;
                if records.is_empty() {
                    break;
                }
                for rec in &records {
                    from = rec.seq;
                    let rows: Vec<RawObservation> =
                        rec.rows.iter().map(|&(k, t, v)| RawObservation::new(k, t, v)).collect();
                    if let Err(e) = state.apply_replayed(&rec.stream, &rows) {
                        journal::global().record(Level::Warn, "wal", || {
                            format!("replay of record {} skipped: {e}", rec.seq)
                        });
                    } else {
                        replayed_records += 1;
                    }
                }
            }
            state.attach_wal(wal);
        }
        let http_listener = match &config.http_addr {
            Some(spec) => Some(TcpListener::bind(spec)?),
            None => None,
        };
        let http_addr = match &http_listener {
            Some(l) => Some(l.local_addr()?),
            None => None,
        };
        if config.replicate_from.is_none() {
            ready.store(true, Ordering::SeqCst);
        }
        let history = state.history();
        let shared = Arc::new(Shared {
            state,
            shutdown: AtomicBool::new(false),
            crashed: AtomicBool::new(false),
            follower: AtomicBool::new(config.replicate_from.is_some()),
            primary_addr: config.replicate_from.clone(),
            snapshot_path: config.snapshot_path,
            tick: config.tick,
            addr,
            http_addr,
            srv_registry,
            repl_lag,
            started: Instant::now(),
            ready,
            health,
            journal_dropped,
            fanout_delay,
            history,
        });
        let sample_ms =
            config.history_sample_ms.unwrap_or_else(ausdb_obs::knobs::history_sample_ms);
        if sample_ms > 0 {
            let sampler_shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("ausdb-sampler".to_string())
                .spawn(move || sampler_loop(sampler_shared, sample_ms))?;
        }
        if let Some(primary) = config.replicate_from {
            let repl_shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("ausdb-repl".to_string())
                .spawn(move || follower_loop(repl_shared, primary))?;
        }
        if let Some(listener) = http_listener {
            let http_shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("ausdb-http".to_string())
                .spawn(move || http_loop(listener, http_shared))?;
        }
        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::Builder::new()
            .name("ausdb-accept".to_string())
            .spawn(move || accept_loop(listener, accept_shared))?;
        Ok(ServerHandle { shared, accept: Some(accept), restored_streams, replayed_records })
    }
}

/// A running server. Dropping the handle without calling
/// [`ServerHandle::join`] shuts the server down and joins it.
pub struct ServerHandle {
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    restored_streams: usize,
    replayed_records: usize,
}

impl ServerHandle {
    /// The actually bound address (resolves `:0`).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// The bound HTTP metrics address, if the listener was configured.
    pub fn http_addr(&self) -> Option<SocketAddr> {
        self.shared.http_addr
    }

    /// Streams restored from the snapshot at startup.
    pub fn restored_streams(&self) -> usize {
        self.restored_streams
    }

    /// WAL records replayed past the snapshot watermark at startup.
    pub fn replayed_records(&self) -> usize {
        self.replayed_records
    }

    /// Whether this server is currently a read-only follower.
    pub fn is_follower(&self) -> bool {
        self.shared.follower.load(Ordering::SeqCst)
    }

    /// Whether the accept thread has exited.
    pub fn is_finished(&self) -> bool {
        self.accept.as_ref().is_none_or(JoinHandle::is_finished)
    }

    /// The current `METRICS` exposition — what a `METRICS` request would
    /// return, minus the `END` terminator. Used by `ausdb serve --metrics`
    /// to dump final metrics on shutdown.
    pub fn metrics_text(&self) -> String {
        metrics_body(&self.shared)
    }

    /// The consolidated history dump — what `HISTORY EXPORT` and a
    /// series-less `GET /history` return. Used by
    /// `ausdb serve --history-export` to persist the accuracy trajectory
    /// on shutdown.
    pub fn history_json(&self) -> String {
        self.shared.history.export_json()
    }

    /// Requests shutdown: sets the flag and wakes the blocking acceptor.
    pub fn shutdown(&self) {
        request_shutdown(&self.shared);
    }

    /// Simulates `kill -9`: stops every thread **without** the final
    /// snapshot or the WAL flush/truncate a graceful shutdown performs.
    /// WAL bytes already handed to the OS survive (as they would a real
    /// process kill); bytes still unsynced under `AUSDB_FSYNC=never`
    /// semantics are the crash-loss window under test.
    pub fn kill(mut self) {
        self.shared.crashed.store(true, Ordering::SeqCst);
        request_shutdown(&self.shared);
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
    }

    /// Blocks until the accept thread (and therefore every connection
    /// thread) has exited and the final snapshot is written.
    pub fn join(mut self) {
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
    }

    /// [`ServerHandle::shutdown`] then [`ServerHandle::join`].
    pub fn stop(self) {
        self.shutdown();
        self.join();
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if let Some(handle) = self.accept.take() {
            request_shutdown(&self.shared);
            let _ = handle.join();
        }
    }
}

fn request_shutdown(shared: &Shared) {
    if !shared.shutdown.swap(true, Ordering::SeqCst) {
        // Wake the acceptors out of their blocking accept().
        let _ = TcpStream::connect(shared.addr);
        if let Some(http) = shared.http_addr {
            let _ = TcpStream::connect(http);
        }
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    let mut connections: Vec<JoinHandle<()>> = Vec::new();
    for incoming in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        match incoming {
            Ok(stream) => {
                let conn_shared = Arc::clone(&shared);
                match std::thread::Builder::new()
                    .name("ausdb-conn".to_string())
                    .spawn(move || handle_connection(stream, conn_shared))
                {
                    Ok(handle) => connections.push(handle),
                    Err(_) => continue, // spawn failure: drop the connection
                }
                // Reap finished connection threads so the vec stays small.
                let (done, live): (Vec<_>, Vec<_>) =
                    connections.drain(..).partition(JoinHandle::is_finished);
                for handle in done {
                    let _ = handle.join();
                }
                connections = live;
            }
            Err(_) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    break;
                }
            }
        }
    }
    // Graceful drain: every connection sees the flag within one tick.
    for handle in connections {
        let _ = handle.join();
    }
    if shared.crashed.load(Ordering::SeqCst) {
        return; // simulated kill -9: no final snapshot, no WAL flush
    }
    if let Some(path) = &shared.snapshot_path {
        let snapshot = shared.state.snapshot_with_wal_seq();
        let wal_seq = snapshot.wal_seq;
        if write_snapshot(path, &snapshot).is_ok() {
            if let Some(wal) = shared.state.wal() {
                let mut wal = lock_wal(wal);
                let _ = wal.flush();
                let _ = wal.truncate_through(wal_seq);
            }
        }
    } else if let Some(wal) = shared.state.wal() {
        let _ = lock_wal(wal).flush();
    }
}

/// The protocol lines one request produced — one body, each line
/// terminated by `\n`, written to the socket as is — plus whether to
/// close after.
struct Reply {
    body: String,
    close: bool,
}

impl Reply {
    fn one(line: impl Into<String>) -> Self {
        let mut body = line.into();
        body.push('\n');
        Self { body, close: false }
    }
    fn lines(lines: impl IntoIterator<Item = impl AsRef<str>>) -> Self {
        let mut body = String::new();
        for line in lines {
            body.push_str(line.as_ref());
            body.push('\n');
        }
        Self { body, close: false }
    }
    fn err(msg: impl std::fmt::Display) -> Self {
        Self::one(format!("ERR {msg}"))
    }
}

/// What the connection loop expects next from the byte stream.
enum ReadMode {
    /// Newline-delimited request lines.
    Lines,
    /// `want` bytes of binary `INGESTB` frame for `stream`.
    Frame {
        /// Target stream from the announcement line.
        stream: String,
        /// Frame size announced, in bytes.
        want: usize,
    },
}

/// How long one whole write (a reply, a fan-out flush, an HTTP response)
/// may take to reach its peer; a peer that has not taken it by then is
/// stalled, and its connection ends.
const WRITE_DEADLINE: Duration = Duration::from_secs(5);

/// A writer whose per-call timeout can be set: a socket, or a fake in
/// tests.
trait TimedWrite: Write {
    fn set_call_timeout(&mut self, timeout: Duration) -> std::io::Result<()>;
}

impl TimedWrite for TcpStream {
    fn set_call_timeout(&mut self, timeout: Duration) -> std::io::Result<()> {
        self.set_write_timeout(Some(timeout))
    }
}

/// Writes all of `buf` within `deadline` in total. A socket timeout bounds
/// one `write` call, and a peer that takes a few bytes per call restarts
/// it every time, so each call's timeout is lowered to what remains.
fn write_within(
    w: &mut impl TimedWrite,
    mut buf: &[u8],
    deadline: Duration,
) -> std::io::Result<()> {
    let end = Instant::now() + deadline;
    while !buf.is_empty() {
        let left = end.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(ErrorKind::TimedOut.into());
        }
        w.set_call_timeout(left)?;
        match w.write(buf) {
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(n) => buf = &buf[n..],
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// What the two threads of a connection share. Lock order: `out`, then a
/// subscriber queue, then `wake` — an ingesting thread holds only the
/// last two, and never while it waits for the first.
struct Conn {
    /// The per-connection write lock.
    out: Mutex<ConnOut>,
    /// Signalled by every push into a queue on `out`'s subscription list.
    wake: Arc<Wakeup>,
}

/// Everything a thread needs the write lock for: the socket's write half
/// and the list of queues drained into it. Replies and `EVENT` blocks are
/// written whole under one hold of the lock, so they never interleave.
struct ConnOut {
    stream: TcpStream,
    subscriptions: Vec<(u64, Arc<SubscriberQueue>)>,
    /// The connection is over (`BYE` written, peer gone, or a write
    /// failed): the writer thread sends nothing more.
    closed: bool,
}

impl ConnOut {
    /// Writes `bytes` whole within [`WRITE_DEADLINE`].
    fn write(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        write_within(&mut self.stream, bytes, WRITE_DEADLINE)
    }

    /// Drains every subscription's queue (with any `DROPPED` notice) into
    /// `buf`; returns when the oldest drained block was enqueued.
    fn drain_into(&self, buf: &mut String) -> Option<Instant> {
        let stamps = self.subscriptions.iter().map(|(_, queue)| queue.drain_stamped(buf).1);
        stamps.flatten().min()
    }
}

impl Conn {
    fn lock(&self) -> MutexGuard<'_, ConnOut> {
        self.out.lock().expect("connection write lock poisoned")
    }

    /// Writes one whole reply.
    fn send(&self, reply: &str) -> std::io::Result<()> {
        self.lock().write(reply.as_bytes())
    }
}

/// One client connection, on its own thread: requests in, replies out.
/// Subscriber events go out on a second thread ([`fanout_loop`]), started
/// by the connection's first `SUBSCRIBE` and joined here.
fn handle_connection(mut stream: TcpStream, shared: Arc<Shared>) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(shared.tick));
    let Ok(write_half) = stream.try_clone() else { return };
    let conn = Arc::new(Conn {
        out: Mutex::new(ConnOut { stream: write_half, subscriptions: Vec::new(), closed: false }),
        wake: Arc::new(Wakeup::default()),
    });
    let mut writer = None;
    if conn.send("OK ausdb-serve 1 ready\n").is_ok() {
        serve_requests(&mut stream, &shared, &conn, &mut writer);
    }
    conn.lock().closed = true;
    if let Some(writer) = writer {
        conn.wake.notify();
        let _ = writer.join();
    }
    let subscriptions = std::mem::take(&mut conn.lock().subscriptions);
    for (id, _) in subscriptions {
        shared.state.unsubscribe(id);
    }
}

/// The request loop: reads with the `tick` timeout (to notice shutdown)
/// and serves what arrived, until the peer leaves, a write fails, a
/// request closes the connection, or the server shuts down.
fn serve_requests(
    stream: &mut TcpStream,
    shared: &Arc<Shared>,
    conn: &Arc<Conn>,
    writer: &mut Option<JoinHandle<()>>,
) {
    let mut pending: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 64 * 1024];
    let mut mode = ReadMode::Lines;
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            // Every queued block, `BYE`, and the `closed` mark under one
            // hold of the write lock: the writer thread sends nothing after.
            let mut out = conn.lock();
            let mut bye = String::new();
            out.drain_into(&mut bye);
            bye.push_str("BYE server shutting down\n");
            let _ = out.write(bye.as_bytes());
            out.closed = true;
            return;
        }
        match stream.read(&mut chunk) {
            Ok(0) => return,
            Ok(n) => {
                pending.extend_from_slice(&chunk[..n]);
                let Some(consumed) = serve_pending(&pending, &mut mode, shared, conn, writer)
                else {
                    return;
                };
                pending.drain(..consumed);
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {}
            Err(_) => return,
        }
    }
}

/// Serves every complete request in `pending` and returns how many bytes
/// that consumed, or `None` when the connection is over. Walks the buffer
/// with a cursor and decodes a frame where it lies: the caller compacts
/// once per `read`, not once per pipelined line.
fn serve_pending(
    pending: &[u8],
    mode: &mut ReadMode,
    shared: &Arc<Shared>,
    conn: &Arc<Conn>,
    writer: &mut Option<JoinHandle<()>>,
) -> Option<usize> {
    let mut at = 0;
    loop {
        let rest = &pending[at..];
        match mode {
            ReadMode::Lines => {
                let Some(len) = rest.iter().position(|&b| b == b'\n') else {
                    if rest.len() > MAX_LINE_BYTES {
                        let _ = conn.send("ERR request line too long\n");
                        return None;
                    }
                    return Some(at);
                };
                at += len + 1;
                let line = String::from_utf8_lossy(&rest[..len]);
                let line = line.trim_end_matches('\r');
                if line.trim().is_empty() {
                    continue;
                }
                let request = match parse_request(line) {
                    Ok(r) => r,
                    Err(e) => {
                        conn.send(&format!("ERR {e}\n")).ok()?;
                        continue;
                    }
                };
                match request {
                    Request::IngestBatch { stream, nbytes } => {
                        if nbytes > MAX_FRAME_BYTES {
                            // The announced frame cannot be valid and
                            // skipping it wholesale is the only way to
                            // resync — refuse and close.
                            let _ = conn.send(&format!(
                                "ERR frame of {nbytes} bytes exceeds the \
                                 {MAX_FRAME_BYTES}-byte limit\n"
                            ));
                            return None;
                        }
                        *mode = ReadMode::Frame { stream, want: nbytes };
                    }
                    Request::Replicate(from_seq) => {
                        // The reply mixes lines and binary payloads, so
                        // it bypasses `Reply`.
                        match build_repl_reply(shared, from_seq) {
                            Ok(reply) => {
                                let mut bytes = Vec::new();
                                repl::write_reply(&mut bytes, &reply).ok()?;
                                conn.lock().write(&bytes).ok()?;
                            }
                            Err(e) => conn.send(&format!("ERR {e}\n")).ok()?,
                        }
                    }
                    Request::Subscribe(sql) => subscribe(&sql, shared, conn, writer).ok()?,
                    other => {
                        let reply = handle_request(other, shared, conn);
                        conn.send(&reply.body).ok()?;
                        if reply.close {
                            return None;
                        }
                    }
                }
            }
            ReadMode::Frame { want, .. } if rest.len() < *want => return Some(at),
            ReadMode::Frame { stream, want } => {
                let reply = ingest_frame(shared, stream, &rest[..*want]);
                at += *want;
                *mode = ReadMode::Lines;
                conn.send(&reply).ok()?;
            }
        }
    }
}

/// Applies one complete `INGESTB` frame to `target`; returns the reply
/// line. The payload is consumed whatever the outcome, so the byte stream
/// stays in sync after an `ERR`.
fn ingest_frame(shared: &Shared, target: &str, frame: &[u8]) -> String {
    match decode_ingest_frame(frame) {
        Ok(_) if shared.follower.load(Ordering::SeqCst) => follower_rejection(shared) + "\n",
        Ok(rows) => {
            let rows: Vec<RawObservation> = rows
                .into_iter()
                .map(|(key, ts, value)| RawObservation::new(key, ts, value))
                .collect();
            match shared.state.ingest_batch(target, &rows) {
                Ok(out) => format!(
                    "OK INGESTED {target} rows={} late={} windows_emitted={}\n",
                    out.accepted, out.late, out.windows_emitted
                ),
                Err(e) => format!("ERR ingest: {e}\n"),
            }
        }
        Err(e) => format!("ERR frame: {e}\n"),
    }
}

/// `SUBSCRIBE`: registers the standing query, starts the connection's
/// writer thread if this is its first subscription, and hands the queue
/// over to it.
fn subscribe(
    sql: &str,
    shared: &Arc<Shared>,
    conn: &Arc<Conn>,
    writer: &mut Option<JoinHandle<()>>,
) -> std::io::Result<()> {
    let (id, stream, queue) = match shared.state.subscribe(sql) {
        Ok(subscription) => subscription,
        Err(e) => return conn.send(&format!("ERR subscribe: {e}\n")),
    };
    if writer.is_none() {
        let (writer_conn, writer_shared) = (Arc::clone(conn), Arc::clone(shared));
        match std::thread::Builder::new()
            .name("ausdb-fanout".to_string())
            .spawn(move || fanout_loop(&writer_conn, &writer_shared))
        {
            Ok(handle) => *writer = Some(handle),
            Err(e) => {
                shared.state.unsubscribe(id);
                return conn.send(&format!("ERR subscribe: no fan-out thread: {e}\n"));
            }
        }
    }
    queue.attach_wakeup(Arc::clone(&conn.wake));
    {
        // On the list and acknowledged under one hold of the write lock:
        // the writer thread cannot send an `EVENT` of `id` before the `OK`.
        let mut out = conn.lock();
        out.subscriptions.push((id, queue));
        out.write(format!("OK SUBSCRIBED {id} {stream}\n").as_bytes())?;
    }
    // A window closed between `subscribe` and `attach_wakeup` signalled
    // nobody; its block is on the list now.
    conn.wake.notify();
    Ok(())
}

/// A subscribing connection's writer thread: sleeps on the connection's
/// wake-up, then drains every queue into one buffer and writes it with one
/// syscall. Blocks that pile up during a write go out with the next one,
/// so a flood batches while a paced stream is delivered as it is rendered.
fn fanout_loop(conn: &Conn, shared: &Shared) {
    let mut buf = String::new();
    loop {
        conn.wake.wait();
        let mut out = conn.lock();
        if out.closed {
            return;
        }
        buf.clear();
        let oldest = out.drain_into(&mut buf);
        if buf.is_empty() {
            continue;
        }
        if out.write(buf.as_bytes()).is_err() {
            // The peer left, or stalled past the write deadline with part
            // of a block on the wire. End the connection for the request loop
            // too, which releases the subscriptions.
            out.closed = true;
            let _ = out.stream.shutdown(Shutdown::Both);
            return;
        }
        drop(out);
        if let Some(enqueued) = oldest {
            shared.fanout_delay.observe_duration(enqueued.elapsed());
        }
    }
}

fn handle_request(request: Request, shared: &Shared, conn: &Conn) -> Reply {
    match request {
        Request::Ping => Reply::one("OK PONG"),
        Request::IngestBatch { .. } => {
            unreachable!("INGESTB switches the connection into frame mode before dispatch")
        }
        Request::Replicate(_) => {
            unreachable!("REPLICATE writes a binary reply in the connection loop")
        }
        Request::Subscribe(_) => {
            unreachable!("SUBSCRIBE hands its queue to the writer thread in the connection loop")
        }
        Request::Ingest { .. } | Request::Restore if shared.follower.load(Ordering::SeqCst) => {
            Reply::one(follower_rejection(shared))
        }
        Request::Ingest { stream, row } => match shared.state.ingest(&stream, &row) {
            Ok(outcome) => Reply::one(format!(
                "OK INGESTED {stream} windows_emitted={}",
                outcome.windows_emitted
            )),
            Err(e) => Reply::err(format!("ingest: {e}")),
        },
        Request::Query(sql) => match shared.state.query(&sql) {
            Ok(QueryReply::Rows(schema, tuples)) => {
                let mut body = String::new();
                render_schema_into(&mut body, &schema);
                body.push('\n');
                render_rows_into(&mut body, &tuples);
                body.push_str("END ");
                push_u64(&mut body, tuples.len() as u64);
                body.push('\n');
                Reply { body, close: false }
            }
            Ok(QueryReply::Plan(plan)) => {
                let n = plan.len();
                let mut lines: Vec<String> =
                    plan.into_iter().map(|l| format!("PLAN {l}")).collect();
                lines.push(format!("END {n}"));
                Reply::lines(lines)
            }
            Err(e) => Reply::err(format!("query: {e}")),
        },
        Request::Unsubscribe(id) => {
            // Off the list under the write lock: what the writer thread
            // sent of `id` is on the wire by now, and nothing of it can
            // follow the reply.
            let owned = {
                let mut out = conn.lock();
                let pos = out.subscriptions.iter().position(|(owned, _)| *owned == id);
                pos.map(|pos| out.subscriptions.remove(pos))
            };
            if owned.is_some() {
                shared.state.unsubscribe(id);
                Reply::one(format!("OK UNSUBSCRIBED {id}"))
            } else {
                Reply::err(format!("subscription {id} is not owned by this connection"))
            }
        }
        Request::Stats => {
            let mut lines = shared.state.stats_lines();
            lines.push("END".to_string());
            Reply::lines(lines)
        }
        Request::Metrics => Reply::lines(metrics_body(shared).lines().chain(["END"])),
        Request::WalStat => Reply::one(walstat_line(shared)),
        Request::Health => Reply::lines(health_lines(shared)),
        Request::SloSet { id, width } => match shared.state.set_slo(id, width) {
            Ok(()) => Reply::one(format!("OK SLO {id} target={width}")),
            Err(e) => Reply::err(format!("slo: {e}")),
        },
        Request::SloList => {
            let mut lines = shared.state.slo_lines();
            lines.push(format!("END {}", lines.len()));
            Reply::lines(lines)
        }
        Request::Promote => {
            // A promoted follower serves as primary from here on, so it
            // is ready by definition even if it never finished bootstrap.
            shared.ready.store(true, Ordering::SeqCst);
            if shared.follower.swap(false, Ordering::SeqCst) {
                shared.repl_lag.set(0.0);
                Reply::one("OK PROMOTED primary (replication stopped, writes accepted)")
            } else {
                Reply::one("OK PROMOTED (was already primary)")
            }
        }
        Request::Trace(n) => {
            let entries = ausdb_obs::journal::global().last(n);
            let mut lines =
                vec![format!("TRACE dropped={}", ausdb_obs::journal::global().dropped())];
            lines.extend(entries.iter().map(render_trace_entry));
            lines.push(format!("END {}", entries.len()));
            Reply::lines(lines)
        }
        Request::TraceExport => {
            let traces = ausdb_obs::span::ring().snapshot();
            let json = ausdb_obs::span::chrome_trace_json(&traces);
            let end = format!("END {}", traces.len());
            Reply::lines(json.lines().chain([end.as_str()]))
        }
        Request::History { series: None, .. } => {
            let infos = shared.history.list();
            let mut lines: Vec<String> = infos
                .iter()
                .map(|s| format!("SERIES {} kind={} points={}", s.name, s.kind, s.points))
                .collect();
            lines.push(format!("END {}", infos.len()));
            Reply::lines(lines)
        }
        Request::History { series: Some(name), last, step } => {
            match shared.history.query(&name, last, step) {
                Ok(slice) => {
                    let mut lines = vec![format!(
                        "SERIES {} kind={} step={} points={}",
                        slice.name,
                        slice.kind,
                        slice.step,
                        slice.points.len()
                    )];
                    lines.extend(slice.points.iter().map(|p| format!("POINT {}", p.render_kv())));
                    lines.push(format!("END {}", slice.points.len()));
                    Reply::lines(lines)
                }
                Err(e) => Reply::err(format!("history: {e}")),
            }
        }
        Request::HistoryExport => Reply::lines(shared.history.export_json().lines().chain(["END"])),
        Request::Help => Reply::lines(help_lines().chain(["END"])),
        Request::Snapshot => match &shared.snapshot_path {
            None => Reply::err("no snapshot path configured (start with --snapshot-path)"),
            Some(path) => {
                let snapshot = shared.state.snapshot_with_wal_seq();
                let wal_seq = snapshot.wal_seq;
                match write_snapshot(path, &snapshot) {
                    Ok(bytes) => {
                        // The snapshot is durable, so every WAL record it
                        // covers is obsolete — reclaim those segments.
                        if let Some(wal) = shared.state.wal() {
                            let mut wal = lock_wal(wal);
                            let _ = wal.flush();
                            let _ = wal.truncate_through(wal_seq);
                        }
                        Reply::one(format!("OK SNAPSHOT {} {bytes} bytes", path.display()))
                    }
                    Err(e) => Reply::err(format!("snapshot: {e}")),
                }
            }
        },
        Request::Restore => match &shared.snapshot_path {
            None => Reply::err("no snapshot path configured (start with --snapshot-path)"),
            Some(path) => match read_snapshot(path) {
                Ok(snap) => match shared.state.restore(snap) {
                    Ok(n) => Reply::one(format!("OK RESTORED {n} streams")),
                    Err(e) => Reply::err(format!("restore: {e}")),
                },
                Err(e) => Reply::err(format!("restore: {e}")),
            },
        },
        Request::Shutdown => {
            request_shutdown(shared);
            Reply { close: true, ..Reply::one("OK shutting down") }
        }
    }
}

/// The `ERR` line a read-only follower answers every write with.
fn follower_rejection(shared: &Shared) -> String {
    let primary = shared.primary_addr.as_deref().unwrap_or("?");
    format!("ERR read-only follower (replicating from {primary}; PROMOTE to accept writes)")
}

/// The one-line `WALSTAT` status reply.
fn walstat_line(shared: &Shared) -> String {
    let role = if shared.follower.load(Ordering::SeqCst) { "follower" } else { "primary" };
    match shared.state.wal() {
        None => format!("OK WALSTAT role={role} wal=off"),
        Some(wal) => {
            let wal = lock_wal(wal);
            let stats = wal.stats();
            format!(
                "OK WALSTAT role={role} wal=on policy={} segments={} bytes={} unsynced={} \
                 first_seq={} last_seq={} fsyncs={} lag={}",
                wal.policy().as_str(),
                stats.segments,
                stats.bytes,
                stats.unsynced,
                stats.first_seq,
                stats.last_seq,
                stats.fsyncs,
                shared.repl_lag.get() as u64,
            )
        }
    }
}

/// The multi-line `HEALTH` reply: a summary line (role, readiness,
/// uptime, WAL/replication/backlog state, accuracy-SLO target and
/// violation totals), one `STREAM` line per stream with its event-time
/// watermark, ingest age, and open-window buffer, one `SLO` line per
/// registered accuracy target (the `SLO LIST` shape), then
/// `END <streams>`. The reply deliberately does not start with `OK` —
/// it is a report, not an acknowledgement.
fn health_lines(shared: &Shared) -> Vec<String> {
    let role = if shared.follower.load(Ordering::SeqCst) { "follower" } else { "primary" };
    let ready = shared.ready.load(Ordering::SeqCst);
    let (wal, unsynced) = match shared.state.wal() {
        None => ("off", 0),
        Some(wal) => ("on", lock_wal(wal).stats().unsynced),
    };
    let streams = shared.state.stream_health();
    let (slo_targets, slo_violations) = shared.state.slo_summary();
    let mut lines = vec![format!(
        "HEALTH role={role} ready={ready} uptime_us={} wal={wal} unsynced={unsynced} \
         repl_lag={} backlog_highwater={} streams={} subscribers={} \
         slo_targets={slo_targets} slo_violations={slo_violations}",
        shared.started.elapsed().as_micros(),
        shared.repl_lag.get() as u64,
        shared.state.backlog_highwater(),
        streams.len(),
        shared.state.subscriber_count(),
    )];
    let count = streams.len();
    for sh in streams {
        let watermark = sh.watermark.map_or_else(|| "-".to_string(), |w| w.to_string());
        let age = sh.age_us.map_or_else(|| "-".to_string(), |a| a.to_string());
        lines.push(format!(
            "STREAM {} watermark={watermark} age_us={age} buffered={}",
            sh.name, sh.buffered
        ));
    }
    lines.extend(shared.state.slo_lines());
    lines.push(format!("END {count}"));
    lines
}

/// Syncs the journal's ring-eviction count into
/// `ausdb_journal_dropped_total` (the journal counts internally; the
/// metric catches up whenever something scrapes).
fn sync_journal_dropped(shared: &Shared) {
    let dropped = journal::global().dropped();
    let counted = shared.journal_dropped.get();
    if dropped > counted {
        shared.journal_dropped.add(dropped - counted);
    }
}

/// Renders the merged metrics exposition.
fn metrics_body(shared: &Shared) -> String {
    sync_journal_dropped(shared);
    shared.state.metrics_text_with(&[&shared.srv_registry])
}

/// Builds one `REPLICATE` catch-up chunk for a follower at `from_seq`:
/// a snapshot bootstrap when the records it needs are already truncated,
/// then up to [`repl::CHUNK_RECORDS`] raw WAL records.
fn build_repl_reply(shared: &Shared, from_seq: u64) -> Result<ReplReply, String> {
    let Some(wal) = shared.state.wal() else {
        return Err("replication requires a primary started with --wal-dir".to_string());
    };
    // The horizon check and the record read take the WAL lock separately —
    // a consistent snapshot must lock the stream coordinators *before*
    // the WAL, so the lock cannot be held across snapshot_with_wal_seq.
    // A concurrent SNAPSHOT can therefore truncate records in between;
    // re-verify the horizon under the read lock and retry with a fresh
    // bootstrap if it moved, rather than shipping a gapped chunk the
    // follower would reject (dropping and redialing the session).
    for _ in 0..4 {
        let first_available = lock_wal(wal).first_available_seq();
        let (snapshot, effective_from) = if from_seq + 1 < first_available {
            let snap = shared.state.snapshot_with_wal_seq();
            let wal_seq = snap.wal_seq;
            (Some((encode_snapshot(&snap), wal_seq)), wal_seq)
        } else {
            (None, from_seq)
        };
        let wal = lock_wal(wal);
        if effective_from + 1 < wal.first_available_seq() {
            continue; // truncated under us; next attempt bootstraps fresh
        }
        let records = wal
            .read_from(effective_from, repl::CHUNK_RECORDS)
            .map_err(|e| format!("wal read: {e}"))?;
        let primary_last = wal.last_seq();
        return Ok(ReplReply { snapshot, records, primary_last });
    }
    Err("REPLICATE kept racing concurrent snapshot truncations; retry".to_string())
}

/// The follower's replication thread: dial the primary, poll
/// `REPLICATE <local last seq>`, apply what comes back, repeat until
/// shutdown or promotion. Connection failures redial after one tick —
/// the primary being down just freezes the follower at its current
/// state, it never aborts.
fn follower_loop(shared: Arc<Shared>, primary: String) {
    while !shared.shutdown.load(Ordering::SeqCst) && shared.follower.load(Ordering::SeqCst) {
        if let Ok(stream) = TcpStream::connect(&primary) {
            if let Err(e) = follow(&shared, stream) {
                journal::global().record(Level::Warn, "repl", || {
                    format!("replication stream from {primary} dropped: {e}")
                });
            }
        }
        if shared.shutdown.load(Ordering::SeqCst) || !shared.follower.load(Ordering::SeqCst) {
            break;
        }
        std::thread::sleep(shared.tick);
    }
    shared.repl_lag.set(0.0);
}

/// One replication session over one connection; returns on any I/O or
/// decode error (the caller redials).
fn follow(shared: &Shared, stream: TcpStream) -> std::io::Result<()> {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let mut greeting = String::new();
    reader.read_line(&mut greeting)?; // "OK ausdb-serve 1 ready"
    let wal = shared.state.wal().expect("follower mode requires a WAL");
    loop {
        if shared.shutdown.load(Ordering::SeqCst) || !shared.follower.load(Ordering::SeqCst) {
            return Ok(());
        }
        let local_last = lock_wal(wal).last_seq();
        write_within(&mut writer, format!("REPLICATE {local_last}\n").as_bytes(), WRITE_DEADLINE)?;
        let reply = repl::read_reply(&mut reader)?;
        if let Some((bytes, wal_seq)) = &reply.snapshot {
            let snap = decode_snapshot(bytes)
                .map_err(|e| std::io::Error::new(ErrorKind::InvalidData, e.to_string()))?;
            // Persist the bootstrap BEFORE adopting it: local recovery is
            // snapshot + WAL tail, so once the WAL resets to the watermark
            // a restart without this snapshot on disk would replay only
            // the tail and silently lose everything the bootstrap covered
            // (while the high last_seq makes the primary believe the
            // follower is caught up). Ordering also covers a crash in
            // between: a persisted snapshot with a still-stale WAL is
            // detected at startup and the WAL reset then.
            let path =
                shared.snapshot_path.as_ref().expect("follower mode requires a snapshot path");
            write_snapshot(path, &snap)?;
            shared
                .state
                .restore(snap)
                .map_err(|e| std::io::Error::new(ErrorKind::InvalidData, e))?;
            lock_wal(wal).reset_to(*wal_seq)?;
        }
        for rec in &reply.records {
            shared
                .state
                .apply_replicated(rec)
                .map_err(|e| std::io::Error::new(ErrorKind::InvalidData, e))?;
        }
        let local_last = lock_wal(wal).last_seq();
        shared.repl_lag.set(reply.primary_last.saturating_sub(local_last) as f64);
        // One reply fully applied (snapshot bootstrap included): this
        // replica now serves a consistent — if possibly lagging — view,
        // so it is ready for read traffic.
        shared.ready.store(true, Ordering::SeqCst);
        if reply.caught_up() {
            std::thread::sleep(shared.tick);
        }
    }
}

// ---------------------------------------------------------------------
// Retention sampler.
// ---------------------------------------------------------------------

/// The background sampler: scrapes the merged metric registries into the
/// retention store once per cadence, advancing the store's tick counter
/// so bucket starts are proportional to wall time. Sleeps in short
/// slices so shutdown is seen within one server tick; a stall (suspend,
/// scheduler hiccup) advances the tick count by the elapsed cadences so
/// retained history never stretches time.
fn sampler_loop(shared: Arc<Shared>, sample_ms: u64) {
    let cadence = Duration::from_millis(sample_ms);
    let mut tick = 0u64;
    let mut next = Instant::now() + cadence;
    while !shared.shutdown.load(Ordering::SeqCst) {
        let now = Instant::now();
        if now < next {
            std::thread::sleep((next - now).min(shared.tick));
            continue;
        }
        while next <= now {
            next += cadence;
            tick += 1;
        }
        sync_journal_dropped(&shared);
        let samples = shared.state.collect_samples(&[&shared.srv_registry]);
        shared.history.record_samples(tick, &samples);
    }
}

// ---------------------------------------------------------------------
// HTTP endpoints.
// ---------------------------------------------------------------------

/// Longest accepted HTTP request head; a scrape is a one-line GET, so
/// anything bigger is either broken or hostile.
const MAX_HTTP_HEAD_BYTES: usize = 8 * 1024;

/// `Content-Type` for the Prometheus text exposition.
const METRICS_CONTENT_TYPE: &str = "text/plain; version=0.0.4; charset=utf-8";

/// The server's HTTP routes:
///
/// * `GET /metrics` — the same exposition body as the `METRICS` protocol
///   command (minus the `END` terminator), so Prometheus and the line
///   protocol can never disagree;
/// * `GET /healthz` — liveness probes as JSON (200 while serving);
/// * `GET /readyz` — every probe as JSON; 503 until a follower finishes
///   its replication bootstrap, 200 after (and always 200 on a primary);
/// * `GET /history` — the retention store: with `?series=` (plus
///   optional `last`/`step` durations) one series as JSON, without it
///   the consolidated `HISTORY EXPORT` dump.
fn http_router() -> Router<Shared> {
    Router::new()
        .get("/metrics", |shared, _| HttpResponse::ok(METRICS_CONTENT_TYPE, metrics_body(shared)))
        .get("/healthz", |shared, _| probe_response(shared.health.liveness()))
        .get("/readyz", |shared, _| probe_response(shared.health.readiness()))
        .get("/history", history_endpoint)
}

/// Renders a health probe report: 200 when healthy, 503 when not.
fn probe_response(report: ausdb_obs::HealthReport) -> HttpResponse {
    HttpResponse {
        status: if report.healthy { 200 } else { 503 },
        content_type: "application/json",
        body: report.to_json() + "\n",
    }
}

/// `GET /history[?series=…[&last=…][&step=…]]`: one series slice (the
/// same points the `HISTORY <series>` verb renders, as JSON) or, with no
/// `series` parameter, the consolidated export dump. Unknown series and
/// bad durations are 400s.
fn history_endpoint(shared: &Shared, req: &HttpRequest) -> HttpResponse {
    let Some(series) = req.param("series") else {
        return HttpResponse::ok("application/json", shared.history.export_json());
    };
    let mut durations = [None, None];
    for (slot, name) in durations.iter_mut().zip(["last", "step"]) {
        if let Some(raw) = req.param(name) {
            match ausdb_obs::series::parse_ticks(raw) {
                Some(n) => *slot = Some(n),
                None => {
                    return HttpResponse::bad_request(format!(
                        "bad {name} '{raw}' (try 90s, 5m, 2h)"
                    ));
                }
            }
        }
    }
    match shared.history.query(series, durations[0], durations[1]) {
        Ok(slice) => HttpResponse::ok("application/json", slice.render_json() + "\n"),
        Err(e) => HttpResponse::bad_request(e),
    }
}

/// Minimal std-only HTTP/1.1 responder over [`http_router`]. Every
/// response closes the connection — scrapers reconnect per scrape, which
/// keeps this loop single-threaded and unpollable state out of the
/// server.
fn http_loop(listener: TcpListener, shared: Arc<Shared>) {
    let router = http_router();
    for incoming in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(mut stream) = incoming else { continue };
        let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
        let Some(head) = read_http_head(&mut stream) else { continue };
        let response = router.handle(&shared, &head);
        let _ = write_within(&mut stream, response.render().as_bytes(), WRITE_DEADLINE);
    }
}

/// Reads until the blank line ending the request head, bounded by
/// [`MAX_HTTP_HEAD_BYTES`]. Returns `None` on EOF, timeout, or oversize.
fn read_http_head(stream: &mut TcpStream) -> Option<String> {
    let mut head = Vec::new();
    let mut chunk = [0u8; 1024];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => return None,
            Ok(n) => {
                head.extend_from_slice(&chunk[..n]);
                if head.windows(4).any(|w| w == b"\r\n\r\n")
                    || head.windows(2).any(|w| w == b"\n\n")
                {
                    return Some(String::from_utf8_lossy(&head).into_owned());
                }
                if head.len() > MAX_HTTP_HEAD_BYTES {
                    return None;
                }
            }
            Err(_) => return None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A peer that takes one byte per call and records the timeout each
    /// call was given. A stalled one first blocks for up to `step` — a
    /// send that frees a little buffer space now and then, so the kernel
    /// returns a partial count instead of timing out.
    struct Trickle {
        step: Option<Duration>,
        timeouts: Vec<Duration>,
        taken: usize,
    }

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if let (Some(step), Some(&timeout)) = (self.step, self.timeouts.last()) {
                std::thread::sleep(step.min(timeout));
            }
            self.taken += 1;
            Ok(buf.len().min(1))
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    impl TimedWrite for Trickle {
        fn set_call_timeout(&mut self, timeout: Duration) -> std::io::Result<()> {
            self.timeouts.push(timeout);
            Ok(())
        }
    }

    #[test]
    fn a_trickling_peer_cannot_stretch_a_write_past_its_deadline() {
        let deadline = Duration::from_millis(100);
        let step = Some(Duration::from_millis(20));
        let mut peer = Trickle { step, timeouts: Vec::new(), taken: 0 };
        let start = Instant::now();
        let err = write_within(&mut peer, &[b'x'; 64], deadline).unwrap_err();
        let took = start.elapsed();
        assert_eq!(err.kind(), ErrorKind::TimedOut);
        assert!(peer.taken >= 1 && peer.taken < 64, "took {} bytes", peer.taken);
        // Every call may wait only for what is left of the one deadline; a
        // per-call timeout would have allowed 64 × 100 ms.
        assert!(peer.timeouts.windows(2).all(|w| w[1] < w[0]), "{:?}", peer.timeouts);
        assert!(peer.timeouts[0] <= deadline);
        assert!(took < deadline * 2, "took {took:?} against a {deadline:?} deadline");
    }

    #[test]
    fn a_reading_peer_gets_every_byte() {
        let mut peer = Trickle { step: None, timeouts: Vec::new(), taken: 0 };
        write_within(&mut peer, b"OK PONG\n", WRITE_DEADLINE).unwrap();
        assert_eq!(peer.taken, 8);
    }
}
