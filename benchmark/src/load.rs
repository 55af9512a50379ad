//! The load generator: one writer (connection 1, the calling thread) and
//! at most one reader (connection 2, one spawned thread).
//!
//! A *segment* is a stretch of traffic with one pacing rule and one kind
//! of reader. Each workload is a main segment followed by short fill-in
//! segments, so that every end-to-end metric has samples on every
//! workload (see README.md, "Which segment feeds which metric").

use std::io::{self, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use ausdb_learn::learner::RawObservation;
use ausdb_serve::BatchClient;
use ausdb_stats::rng::substream;
use rand::RngExt;

use crate::input::{Input, KeyMix, STANDING, STREAM};

/// Rows per frame in closed-loop (flood) segments.
pub const FLOOD_FRAME: usize = 16384;
/// Rows per frame in open-loop (paced) segments.
pub const PACED_FRAME: usize = 1024;
/// On an open-loop segment a notice later than this counts as failed: forty
/// connection ticks of 25 ms. (250 ms was tried first; with the WAL on the
/// checkout's disk a segment seal or snapshot fsync now and then stalls
/// longer than that, and a workload must not fail operations at random.)
pub const LATENCY_LIMIT_MS: f64 = 1000.0;
/// A paced run is invalid when the generator itself (not the server) was
/// later than this on more than [`GEN_LATE_SHARE`] of its frames.
pub const GEN_LATE_LIMIT_MS: f64 = 100.0;
/// See [`GEN_LATE_LIMIT_MS`].
pub const GEN_LATE_SHARE: f64 = 0.01;
/// `SNAPSHOT` cadence on workloads that run with a WAL, to bound the log.
pub const SNAPSHOT_EVERY: Duration = Duration::from_secs(4);
/// The first windows a segment closes hold rows of whatever came before it;
/// the interval quality is taken from the events after these.
const CI_SKIP_EVENTS: usize = 4;
/// How long the reader keeps draining after the writer has finished.
const READER_GRACE: Duration = Duration::from_millis(1500);

/// How the writer spaces its frames.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pace {
    /// Closed loop: the next frame is sent when the previous one is acked.
    Flood,
    /// Open loop at this many rows/s on average, whatever the server does.
    Rate(f64),
    /// No frames at all: the writer waits the segment out.
    Idle,
}

impl Pace {
    /// Rows per frame under this pacing.
    pub fn frame_rows(self) -> usize {
        match self {
            Pace::Flood => FLOOD_FRAME,
            Pace::Rate(_) | Pace::Idle => PACED_FRAME,
        }
    }
}

/// What connection 2 does during a segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reader {
    /// Nothing; the connection stays idle.
    Idle,
    /// Subscribes the standing set and drains its events.
    Standing,
    /// Closed loop over the six queries.
    Queries,
}

/// One stretch of traffic.
#[derive(Debug, Clone, Copy)]
pub struct Segment {
    /// Key and event-time mix of the rows.
    pub mix: KeyMix,
    /// Closed or open loop.
    pub pace: Pace,
    /// What connection 2 does.
    pub reader: Reader,
    /// Untimed lead-in; its samples are dropped.
    pub warmup: Duration,
    /// Timed part.
    pub timed: Duration,
    /// Issue `SNAPSHOT` on connection 1 at this cadence.
    pub snapshot_every: Option<Duration>,
    /// Take one `STATS` reply on connection 1 once exactly this many rows
    /// of the segment are acked (or at the segment's end, if it is shorter).
    pub stats_at_rows: Option<u64>,
}

/// One frame as the writer saw it; times are seconds since the segment began.
#[derive(Debug, Clone, Copy)]
pub struct FrameRec {
    /// When the frame was due (open loop) or sent (closed loop).
    pub due: f64,
    /// When its ack line arrived.
    pub acked: f64,
    /// Windows the ack said closed while applying the frame.
    pub windows: u64,
}

/// What the writer measured over one segment.
#[derive(Debug, Default)]
pub struct WriterOut {
    /// Every frame, warm-up included, in send order.
    pub frames: Vec<FrameRec>,
    /// Rows acked.
    pub rows: u64,
    /// Operations attempted (frames, snapshots, the `STATS` request).
    pub attempted: u64,
    /// Operations that errored, were refused, or acked a wrong row count.
    pub failed: u64,
    /// Per frame: how long after it could have sent did the generator send.
    pub gen_late_ms: Vec<f64>,
    /// `(rows acked when taken, reply lines)` of the mid-segment `STATS`.
    pub stats: Option<(u64, Vec<String>)>,
}

/// Sends `verb` on connection 1 and returns the reply's lines up to (not
/// including) its `END…` line.
pub fn request_block(client: &mut BatchClient, verb: &str) -> io::Result<Vec<String>> {
    let mut lines = Vec::new();
    let mut line = client.request_line(verb)?;
    while !line.starts_with("END") {
        if line.starts_with("ERR") {
            return Err(io::Error::other(line));
        }
        lines.push(line);
        line = client.read_line()?;
    }
    Ok(lines)
}

/// Runs the writer side of `seg` on the calling thread, starting at stream
/// position `*pos`. `origin` is the segment's time zero, shared with the
/// reader.
pub fn run_writer(
    client: &mut BatchClient,
    input: &Input,
    pos: &mut u64,
    seg: &Segment,
    origin: Instant,
) -> io::Result<WriterOut> {
    let frame_rows = seg.pace.frame_rows();
    let total = seg.warmup + seg.timed;
    let planned_frames = match seg.pace {
        Pace::Flood => u64::MAX,
        Pace::Rate(rate) => (total.as_secs_f64() * rate / frame_rows as f64).ceil() as u64,
        Pace::Idle => 0,
    };
    let mut out = WriterOut::default();
    let mut rows: Vec<RawObservation> = Vec::with_capacity(frame_rows);
    let mut next_snapshot = seg.snapshot_every;
    let mut prev_ack = 0.0f64;
    let mut frame = 0u64;
    // Open loop means independent senders: frames arrive as a Poisson
    // process (exponential gaps, mean `frame_rows / rate`), a schedule fixed
    // by the seed and the stream position. Evenly spaced frames would close
    // windows in lock-step with the server's 25 ms connection tick, and the
    // notice latency would depend on the phase between the two.
    let mut gaps = substream(input.seed, 0x6A95 ^ *pos);
    let mut next_due = 0.0f64;
    while frame < planned_frames {
        input.fill(seg.mix, *pos, frame_rows, &mut rows);
        let due = match seg.pace {
            Pace::Flood => {
                if origin.elapsed() >= total {
                    break;
                }
                origin.elapsed().as_secs_f64()
            }
            Pace::Idle => unreachable!("an idle segment plans no frames"),
            Pace::Rate(rate) => {
                let due = next_due;
                let u: f64 = gaps.random();
                next_due += -(1.0 - u).ln() * frame_rows as f64 / rate;
                let now = origin.elapsed().as_secs_f64();
                if now < due {
                    std::thread::sleep(Duration::from_secs_f64(due - now));
                }
                due
            }
        };
        let sent = origin.elapsed().as_secs_f64();
        out.gen_late_ms.push((sent - due.max(prev_ack)) * 1e3);
        out.attempted += 1;
        match client.ingest_batch(STREAM, &rows) {
            Ok(ack) => {
                let acked = origin.elapsed().as_secs_f64();
                prev_ack = acked;
                if ack.accepted != frame_rows as u64 {
                    out.failed += 1;
                }
                out.rows += ack.accepted;
                out.frames.push(FrameRec { due, acked, windows: ack.windows_emitted });
            }
            // An ERR reply leaves the connection usable; anything else is fatal.
            Err(e) if e.kind() == ErrorKind::InvalidData => out.failed += 1,
            Err(e) => return Err(e),
        }
        *pos += frame_rows as u64;
        frame += 1;
        if seg.stats_at_rows == Some(out.rows) && out.stats.is_none() {
            out.attempted += 1;
            out.stats = Some((out.rows, request_block(client, "STATS")?));
        }
        if next_snapshot.is_some_and(|at| origin.elapsed() >= at) {
            out.attempted += 1;
            if !client.request_line("SNAPSHOT")?.starts_with("OK SNAPSHOT") {
                out.failed += 1;
            }
            next_snapshot = next_snapshot.zip(seg.snapshot_every).map(|(at, every)| at + every);
        }
    }
    if seg.pace == Pace::Idle {
        std::thread::sleep(total.saturating_sub(origin.elapsed()));
    }
    if seg.stats_at_rows.is_some() && out.stats.is_none() {
        out.attempted += 1;
        out.stats = Some((out.rows, request_block(client, "STATS")?));
    }
    Ok(out)
}

/// Connection 2: a line reader with a read timeout, so the reader thread
/// can notice that the segment is over. (`BatchClient` blocks forever.)
pub struct LineConn {
    stream: TcpStream,
    buf: Vec<u8>,
    /// Start of the unconsumed bytes in `buf`.
    head: usize,
    /// Bytes from `head` already searched for a newline.
    scanned: usize,
}

impl LineConn {
    /// Connects and consumes the greeting.
    pub fn connect(addr: &str) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_millis(50)))?;
        let mut conn = Self { stream, buf: Vec::with_capacity(1 << 20), head: 0, scanned: 0 };
        let greeting = conn.wait_line(Duration::from_secs(5))?;
        if !greeting.starts_with("OK") {
            return Err(io::Error::other(format!("unexpected greeting: {greeting}")));
        }
        Ok(conn)
    }

    /// Writes one request line.
    pub fn send(&mut self, line: &str) -> io::Result<()> {
        self.stream.write_all(format!("{line}\n").as_bytes())
    }

    /// The next line without its newline, or `None` if nothing arrived
    /// within the read timeout.
    pub fn next_line(&mut self) -> io::Result<Option<&[u8]>> {
        loop {
            let from = self.head + self.scanned;
            if let Some(off) = self.buf[from..].iter().position(|&b| b == b'\n') {
                let (start, end) = (self.head, from + off);
                self.head = end + 1;
                self.scanned = 0;
                return Ok(Some(&self.buf[start..end]));
            }
            self.scanned = self.buf.len() - self.head;
            if self.head > 0 {
                self.buf.drain(..self.head);
                self.head = 0;
            }
            let len = self.buf.len();
            self.buf.resize(len + (64 << 10), 0);
            match self.stream.read(&mut self.buf[len..]) {
                Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
                Ok(n) => self.buf.truncate(len + n),
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    self.buf.truncate(len);
                    return Ok(None);
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// The next line as text, waiting up to `limit`.
    pub fn wait_line(&mut self, limit: Duration) -> io::Result<String> {
        let deadline = Instant::now() + limit;
        loop {
            if let Some(line) = self.next_line()? {
                return Ok(String::from_utf8_lossy(line).trim_end_matches('\r').to_string());
            }
            if Instant::now() >= deadline {
                return Err(io::Error::new(ErrorKind::TimedOut, "no reply line in time"));
            }
        }
    }

    /// Sends `line` and returns the first reply line.
    pub fn request(&mut self, line: &str) -> io::Result<String> {
        self.send(line)?;
        self.wait_line(Duration::from_secs(10))
    }
}

/// FNV-1a, folded over a transcript line by line (newline included).
pub fn fnv1a(mut hash: u64, line: &[u8]) -> u64 {
    for &b in line.iter().chain(b"\n") {
        hash = (hash ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}
/// FNV-1a offset basis: the hash of the empty transcript.
pub const FNV_SEED: u64 = 0xCBF2_9CE4_8422_2325;

/// Confidence-interval quality, accumulated over `q.star` rows.
#[derive(Debug, Default)]
pub struct CiQuality {
    /// 90 % mean intervals seen.
    pub intervals: u64,
    /// Of those, how many do not contain the segment's true mean.
    pub misses: u64,
    /// `(hi − lo) / true mean` of every interval.
    pub rel_widths: Vec<f64>,
    /// De-facto `n` of every interval: the observations it was learned from.
    pub sample_sizes: Vec<f64>,
}

impl CiQuality {
    /// Folds in one `ROW ts=… p=… <key> gauss(…)|n=…|acc(n=…,mean=[lo,hi;0.9],…)` line.
    fn observe_row(&mut self, row: &str, true_means: &[f64]) -> Option<()> {
        let key: usize = row.split(' ').nth(3)?.parse().ok()?;
        let truth = *true_means.get(key)?;
        let acc = &row[row.find("acc(n=")? + 6..];
        let n: f64 = acc[..acc.find(',')?].parse().ok()?;
        let ci = &acc[acc.find("mean=[")? + 6..];
        let (lo, rest) = ci.split_once(',')?;
        let (lo, hi): (f64, f64) = (lo.parse().ok()?, rest[..rest.find(';')?].parse().ok()?);
        self.intervals += 1;
        self.misses += u64::from(truth < lo || truth > hi);
        self.rel_widths.push((hi - lo) / truth);
        self.sample_sizes.push(n);
        Some(())
    }
}

/// What the subscriber saw over one segment, per standing query.
#[derive(Debug, Default)]
pub struct SubscriberOut {
    /// Per subscription: arrival time of each `EVENT` header, seconds since
    /// the segment began.
    pub arrivals: Vec<Vec<f64>>,
    /// Per subscription: transcript hash after each complete event.
    pub hashes: Vec<Vec<u64>>,
    /// `DROPPED` notices, `EVENT … ERR` lines and lines that fit no event.
    pub failed: u64,
    /// Event blocks that arrived in two pieces with other lines in between.
    pub split_events: u64,
    /// Interval quality from the first subscription (`q.star`).
    pub ci: CiQuality,
}

/// Drains the standing set's events on connection 2 until the writer has
/// finished (`done`) and every subscription has seen `windows` events (or
/// the grace period ran out). `ids[i]` is the server's id of subscription `i`.
pub fn run_subscriber(
    conn: &mut LineConn,
    ids: &[u64],
    true_means: &[f64],
    origin: Instant,
    done: &AtomicBool,
    windows: &AtomicU64,
) -> io::Result<SubscriberOut> {
    let mut out = SubscriberOut {
        arrivals: vec![Vec::new(); ids.len()],
        hashes: vec![Vec::new(); ids.len()],
        ..Default::default()
    };
    let mut running = vec![FNV_SEED; ids.len()];
    // ROW lines still to come per subscription, and whose lines are arriving.
    let mut left = vec![0usize; ids.len()];
    let mut current = 0usize;
    let mut done_at: Option<Instant> = None;
    loop {
        let line = conn.next_line()?;
        if done_at.is_none() && done.load(Ordering::Acquire) {
            done_at = Some(Instant::now());
        }
        let Some(line) = line else {
            if let Some(at) = done_at {
                let want = windows.load(Ordering::Acquire) as usize;
                let complete =
                    left.iter().all(|&l| l == 0) && out.hashes.iter().all(|h| h.len() >= want);
                if complete || at.elapsed() >= READER_GRACE {
                    return Ok(out);
                }
            }
            continue;
        };
        let now = origin.elapsed().as_secs_f64();
        let text = std::str::from_utf8(line).unwrap_or("");
        if text.starts_with("ROW ") {
            // ROW lines carry no subscription id, and the server can cut an
            // event block at a tick: the connection drains its queues in
            // subscription order while the ingesting thread is still pushing.
            // The rest of the block then follows the other queues' lines. A
            // row continues the block being read if that is unfinished, else
            // the unfinished block of the lowest subscription.
            let owner =
                if left[current] > 0 { Some(current) } else { left.iter().position(|&l| l > 0) };
            let Some(sub) = owner else {
                out.failed += 1;
                continue;
            };
            if sub != current {
                out.split_events += 1;
            }
            current = sub;
            running[sub] = fnv1a(running[sub], line);
            if sub == 0 && out.arrivals[0].len() > CI_SKIP_EVENTS {
                out.ci.observe_row(text, true_means);
            }
            left[sub] -= 1;
            if left[sub] == 0 {
                out.hashes[sub].push(running[sub]);
            }
            continue;
        }
        // `EVENT <id> WINDOW <start> ROWS <n>`; anything else is a `DROPPED`
        // gap notice or an `EVENT <id> ERR …`, and counts as failed.
        let mut parts = text.split(' ');
        let sub = (parts.next() == Some("EVENT"))
            .then(|| parts.next()?.parse::<u64>().ok())
            .flatten()
            .and_then(|id| ids.iter().position(|&i| i == id));
        let rows =
            (parts.next() == Some("WINDOW")).then(|| parts.nth(2)?.parse::<usize>().ok()).flatten();
        match (sub, rows) {
            (Some(sub), Some(rows)) if left[sub] == 0 => {
                out.arrivals[sub].push(now);
                running[sub] = fnv1a(running[sub], line);
                current = sub;
                left[sub] = rows;
                if rows == 0 {
                    out.hashes[sub].push(running[sub]);
                }
            }
            _ => out.failed += 1,
        }
    }
}

/// What the query loop measured over one segment.
#[derive(Debug, Default)]
pub struct QueryOut {
    /// Per query of the set: `(start, latency ms)`, start in seconds since
    /// the segment began, latency from the request write to the `END` line.
    pub samples: [Vec<(f64, f64)>; 6],
    /// Queries sent.
    pub attempted: u64,
    /// Queries answered `ERR` or with a malformed reply.
    pub failed: u64,
}

/// Cycles the six queries on connection 2, closed loop, until `done`.
pub fn run_queries(
    conn: &mut LineConn,
    sqls: &[String; 6],
    origin: Instant,
    done: &AtomicBool,
) -> io::Result<QueryOut> {
    let mut out = QueryOut::default();
    // Until the first window has closed there is no relation to query; an
    // `ERR unknown stream` before the first answer is retried, not counted.
    let mut answered = false;
    'cycle: loop {
        for (kind, sql) in sqls.iter().enumerate() {
            if done.load(Ordering::Acquire) {
                break 'cycle;
            }
            let start = origin.elapsed().as_secs_f64();
            out.attempted += 1;
            conn.send(&format!("QUERY {sql}"))?;
            let deadline = Instant::now() + Duration::from_secs(30);
            let mut rows = 0usize;
            let ok = loop {
                match conn.next_line()? {
                    Some(line) if line.starts_with(b"ROW ") => rows += 1,
                    Some(line) if line.starts_with(b"SCHEMA ") => {}
                    Some(line) => break line == format!("END {rows}").as_bytes(),
                    None if Instant::now() >= deadline => {
                        return Err(io::Error::new(ErrorKind::TimedOut, "QUERY reply timed out"))
                    }
                    None => {}
                }
            };
            let ms = (origin.elapsed().as_secs_f64() - start) * 1e3;
            if ok {
                answered = true;
                out.samples[kind].push((start, ms));
            } else if answered {
                out.failed += 1;
            } else {
                out.attempted -= 1;
                std::thread::sleep(Duration::from_millis(5));
                continue 'cycle;
            }
        }
    }
    Ok(out)
}

/// Everything one segment produced.
#[derive(Debug, Default)]
pub struct SegmentOut {
    /// The writer's record.
    pub writer: WriterOut,
    /// The subscriber's record, for [`Reader::Standing`].
    pub subscriber: Option<SubscriberOut>,
    /// The query loop's record, for [`Reader::Queries`].
    pub queries: Option<QueryOut>,
}

/// Runs one segment: sets connection 2 up for its reader, drives the writer
/// on this thread and the reader on a second one, then restores
/// connection 2 to idle.
pub fn run_segment(
    writer: &mut BatchClient,
    reader: &mut LineConn,
    input: &Input,
    sqls: &[String; 6],
    pos: &mut u64,
    seg: &Segment,
) -> io::Result<SegmentOut> {
    let mut ids = Vec::new();
    if seg.reader == Reader::Standing {
        for sql in &sqls[..STANDING] {
            let reply = reader.request(&format!("SUBSCRIBE {sql}"))?;
            let id = reply
                .strip_prefix("OK SUBSCRIBED ")
                .and_then(|r| r.split(' ').next()?.parse().ok());
            ids.push(id.ok_or_else(|| io::Error::other(format!("SUBSCRIBE refused: {reply}")))?);
        }
    }
    let done = AtomicBool::new(false);
    let windows = AtomicU64::new(u64::MAX);
    let origin = Instant::now();
    let mut out = SegmentOut::default();
    let (written, read) = std::thread::scope(|scope| {
        let reading = scope.spawn(|| -> io::Result<(Option<SubscriberOut>, Option<QueryOut>)> {
            Ok(match seg.reader {
                Reader::Idle => (None, None),
                Reader::Standing => {
                    let sub =
                        run_subscriber(reader, &ids, &input.true_means, origin, &done, &windows)?;
                    (Some(sub), None)
                }
                Reader::Queries => (None, Some(run_queries(reader, sqls, origin, &done)?)),
            })
        });
        let written = run_writer(writer, input, pos, seg, origin);
        if let Ok(w) = &written {
            windows.store(w.frames.iter().map(|f| f.windows).sum(), Ordering::Release);
        }
        done.store(true, Ordering::Release);
        (written, reading.join().expect("reader thread panicked"))
    });
    out.writer = written?;
    (out.subscriber, out.queries) = read?;
    for id in ids {
        // Events the reader gave up on may still be in flight: skip to the reply.
        reader.send(&format!("UNSUBSCRIBE {id}"))?;
        loop {
            let reply = reader.wait_line(Duration::from_secs(10))?;
            if reply.starts_with("OK UNSUBSCRIBED") {
                break;
            }
            if reply.starts_with("ERR") {
                return Err(io::Error::other(format!("UNSUBSCRIBE refused: {reply}")));
            }
        }
    }
    Ok(out)
}
