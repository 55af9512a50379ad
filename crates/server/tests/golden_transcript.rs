//! Golden-file test pinning the **absolute** bytes of the engine.
//!
//! Every other identity test compares one `ShardSet` with another; this
//! one compares shards 1, 2 and 8 with a file. One fixed script — two
//! streams, eight keys, a late row, a multi-window time jump, `INGEST`
//! lines mixed with `ingest_batch` frames, three subscriptions (one with
//! an SLO), two `QUERY`s, a snapshot → restore → more rows — records the
//! subscriber transcripts, the `QUERY` replies, `STATS`, `SLO LIST` and
//! the snapshot bytes (as a hash). To accept a deliberate change of result bits:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p ausdb-serve --test golden_transcript
//! ```

use std::fmt::Write as _;
use std::sync::Arc;

use ausdb_learn::learner::{LearnerConfig, RawObservation};
use ausdb_model::codec::{Codec, Writer};
use ausdb_serve::render::{render_rows, render_schema};
use ausdb_serve::shard::ShardSet;
use ausdb_serve::state::{EngineConfig, QueryReply};
use ausdb_serve::SubscriberQueue;

const GOLDEN: &str = "tests/golden/transcript.txt";

fn config(shards: usize) -> EngineConfig {
    EngineConfig {
        learner: LearnerConfig::gaussian(10),
        max_subscribers: 4,
        queue_cap: 4096,
        shards,
    }
}

/// The transcript under construction plus the live subscriber queues.
struct Script {
    set: ShardSet,
    queues: Vec<(u64, Arc<SubscriberQueue>)>,
    out: String,
}

impl Script {
    fn subscribe(&mut self, sql: &str) -> u64 {
        let (id, stream, queue) = self.set.subscribe(sql).expect("subscribe");
        writeln!(self.out, "SUBSCRIBED {id} {stream}").unwrap();
        self.queues.push((id, queue));
        id
    }

    fn lines(&mut self, stream: &str, rows: &[(i64, u64, f64)]) {
        let mut emitted = 0;
        for (key, ts, value) in rows {
            emitted +=
                self.set.ingest(stream, &format!("{key},{ts},{value}")).unwrap().windows_emitted;
        }
        writeln!(self.out, "INGEST {stream} rows={} windows={emitted}", rows.len()).unwrap();
        self.drain();
    }

    fn batch(&mut self, stream: &str, rows: &[(i64, u64, f64)]) {
        let frame: Vec<RawObservation> =
            rows.iter().map(|&(k, ts, v)| RawObservation::new(k, ts, v)).collect();
        let o = self.set.ingest_batch(stream, &frame).unwrap();
        writeln!(
            self.out,
            "INGESTB {stream} rows={} late={} windows={}",
            o.accepted, o.late, o.windows_emitted
        )
        .unwrap();
        self.drain();
    }

    /// Appends what each subscriber would have been sent since the last call.
    fn drain(&mut self) {
        for (id, queue) in &self.queues {
            for line in queue.drain() {
                writeln!(self.out, "  sub {id}: {line}").unwrap();
            }
        }
    }

    fn query(&mut self, sql: &str) {
        writeln!(self.out, "QUERY {sql}").unwrap();
        match self.set.query(sql).expect("query") {
            QueryReply::Rows(schema, tuples) => {
                writeln!(self.out, "  {}", render_schema(&schema)).unwrap();
                for row in render_rows(&tuples) {
                    writeln!(self.out, "  {row}").unwrap();
                }
            }
            QueryReply::Plan(lines) => {
                lines.iter().for_each(|l| writeln!(self.out, "  {l}").unwrap())
            }
        }
    }

    /// Appends a titled block. What `STATS` carries that the rows do not
    /// determine is left out: the wall-clock `time=…ms` of the last query's
    /// operators and its `engine:` line of process-wide counters.
    fn report(&mut self, title: &str, lines: Vec<String>) {
        writeln!(self.out, "{title}").unwrap();
        for line in lines.iter().filter(|l| !l.trim_start().starts_with("engine:")) {
            let masked: Vec<&str> = line
                .split(' ')
                .map(|word| if word.starts_with("time=") { "time=*" } else { word })
                .collect();
            writeln!(self.out, "  {}", masked.join(" ")).unwrap();
        }
    }

    /// Appends the snapshot's length and the FNV-1a hash of its bytes.
    fn snapshot(&mut self) -> ausdb_serve::ServerSnapshot {
        let snap = self.set.to_snapshot();
        let mut w = Writer::new();
        snap.encode(&mut w);
        let bytes = w.into_bytes();
        let hash = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
        });
        writeln!(self.out, "SNAPSHOT bytes={} fnv1a={hash:016x}", bytes.len()).unwrap();
        snap
    }
}

/// One window of `traffic`: keys 0..8, key `k` observed `2 + k % 3` times.
fn traffic_window(base: u64) -> Vec<(i64, u64, f64)> {
    let mut rows = Vec::new();
    for k in 0..8i64 {
        for i in 0..(2 + k % 3) {
            let ts = base + ((k + 3 * i) % 10) as u64;
            rows.push((k, ts, 40.0 + 2.5 * k as f64 + 1.75 * i as f64 + (base % 7) as f64 * 0.125));
        }
    }
    rows
}

fn transcript(shards: usize) -> String {
    let mut s =
        Script { set: ShardSet::new(config(shards)), queues: Vec::new(), out: String::new() };
    let star = s.subscribe("SELECT * FROM traffic");
    s.subscribe("SELECT key, value FROM traffic WHERE value > 47 PROB 0.5");
    s.subscribe("SELECT key, value * 2 AS d FROM weather WITH ACCURACY ANALYTICAL LEVEL 0.9");
    s.set.set_slo(star, 3.0).expect("slo set");

    // Window 100 arrives line by line; the frame holds window 110, closes
    // it with window 120's rows, and carries one late row (ts 95).
    s.lines("traffic", &traffic_window(100));
    let mut frame = traffic_window(110);
    frame.push((3, 95, 1.5));
    frame.extend(traffic_window(120));
    s.batch("traffic", &frame);
    // A second stream, interleaved, on keys that collide with traffic's.
    s.batch("weather", &[(1, 7, 11.0), (1, 8, 13.5), (2, 9, 9.25), (2, 3, 10.0), (5, 4, 1.0)]);
    s.lines("weather", &[(1, 12, 12.0), (2, 13, 8.0), (2, 14, 8.5)]);
    // The jump: closes window 120, skips 37 empty windows in one step.
    s.lines("traffic", &[(5, 500, 9.0)]);
    s.batch("traffic", &traffic_window(500));
    s.batch("weather", &[(1, 31, 12.5), (1, 32, 14.0), (9, 33, 2.0)]);

    s.query("SELECT * FROM traffic");
    s.query("SELECT key, value * 2 AS d FROM traffic WITH ACCURACY BOOTSTRAP LEVEL 0.9 SAMPLES 40");
    let stats = s.set.stats_lines();
    s.report("STATS", stats);
    let slo = s.set.slo_lines();
    s.report("SLO LIST", slo);

    // Snapshot → restore (subscriptions and counters live on) → more rows:
    // window 500 must close on the restored buffers exactly as it would
    // have on the originals.
    let snap = s.snapshot();
    let restored = s.set.restore(snap).expect("restore");
    writeln!(s.out, "RESTORED {restored}").unwrap();
    let mut frame = traffic_window(510);
    frame.push((0, 499, 3.0)); // late again
    frame.push((7, 520, 50.0));
    s.batch("traffic", &frame);
    s.lines("weather", &[(9, 41, 2.5)]);
    let stats = s.set.stats_lines();
    s.report("STATS", stats);
    let slo = s.set.slo_lines();
    s.report("SLO LIST", slo);
    s.snapshot();
    s.out
}

#[test]
fn transcript_equals_the_golden_file_at_every_shard_count() {
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(GOLDEN, transcript(1)).expect("write golden");
    }
    let want = std::fs::read_to_string(GOLDEN).expect("golden file (UPDATE_GOLDEN=1 to create)");
    for shards in [1usize, 2, 8] {
        let got = transcript(shards);
        if got != want {
            let (line, (g, w)) = got
                .lines()
                .zip(want.lines())
                .enumerate()
                .find(|(_, (g, w))| g != w)
                .map_or((0, ("<length differs>", "")), |(i, gw)| (i + 1, gw));
            panic!("shards={shards}: transcript differs from {GOLDEN} at line {line}\n got: {g}\nwant: {w}");
        }
    }
}
