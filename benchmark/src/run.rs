//! One run of one workload against a child `ausdb serve`: set-up, the main
//! segment, the fill-in segments, the crash/restart check and the oracle.

use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

use ausdb_serve::BatchClient;

use crate::child::{Dirs, Server};
use crate::input::{query_set, Input, KeyMix, CYCLE_ROWS, STANDING, STREAM};
use crate::load::{
    request_block, run_segment, LineConn, Pace, Reader, Segment, SegmentOut, FLOOD_FRAME,
    GEN_LATE_LIMIT_MS, GEN_LATE_SHARE, LATENCY_LIMIT_MS, SNAPSHOT_EVERY,
};
use crate::measure::{ack_ms, median, notice_ms, percentile, slice_rates};
use crate::oracle::{replay, row_counters, stat_field};

/// Untimed lead-in of a main segment.
const WARMUP: Duration = Duration::from_secs(2);
/// Untimed lead-in of a fill-in segment (a change of regime, not a cold start).
const FILL_WARMUP: Duration = Duration::from_millis(500);
/// Timed length of a fill-in segment, capped by `--seconds`.
const FILL: Duration = Duration::from_secs(3);
/// Open-loop rate of the standing-query segments, rows/s.
const STANDING_RATE: f64 = 400_000.0;
/// Open-loop rate beside the query loop, rows/s.
const QUERY_RATE: f64 = 200_000.0;
/// The transcript oracle covers this many rows from the start of the run:
/// 122 flood frames = 1952 paced frames, just under two million rows.
pub const ORACLE_ROWS: u64 = 122 * FLOOD_FRAME as u64;
/// Flood frames sent between the last `SNAPSHOT` and the `kill -9` (two
/// million rows): what a WAL server replays on restart, and what a server
/// without one loses. Long enough that the replay, not the scan of whatever
/// the active WAL segment happens to hold, sets the restart time.
const TAIL_FRAMES: u64 = 122;
/// Set-up is done this many times; the median is reported.
const SETUP_REPEATS: usize = 9;
/// The server is crashed and recovered this many times; the median is reported.
const RECOVERIES: usize = 5;

/// The part of a workload that differs from the others.
pub struct Workload {
    /// Its name in [`crate::spec::WORKLOADS`].
    pub name: &'static str,
    /// Whether the server runs with `--wal-dir`.
    pub wal: bool,
    /// Key mix of the main segment.
    pub mix: KeyMix,
    /// Pacing of the main segment.
    pub pace: Pace,
    /// What connection 2 does in the main segment.
    pub reader: Reader,
}

/// What each of the four workloads does.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "flood_durable",
        wal: true,
        mix: KeyMix::Uniform,
        pace: Pace::Flood,
        reader: Reader::Idle,
    },
    Workload {
        name: "flood_standing",
        wal: false,
        mix: KeyMix::Uniform,
        pace: Pace::Flood,
        reader: Reader::Standing,
    },
    Workload {
        name: "paced_standing",
        wal: true,
        mix: KeyMix::Skewed,
        pace: Pace::Rate(STANDING_RATE),
        reader: Reader::Standing,
    },
    Workload {
        name: "paced_query",
        wal: false,
        mix: KeyMix::Skewed,
        pace: Pace::Rate(QUERY_RATE),
        reader: Reader::Queries,
    },
];

/// A measured value and how many samples it summarises.
#[derive(Debug, Clone, Copy)]
pub struct Measured {
    /// The value.
    pub value: f64,
    /// Samples behind it.
    pub samples: usize,
}

/// Everything the untraced run against the child server yields.
pub struct RunOutcome {
    /// End-to-end metrics by name, in [`crate::spec::END_TO_END`] order.
    pub end_to_end: Vec<(&'static str, Measured)>,
    /// Client- and count-level per-layer metrics from the same run.
    pub layers: Vec<(&'static str, f64)>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed (errored, refused, dropped, or over the latency limit).
    pub failed: u64,
    /// Whether every oracle check passed.
    pub correct: bool,
    /// Human-readable findings (oracle results, generator health, quality guard).
    pub notes: Vec<String>,
    /// Rows of the main segment the oracle and the traced replay cover.
    pub prefix_rows: u64,
    /// The main segment's measured ingest rate (for `tcp_vs_inproc_ratio`).
    pub ingest_rows_per_s: f64,
}

/// A run that cannot be reported: the generator was the bottleneck, or the
/// server could not be driven at all.
pub struct Invalid(pub String);

impl From<io::Error> for Invalid {
    fn from(e: io::Error) -> Self {
        Invalid(format!("i/o: {e}"))
    }
}

struct Rig {
    input: Input,
    dirs: Dirs,
    server: Server,
    writer: BatchClient,
    reader: LineConn,
}

/// Everything up to the first timed operation: inputs from the seed, the
/// scratch directory, the child server, both connections.
fn set_up(bin: &Path, seed: u64, wal: bool) -> io::Result<Rig> {
    let input = Input::generate(seed);
    let dirs = Dirs::create()?;
    let server = Server::spawn(bin, &dirs, wal)?;
    let writer = BatchClient::connect(&server.addr)?;
    let reader = LineConn::connect(&server.addr)?;
    Ok(Rig { input, dirs, server, writer, reader })
}

fn select_all(client: &mut BatchClient) -> io::Result<Vec<String>> {
    request_block(client, &format!("QUERY SELECT * FROM {STREAM}"))
}

/// Runs `workload` for `seconds` with inputs from `seed`. With `probe`, also
/// takes the idle-`PING` and `METRICS` measurements the traced report needs.
pub fn run(
    bin: &Path,
    workload: &Workload,
    seed: u64,
    seconds: f64,
    probe: bool,
) -> Result<RunOutcome, Invalid> {
    let mut notes = Vec::new();
    let mut layers: Vec<(&'static str, f64)> = Vec::new();
    let (mut attempted, mut failed, mut correct) = (0u64, 0u64, true);

    // -- set-up, several times over; the last instance is the one used -----
    let mut setup_secs = Vec::new();
    let mut rig = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(Rig { server, dirs, .. }) = rig.take() {
            Server::kill9(server);
            drop(dirs);
        }
        let start = Instant::now();
        rig = Some(set_up(bin, seed, workload.wal)?);
        setup_secs.push(start.elapsed().as_secs_f64());
    }
    let Rig { input, dirs, server, mut writer, mut reader } = rig.expect("SETUP_REPEATS > 0");
    let sqls = query_set(input.threshold);
    notes.push(format!(
        "server files in {} (inside the checkout; WAL {})",
        dirs.root.display(),
        if workload.wal { "on, AUSDB_FSYNC default" } else { "off" }
    ));

    if probe {
        let mut pings = Vec::new();
        for _ in 0..200 {
            let start = Instant::now();
            if writer.request_line("PING")? != "OK PONG" {
                return Err(Invalid("PING not answered".into()));
            }
            pings.push(start.elapsed().as_secs_f64() * 1e6);
        }
        layers.push(("server.conn.ping_us_p50", median(&pings)));
    }

    // -- main segment -------------------------------------------------------
    let timed = Duration::from_secs_f64(seconds);
    let main = Segment {
        mix: workload.mix,
        pace: workload.pace,
        reader: workload.reader,
        warmup: WARMUP,
        timed,
        snapshot_every: workload.wal.then_some(SNAPSHOT_EVERY),
        stats_at_rows: Some(ORACLE_ROWS),
    };
    let mut pos = 0u64;
    let main_out = run_segment(&mut writer, &mut reader, &input, &sqls, &mut pos, &main)?;
    let warmup_s = WARMUP.as_secs_f64();

    // One scrape right after the main segment, so its counts are the main
    // segment's alone (the fill-ins below run queries of every kind).
    let stats_main = request_block(&mut writer, "STATS")?;
    let metrics_main = if probe { request_block(&mut writer, "METRICS")? } else { Vec::new() };

    // -- fill-in segments: the operation kinds the main segment lacks -------
    let fill = Segment {
        mix: KeyMix::Skewed,
        pace: Pace::Rate(STANDING_RATE),
        reader: Reader::Standing,
        warmup: FILL_WARMUP,
        timed: FILL.min(timed),
        snapshot_every: None,
        stats_at_rows: None,
    };
    // Notice latency is an open-loop figure: a flood's evenly spaced frames
    // lock in with the 25 ms connection tick, in one of two phases per run.
    let paced_standing = workload.reader == Reader::Standing && workload.pace != Pace::Flood;
    // A flood ends wherever it got to. Starting the fill-in on a cycle
    // boundary gives it the same rows and schedule every run, so the interval
    // metrics it yields repeat exactly for a seed on every workload.
    pos = pos.next_multiple_of(CYCLE_ROWS as u64);
    let notice_fill = (!paced_standing)
        .then(|| run_segment(&mut writer, &mut reader, &input, &sqls, &mut pos, &fill))
        .transpose()?;
    // The query fill-in runs on an otherwise idle server: beside a paced
    // writer three seconds of `q.mc` spread 18-26 % over ten runs on the
    // 2-core sizing machine, alone under 10 %. Queries beside writes are
    // what `paced_query`'s main segment measures.
    let query_fill = (workload.reader != Reader::Queries)
        .then(|| {
            let seg = Segment { pace: Pace::Idle, reader: Reader::Queries, ..fill };
            run_segment(&mut writer, &mut reader, &input, &sqls, &mut pos, &seg)
        })
        .transpose()?;
    let fill_warmup_s = FILL_WARMUP.as_secs_f64();
    let (standing, standing_warmup) = match &notice_fill {
        Some(seg) => (seg, fill_warmup_s),
        None => (&main_out, warmup_s),
    };
    let (querying, querying_warmup) = match &query_fill {
        Some(seg) => (seg, fill_warmup_s),
        None => (&main_out, warmup_s),
    };

    // -- crash and recovery -----------------------------------------------------
    attempted += 1;
    if !writer.request_line("SNAPSHOT")?.starts_with("OK SNAPSHOT") {
        failed += 1;
    }
    let tail_start = pos;
    let mut rows = Vec::new();
    let mut send_tail = |client: &mut BatchClient| -> io::Result<u64> {
        let mut acked = 0;
        for frame in 0..TAIL_FRAMES {
            input.fill(
                KeyMix::Uniform,
                tail_start + frame * FLOOD_FRAME as u64,
                FLOOD_FRAME,
                &mut rows,
            );
            acked += client.ingest_batch(STREAM, &rows)?.accepted;
        }
        Ok(acked)
    };
    let tail_rows = TAIL_FRAMES * FLOOD_FRAME as u64;
    attempted += TAIL_FRAMES;
    failed += u64::from(send_tail(&mut writer)? != tail_rows);
    let before_kill = select_all(&mut writer)?;
    let stats_final = request_block(&mut writer, "STATS")?;
    let rss_mb = server.peak_rss_mb()?;
    drop((writer, reader));
    server.kill9();
    // Recovery ends when the server again answers as it did just before the
    // kill. With a WAL that is when it listens: it has replayed the tail.
    // Without one it comes back with the snapshot's state and the client has
    // to send the tail again. Either way the files on disk are as the kill
    // left them, so the cycle can be repeated.
    let mut recovery_secs = Vec::new();
    let mut restored = true;
    for _ in 0..RECOVERIES {
        let start = Instant::now();
        let again = Server::spawn(bin, &dirs, workload.wal)?;
        let mut client = BatchClient::connect(&again.addr)?;
        if workload.wal {
            recovery_secs.push(again.spawn_to_listening.as_secs_f64());
        } else {
            attempted += TAIL_FRAMES;
            failed += u64::from(send_tail(&mut client)? != tail_rows);
            recovery_secs.push(start.elapsed().as_secs_f64());
        }
        restored &= select_all(&mut client).is_ok_and(|got| got == before_kill);
        drop(client);
        again.kill9();
    }
    correct &= restored;
    notes.push(format!(
        "oracle: after kill -9 and recovery ({}) x{RECOVERIES}, SELECT * is byte-equal to the \
         reply just before the kill: {}",
        if workload.wal {
            "restart replays the WAL"
        } else {
            "restart + the client re-sends the tail"
        },
        if restored { "ok" } else { "MISMATCH" }
    ));
    let recovery_rows_per_s = tail_rows as f64 / median(&recovery_secs);
    layers.push(("wal.replay_rows_per_s", if workload.wal { recovery_rows_per_s } else { 0.0 }));

    // -- oracle: counters and transcripts -------------------------------------
    let segments: Vec<&SegmentOut> = [Some(&main_out), notice_fill.as_ref(), query_fill.as_ref()]
        .into_iter()
        .flatten()
        .collect();
    let sent_rows: u64 = segments.iter().map(|s| s.writer.rows).sum::<u64>() + tail_rows;
    let acked_ok = stat_field(&stats_final, "server ", "rows_ingested") == Some(sent_rows);
    correct &= acked_ok;
    notes.push(format!(
        "oracle: every frame acked with its row count, STATS rows_ingested = {sent_rows} rows sent: {}",
        if acked_ok { "ok" } else { "MISMATCH" }
    ));
    let (prefix_rows, stats_prefix) = main_out.writer.stats.clone().expect("stats_at_rows was set");
    let subscriptions: &[String] =
        if workload.reader == Reader::Standing { &sqls[..STANDING] } else { &[] };
    let reference =
        replay(&input, workload.mix, main.pace.frame_rows(), prefix_rows, subscriptions, None)
            .map_err(Invalid)?;
    let counters_equal = row_counters(&stats_prefix) == row_counters(&reference.stats);
    correct &= counters_equal;
    notes.push(format!(
        "oracle: STATS counters after the first {prefix_rows} rows equal the in-process replay: {}",
        if counters_equal { "ok" } else { "MISMATCH" }
    ));
    if let Some(sub) = &main_out.subscriber {
        let transcripts_equal = (0..STANDING).all(|i| {
            let k = reference.events[i];
            k > 0 && sub.hashes[i].get(k - 1) == Some(&reference.hashes[i])
        });
        correct &= transcripts_equal;
        notes.push(format!(
            "oracle: subscriber transcripts for the first {prefix_rows} rows ({} events each) \
             byte-equal the in-process replay: {}",
            reference.events[0],
            if transcripts_equal { "ok" } else { "MISMATCH" }
        ));
    }

    // -- failures -----------------------------------------------------------------
    for seg in &segments {
        attempted += seg.writer.attempted;
        failed += seg.writer.failed;
        if let Some(q) = &seg.queries {
            attempted += q.attempted;
            failed += q.failed;
        }
    }
    let mut notices = Vec::new();
    let mut dropped = 0u64;
    if let Some(sub) = &standing.subscriber {
        dropped = sub.failed;
        failed += sub.failed;
        notes.push(format!(
            "subscriber: {} event blocks arrived cut in two with other subscriptions' lines in \
             between (ROW lines carry no id; re-joined by their row counts)",
            sub.split_events
        ));
        for arrivals in &sub.arrivals {
            let (latencies, missing) =
                notice_ms(&standing.writer.frames, arrivals, standing_warmup);
            attempted += latencies.len() as u64 + missing;
            failed += missing;
            failed += latencies.iter().filter(|&&ms| ms > LATENCY_LIMIT_MS).count() as u64;
            notices.extend(latencies);
        }
    }
    layers.push(("server.subscriber.dropped", dropped as f64));

    // -- generator health (open-loop segments) -----------------------------------
    for (seg, what) in segments.iter().zip(["main", "first fill-in", "second fill-in"]) {
        let Some(last) = seg.writer.frames.last() else { continue };
        let late = &seg.writer.gen_late_ms;
        let over = late.iter().filter(|&&ms| ms > GEN_LATE_LIMIT_MS).count();
        notes.push(format!(
            "generator ({what}): lateness p50 {:.3} ms, max {:.3} ms, {over} of {} frames over \
             {GEN_LATE_LIMIT_MS} ms; final ack backlog {:.3} ms",
            median(late),
            percentile(late, 1.0),
            late.len(),
            (last.acked - last.due) * 1e3
        ));
        if over as f64 > GEN_LATE_SHARE * late.len() as f64 {
            return Err(Invalid(format!(
                "generator was the bottleneck in the {what} segment: {over} of {} frames were \
                 sent more than {GEN_LATE_LIMIT_MS} ms after they could have been",
                late.len()
            )));
        }
    }

    // -- quality guard ---------------------------------------------------------------
    let ci = &standing.subscriber.as_ref().expect("a standing segment always runs").ci;
    let miss_rate = ci.misses as f64 / ci.intervals as f64;
    notes.push(format!(
        "quality: {} of {} q.star 90% mean intervals miss the true mean = {miss_rate:.4} (nominal \
         0.10); de-facto n per interval min {} median {}",
        ci.misses,
        ci.intervals,
        percentile(&ci.sample_sizes, 0.0),
        median(&ci.sample_sizes)
    ));

    // -- metrics ------------------------------------------------------------------------
    let rates = slice_rates(&main_out.writer.frames, warmup_s, main.pace.frame_rows());
    let queries = querying.queries.as_ref().expect("a query segment always runs");
    let timed_ms = |kinds: std::ops::Range<usize>| -> Vec<f64> {
        queries.samples[kinds]
            .iter()
            .flatten()
            .filter(|(start, _)| *start >= querying_warmup)
            .map(|&(_, ms)| ms)
            .collect()
    };
    // The four closed-form queries cost 0.3 to 1 ms each; the median of the
    // pooled samples would sit in a gap between two of them and jump about.
    let per_query: Vec<f64> = (0..STANDING).map(|q| median(&timed_ms(q..q + 1))).collect();
    let analytic_p50 = per_query.iter().sum::<f64>() / per_query.len() as f64;
    let (analytic, bootstrap, mc) = (timed_ms(0..4), timed_ms(4..5), timed_ms(5..6));
    let m = |value: f64, samples: usize| Measured { value, samples };
    let end_to_end = vec![
        ("setup_s", m(median(&setup_secs), setup_secs.len())),
        ("ingest_rows_per_s", m(median(&rates), rates.len())),
        ("recovery_rows_per_s", m(recovery_rows_per_s, recovery_secs.len())),
        ("notice_ms_p50", m(median(&notices), notices.len())),
        ("notice_ms_p90", m(percentile(&notices, 0.9), notices.len())),
        ("query_analytic_ms_p50", m(analytic_p50, analytic.len())),
        ("query_bootstrap_ms_p50", m(median(&bootstrap), bootstrap.len())),
        ("query_mc_ms_p50", m(median(&mc), mc.len())),
        ("ci_miss_rate", m(miss_rate, ci.intervals as usize)),
        ("ci_rel_width_p50", m(median(&ci.rel_widths), ci.rel_widths.len())),
        ("server_rss_mb", m(rss_mb, 1)),
    ];

    let acks = ack_ms(&main_out.writer.frames, warmup_s);
    let gen_late_max =
        segments.iter().flat_map(|s| &s.writer.gen_late_ms).fold(0.0f64, |a, &b| a.max(b));
    layers.extend([
        ("client.gen_late_ms_max", gen_late_max),
        ("client.ack_ms_p50", median(&acks)),
        ("client.ack_ms_p99", percentile(&acks, 0.99)),
        ("client.notice_ms_p99", percentile(&notices, 0.99)),
        ("client.query_analytic_ms_p99", percentile(&analytic, 0.99)),
        ("client.query_bootstrap_ms_p99", percentile(&bootstrap, 0.99)),
        ("client.query_mc_ms_p99", percentile(&mc, 0.99)),
        ("client.failed_ops_share", failed as f64 / attempted as f64),
    ]);
    let stat = |key: &str| stat_field(&stats_main, "server ", key).unwrap_or(0) as f64;
    layers.extend([
        ("server.shard.rows_ingested", stat("rows_ingested")),
        ("server.shard.late_rows", stat("late_rows")),
        ("server.shard.windows_emitted", stat("windows_emitted")),
        ("server.shard.events", stat("events")),
    ]);
    if probe {
        let metric = |name: &str| -> f64 {
            metrics_main
                .iter()
                .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
                .unwrap_or(0.0)
        };
        layers.extend([
            ("wal.fsyncs", metric("ausdb_wal_fsyncs_total")),
            ("engine.mc.draws", metric("ausdb_mc_draws_total")),
            ("engine.bootstrap.resamples", metric("ausdb_bootstrap_resamples_total")),
        ]);
    }

    Ok(RunOutcome {
        end_to_end,
        layers,
        attempted,
        failed,
        correct,
        notes,
        prefix_rows,
        ingest_rows_per_s: median(&rates),
    })
}
