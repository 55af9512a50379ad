//! The reference computation: the same frames through an in-process
//! [`ShardSet`], with the same subscriptions in the same order.
//!
//! What a subscriber receives depends only on the order of the rows, never
//! on timing, so the child server's transcript must equal this one byte for
//! byte (compared as per-subscription FNV-1a hashes, event by event).

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use ausdb_learn::learner::{LearnerConfig, RawObservation};
use ausdb_serve::{EngineConfig, ShardSet, SubscriberQueue};
use ausdb_wal::{Wal, WalOptions};

use crate::input::{Input, KeyMix, STREAM, WINDOW};
use crate::load::{fnv1a, FNV_SEED};

/// The engine configuration `ausdb serve --window 60 --shards 1
/// --queue-cap 100000` runs with (Gaussian learner: the CLI default).
pub fn engine_config() -> EngineConfig {
    EngineConfig {
        learner: LearnerConfig::gaussian(WINDOW),
        max_subscribers: 64,
        queue_cap: 100_000,
        shards: 1,
    }
}

/// What an in-process replay produced.
pub struct Replay {
    /// Per subscription: events received.
    pub events: Vec<usize>,
    /// Per subscription: transcript hash after its last event.
    pub hashes: Vec<u64>,
    /// `STATS` lines after the last frame.
    pub stats: Vec<String>,
    /// Wall time of the `ShardSet::ingest_batch` calls alone.
    pub ingest_secs: f64,
    /// The engine, for callers that go on to query or snapshot it.
    pub engine: ShardSet,
}

/// Replays rows `[0, rows)` of the `mix` cycle in `frame_rows` frames with
/// `subscriptions` registered first, optionally logging to a WAL in `wal_dir`.
pub fn replay(
    input: &Input,
    mix: KeyMix,
    frame_rows: usize,
    rows: u64,
    subscriptions: &[String],
    wal_dir: Option<&Path>,
) -> Result<Replay, String> {
    let engine = ShardSet::new(engine_config());
    if let Some(dir) = wal_dir {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        engine.attach_wal(Wal::open(dir, WalOptions::new()).map_err(|e| e.to_string())?);
    }
    let queues: Vec<Arc<SubscriberQueue>> = subscriptions
        .iter()
        .map(|sql| engine.subscribe(sql).map(|(_, _, queue)| queue))
        .collect::<Result<_, _>>()?;
    let mut events = vec![0usize; queues.len()];
    let mut hashes = vec![FNV_SEED; queues.len()];
    let mut frame: Vec<RawObservation> = Vec::with_capacity(frame_rows);
    let mut ingest_secs = 0.0;
    let mut pos = 0u64;
    while pos < rows {
        let n = frame_rows.min((rows - pos) as usize);
        input.fill(mix, pos, n, &mut frame);
        let start = Instant::now();
        engine.ingest_batch(STREAM, &frame)?;
        ingest_secs += start.elapsed().as_secs_f64();
        pos += n as u64;
        for (i, queue) in queues.iter().enumerate() {
            for line in queue.drain() {
                events[i] += usize::from(line.starts_with("EVENT "));
                hashes[i] = fnv1a(hashes[i], line.as_bytes());
            }
        }
    }
    let stats = engine.stats_lines();
    Ok(Replay { events, hashes, stats, ingest_secs, engine })
}

/// The counters of a `STATS` reply that depend on the rows alone: four
/// fields of the `server` line (its `queries=` and the subscriber lines'
/// queue depths depend on what else ran, and when) and the `stream` line.
pub fn row_counters(stats: &[String]) -> (Vec<Option<u64>>, Option<&str>) {
    let fields = ["rows_ingested", "late_rows", "windows_emitted", "events"];
    (
        fields.iter().map(|key| stat_field(stats, "server ", key)).collect(),
        stats.iter().map(String::as_str).find(|l| l.starts_with("stream ")),
    )
}

/// One `key=value` field of a `STATS` line.
pub fn stat_field(stats: &[String], line_prefix: &str, key: &str) -> Option<u64> {
    let line = stats.iter().find(|l| l.starts_with(line_prefix))?;
    line.split(' ').find_map(|kv| kv.strip_prefix(key)?.strip_prefix('=')?.parse().ok())
}
