//! A serial model of the engine's ingest → close loop: one
//! `StreamLearner`, one cursor, no shards, no locks. Test-only —
//! `prop_shard.rs` and `loopback.rs` include this file by path. It shares
//! no code with `ShardSet`, so the shard-count tests compare every layout
//! (one shard included) with something other than the engine itself.

use ausdb_learn::learner::{LearnerConfig, RawObservation, StreamLearner};
use ausdb_model::tuple::Tuple;

/// One stream as a single learner would see it.
pub struct SerialModel {
    pub learner: StreamLearner,
    /// Start of the open window; `None` until the first row.
    pub cursor: Option<u64>,
    /// Rows that arrived with a timestamp before the then-open window.
    pub late: u64,
    /// Every non-empty closed window in close order: `(start, tuples)`.
    pub emitted: Vec<(u64, Vec<Tuple>)>,
}

impl SerialModel {
    pub fn new(config: LearnerConfig) -> Self {
        Self { learner: StreamLearner::new(config), cursor: None, late: 0, emitted: Vec::new() }
    }

    /// Buffers one row, then closes every window its timestamp has moved
    /// past, jumping over empty windows to the earliest buffered row.
    pub fn ingest(&mut self, obs: RawObservation) {
        let width = self.learner.config().window_width;
        let open = *self.cursor.get_or_insert(obs.ts - obs.ts % width);
        self.late += u64::from(obs.ts < open);
        self.learner.observe(obs);
        while let Some(ws) = self.cursor.filter(|ws| obs.ts >= ws + width) {
            let tuples = self.learner.emit_window(ws).expect("learn");
            self.cursor = Some(match self.learner.min_buffered_ts() {
                Some(min) if min >= ws + width => min - min % width,
                _ => ws + width,
            });
            if !tuples.is_empty() {
                self.emitted.push((ws, tuples));
            }
        }
    }
}
