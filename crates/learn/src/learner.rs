//! The windowed raw-record → probabilistic-tuple pipeline (Figure 1).
//!
//! Raw observation records stream in (`Segment_ID, Time, Delay, …`). For
//! each key, the learner gathers the observations that fall into the
//! current time window and emits a single probabilistic tuple whose
//! uncertain attribute holds the learned distribution **with accuracy
//! information** — exactly the transformation the paper's Example 1
//! describes for road 19 (3 observations) vs. road 20 (50 observations).

use std::collections::BTreeMap;
use std::time::Instant;

use ausdb_model::schema::{Column, ColumnType, Schema};
use ausdb_model::tuple::{Field, Tuple};
use ausdb_model::ModelError;

use crate::accuracy::{learn_with_accuracy, DistKind};

/// One raw observation record: `(key, timestamp, value)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RawObservation {
    /// Grouping key (e.g. road segment id).
    pub key: i64,
    /// Observation timestamp.
    pub ts: u64,
    /// The measured value (e.g. delay in seconds).
    pub value: f64,
}

impl RawObservation {
    /// Creates an observation.
    pub fn new(key: i64, ts: u64, value: f64) -> Self {
        Self { key, ts, value }
    }
}

/// Configuration of a [`StreamLearner`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LearnerConfig {
    /// Distribution family to learn per key.
    pub kind: DistKind,
    /// Confidence level of the attached accuracy intervals.
    pub level: f64,
    /// Time-window width: a call to [`StreamLearner::emit_window`] learns
    /// from observations with `ts ∈ [window_start, window_start + width)`.
    pub window_width: u64,
    /// Keys with fewer observations than this in the window are skipped
    /// (a Gaussian, for instance, needs at least 2).
    pub min_observations: usize,
}

impl LearnerConfig {
    /// A sensible default: Gaussian at 90% confidence, width-60 windows,
    /// at least 2 observations.
    pub fn gaussian(window_width: u64) -> Self {
        Self { kind: DistKind::Gaussian, level: 0.9, window_width, min_observations: 2 }
    }
}

/// Groups raw observations by key and emits one probabilistic tuple per key
/// per window.
///
/// Output schema: `(key INT, value DIST)` where the `value` field carries
/// the learned distribution and its [`ausdb_model::accuracy::AccuracyInfo`].
#[derive(Debug)]
pub struct StreamLearner {
    config: LearnerConfig,
    schema: Schema,
    /// Per-key buffered observations (sorted map keeps output deterministic).
    buffer: BTreeMap<i64, Vec<(u64, f64)>>,
}

impl StreamLearner {
    /// Creates a learner with output columns named `key` and `value`.
    pub fn new(config: LearnerConfig) -> Self {
        Self::with_column_names(config, "key", "value")
    }

    /// Creates a learner with custom output column names (e.g. `road_id`,
    /// `delay`).
    pub fn with_column_names(config: LearnerConfig, key_col: &str, value_col: &str) -> Self {
        let schema = Schema::new(vec![
            Column::new(key_col, ColumnType::Int),
            Column::new(value_col, ColumnType::Dist),
        ])
        .expect("two distinct column names");
        Self { config, schema, buffer: BTreeMap::new() }
    }

    /// The output schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The learner's configuration.
    pub fn config(&self) -> &LearnerConfig {
        &self.config
    }

    /// The earliest buffered observation timestamp, if any. A caller
    /// advancing windows over a large time jump can skip straight to the
    /// window containing this timestamp instead of closing empty windows
    /// one by one.
    pub fn min_buffered_ts(&self) -> Option<u64> {
        self.buffer.values().flat_map(|v| v.iter().map(|&(ts, _)| ts)).min()
    }

    /// Total buffered observations across all keys.
    pub fn buffered_len(&self) -> usize {
        self.buffer.values().map(Vec::len).sum()
    }

    /// Raw per-key buffer contents — each key's `(ts, value)` observations
    /// in arrival order. Used for snapshotting and for splitting/merging a
    /// learner across key-hash shards.
    pub fn buffer(&self) -> &BTreeMap<i64, Vec<(u64, f64)>> {
        &self.buffer
    }

    /// Rebuilds a learner from its parts (config, schema, per-key buffer).
    /// The inverse of reading [`StreamLearner::config`],
    /// [`StreamLearner::schema`], and [`StreamLearner::buffer`]: round-
    /// tripping through `from_parts` preserves every observation bit and
    /// its arrival order, which is what keeps shard merge/split and
    /// snapshot restore exact.
    pub fn from_parts(
        config: LearnerConfig,
        schema: Schema,
        buffer: BTreeMap<i64, Vec<(u64, f64)>>,
    ) -> Self {
        Self { config, schema, buffer }
    }

    /// Buffers one raw observation.
    pub fn observe(&mut self, obs: RawObservation) {
        self.buffer.entry(obs.key).or_default().push((obs.ts, obs.value));
    }

    /// Buffers many raw observations.
    pub fn observe_all(&mut self, obs: impl IntoIterator<Item = RawObservation>) {
        for o in obs {
            self.observe(o);
        }
    }

    /// Number of buffered observations for `key` inside the window starting
    /// at `window_start`.
    pub fn window_count(&self, key: i64, window_start: u64) -> usize {
        let end = window_start.saturating_add(self.config.window_width);
        self.buffer
            .get(&key)
            .map(|v| v.iter().filter(|(ts, _)| *ts >= window_start && *ts < end).count())
            .unwrap_or(0)
    }

    /// Learns one probabilistic tuple per key from the window starting at
    /// `window_start`, then drops all observations older than the window's
    /// end. Keys with insufficient observations are skipped.
    ///
    /// The emitted tuples carry `ts = window_start` and membership
    /// probability 1 (the uncertainty lives in the attribute).
    pub fn emit_window(&mut self, window_start: u64) -> Result<Vec<Tuple>, ModelError> {
        let start = Instant::now();
        let out = self.peek_window(window_start)?;
        // Evict everything the window has consumed or passed.
        let end = window_start.saturating_add(self.config.window_width);
        for obs in self.buffer.values_mut() {
            obs.retain(|&(ts, _)| ts >= end);
        }
        self.buffer.retain(|_, v| !v.is_empty());
        ausdb_obs::journal::global().record(ausdb_obs::Level::Debug, "relearn", || {
            let micros = start.elapsed().as_micros();
            format!("window_start={window_start} tuples={} took={micros}us", out.len())
        });
        Ok(out)
    }

    /// Like [`StreamLearner::emit_window`] but non-destructive: learns the
    /// window's tuples without evicting any buffered observations.
    pub fn peek_window(&self, window_start: u64) -> Result<Vec<Tuple>, ModelError> {
        let end = window_start.saturating_add(self.config.window_width);
        let mut out = Vec::new();
        for (&key, obs) in &self.buffer {
            let sample: Vec<f64> = obs
                .iter()
                .filter(|(ts, _)| *ts >= window_start && *ts < end)
                .map(|&(_, v)| v)
                .collect();
            if sample.len() < self.config.min_observations.max(1) {
                continue;
            }
            let (dist, info) = learn_with_accuracy(&sample, self.config.kind, self.config.level)?;
            out.push(Tuple::certain(
                window_start,
                vec![Field::plain(key), Field::plain(dist).with_accuracy(info)],
            ));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ausdb_model::value::Value;

    /// Example 1's raw snippet: 3 observations for road 19, many for road 20.
    fn example1_observations() -> Vec<RawObservation> {
        let mut v = vec![
            RawObservation::new(19, 530, 56.0),
            RawObservation::new(19, 531, 38.0),
            RawObservation::new(19, 531, 97.0),
        ];
        for i in 0..50 {
            v.push(RawObservation::new(20, 529 + (i % 3), 60.0 + (i % 11) as f64));
        }
        v
    }

    #[test]
    fn example1_transformation() {
        let mut learner = StreamLearner::with_column_names(
            LearnerConfig {
                kind: DistKind::Empirical,
                level: 0.9,
                window_width: 10,
                min_observations: 2,
            },
            "road_id",
            "delay",
        );
        learner.observe_all(example1_observations());
        assert_eq!(learner.window_count(19, 525), 3);
        assert_eq!(learner.window_count(20, 525), 50);
        let tuples = learner.emit_window(525).unwrap();
        assert_eq!(tuples.len(), 2, "one probabilistic tuple per road");
        // Road 19's distribution is learned from n=3, road 20's from n=50:
        // distinct accuracy levels is exactly the paper's point.
        let schema = learner.schema().clone();
        let f19 = tuples[0].field(&schema, "delay").unwrap();
        let f20 = tuples[1].field(&schema, "delay").unwrap();
        assert_eq!(f19.sample_size, Some(3));
        assert_eq!(f20.sample_size, Some(50));
        let ci19 = f19.accuracy.as_ref().unwrap().mean_ci.unwrap();
        let ci20 = f20.accuracy.as_ref().unwrap().mean_ci.unwrap();
        assert!(
            ci19.length() > ci20.length(),
            "road 19's interval {ci19} must be wider than road 20's {ci20}"
        );
    }

    #[test]
    fn window_filtering_and_eviction() {
        let mut learner = StreamLearner::new(LearnerConfig::gaussian(10));
        learner.observe_all([
            RawObservation::new(1, 0, 1.0),
            RawObservation::new(1, 5, 2.0),
            RawObservation::new(1, 9, 3.0),
            RawObservation::new(1, 15, 100.0), // next window
            RawObservation::new(1, 16, 101.0),
        ]);
        let t0 = learner.emit_window(0).unwrap();
        assert_eq!(t0.len(), 1);
        let d = match &t0[0].fields[1].value {
            Value::Dist(d) => d,
            other => panic!("expected dist, got {other:?}"),
        };
        assert!((d.mean() - 2.0).abs() < 1e-9, "window 0 mean from {{1,2,3}}");
        // Window 0 data evicted; the late observations remain.
        assert_eq!(learner.window_count(1, 10), 2);
        let t1 = learner.emit_window(10).unwrap();
        assert_eq!(t1.len(), 1);
    }

    #[test]
    fn sparse_keys_skipped() {
        let mut learner = StreamLearner::new(LearnerConfig::gaussian(10));
        learner.observe(RawObservation::new(7, 1, 4.0)); // only one observation
        let t = learner.emit_window(0).unwrap();
        assert!(t.is_empty(), "a single observation cannot fit a Gaussian");
    }

    #[test]
    fn deterministic_key_order() {
        let mut learner = StreamLearner::new(LearnerConfig {
            kind: DistKind::Empirical,
            level: 0.9,
            window_width: 10,
            min_observations: 1,
        });
        learner.observe_all([
            RawObservation::new(5, 0, 1.0),
            RawObservation::new(2, 0, 1.0),
            RawObservation::new(9, 0, 1.0),
        ]);
        let t = learner.emit_window(0).unwrap();
        let keys: Vec<i64> = t
            .iter()
            .map(|t| match t.fields[0].value {
                Value::Int(k) => k,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(keys, vec![2, 5, 9]);
    }
}
