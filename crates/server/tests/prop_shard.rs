//! Property tests for the tentpole invariant of the sharded engine:
//! **shard count is unobservable**. For any row stream — arbitrary key
//! mix, out-of-order timestamps (late rows), time jumps — a `ShardSet`
//! with 1, 2, or 8 shards must produce the snapshot bytes, query render
//! and counters of a serial one-learner model (`support/serial_model.rs`;
//! every shard count runs the same engine code, so one shard is no oracle
//! for eight); and a snapshot taken at one shard count must restore
//! exactly at another.

use ausdb_learn::accuracy::DistKind;
use ausdb_learn::learner::{LearnerConfig, RawObservation};
use ausdb_model::codec::{Codec, Writer};
use ausdb_serve::render::{render_rows, render_schema};
use ausdb_serve::shard::ShardSet;
use ausdb_serve::state::{EngineConfig, QueryReply, ServerSnapshot, StreamSnapshot};
use proptest::prelude::*;

#[path = "support/serial_model.rs"]
mod serial_model;
use serial_model::SerialModel;

const WINDOW: u64 = 10;

fn config(shards: usize) -> EngineConfig {
    EngineConfig {
        learner: LearnerConfig {
            kind: DistKind::Empirical,
            level: 0.9,
            window_width: WINDOW,
            min_observations: 2,
        },
        max_subscribers: 4,
        queue_cap: 64,
        shards,
    }
}

fn snapshot_bytes(snap: &ServerSnapshot) -> Vec<u8> {
    let mut w = Writer::new();
    snap.encode(&mut w);
    w.into_bytes()
}

/// Renders a query reply injectively: equal lines ⇔ equal bits. A
/// legitimate error (e.g. no window registered yet) renders as an `ERR`
/// line so both sides must fail identically too.
fn rendered(set: &ShardSet, sql: &str) -> Vec<String> {
    match set.query(sql) {
        Ok(QueryReply::Rows(schema, tuples)) => {
            let mut lines = vec![render_schema(&schema)];
            lines.extend(render_rows(&tuples));
            lines
        }
        Ok(QueryReply::Plan(lines)) => lines,
        Err(e) => vec![format!("ERR {e}")],
    }
}

/// Feeds the same rows to every set via the *line* path.
fn ingest_lines(set: &ShardSet, rows: &[RawObservation]) {
    for r in rows {
        set.ingest("traffic", &format!("{},{},{}", r.key, r.ts, r.value))
            .expect("line ingest succeeds");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// 1-, 2-, and 8-shard sets fed identical rows are indistinguishable
    /// from the serial model: same snapshot bytes, same query render,
    /// same counters.
    #[test]
    fn shard_count_is_unobservable(
        raw in prop::collection::vec(
            // Keys collide across shards; timestamps are arbitrary within
            // a few windows, so late rows and window closes both happen.
            (-3i64..10, 80u64..400, -1e6..=1e6f64),
            1..80,
        ),
    ) {
        let rows: Vec<RawObservation> =
            raw.iter().map(|&(k, ts, v)| RawObservation::new(k, ts, v)).collect();

        let mut model = SerialModel::new(config(1).learner);
        rows.iter().for_each(|&obs| model.ingest(obs));
        let schema = model.learner.schema().clone();
        let last = model.emitted.last().map(|(_, tuples)| tuples.clone());
        let mut learner = Writer::new();
        model.learner.encode(&mut learner);
        let want_snap = snapshot_bytes(&ServerSnapshot {
            streams: vec![StreamSnapshot {
                name: "traffic".to_string(),
                learner: learner.into_bytes(),
                window_start: model.cursor,
                registered: last.clone().map(|tuples| (schema.clone(), tuples)),
            }],
            wal_seq: 0,
        });
        let want_query = last.map(|tuples| {
            let mut lines = vec![render_schema(&schema)];
            lines.extend(render_rows(&tuples));
            lines
        });

        for shards in [1usize, 2, 8] {
            let set = ShardSet::new(config(shards));
            ingest_lines(&set, &rows);
            prop_assert_eq!(
                snapshot_bytes(&set.to_snapshot()),
                want_snap.clone(),
                "snapshot bytes differ at {} shards", shards
            );
            let got_query = rendered(&set, "SELECT * FROM traffic");
            match &want_query {
                Some(want) => prop_assert_eq!(
                    &got_query, want, "query render differs at {} shards", shards
                ),
                // No window closed with tuples: nothing is registered yet.
                None => prop_assert!(got_query[0].starts_with("ERR "), "{:?}", got_query),
            }
            let got = set.counters();
            prop_assert_eq!(got.rows_ingested, rows.len() as u64);
            prop_assert_eq!(got.late_rows, model.late);
            prop_assert_eq!(got.windows_emitted, model.emitted.len() as u64);
        }
    }

    /// The binary batch path is serial-equivalent to line-at-a-time
    /// ingest at every shard count — identical snapshots and outcomes.
    #[test]
    fn batch_ingest_equals_line_ingest_at_any_shard_count(
        raw in prop::collection::vec(
            (0i64..6, 90u64..300, -50.0..=50.0f64),
            1..60,
        ),
        shards in 1usize..9,
    ) {
        let rows: Vec<RawObservation> =
            raw.iter().map(|&(k, ts, v)| RawObservation::new(k, ts, v)).collect();

        let line_set = ShardSet::new(config(shards));
        ingest_lines(&line_set, &rows);

        let batch_set = ShardSet::new(config(shards));
        let outcome = batch_set.ingest_batch("traffic", &rows).expect("batch ingest");

        prop_assert_eq!(outcome.accepted, rows.len() as u64);
        prop_assert_eq!(
            snapshot_bytes(&batch_set.to_snapshot()),
            snapshot_bytes(&line_set.to_snapshot()),
            "batch vs line snapshot differs at {} shards", shards
        );
        prop_assert_eq!(batch_set.stats_lines(), line_set.stats_lines());
    }

    /// Kill-and-restore across a shard-count change is exact: a snapshot
    /// taken at `from` shards restores at `to` shards with identical
    /// bytes and identical future behavior (closing the open window).
    #[test]
    fn restore_across_shard_counts_is_exact(
        raw in prop::collection::vec(
            (-5i64..12, 100u64..260, -1e3..=1e3f64),
            1..50,
        ),
        from in 1usize..9,
        to in 1usize..9,
    ) {
        let rows: Vec<RawObservation> =
            raw.iter().map(|&(k, ts, v)| RawObservation::new(k, ts, v)).collect();

        let origin = ShardSet::new(config(from));
        origin.ingest_batch("traffic", &rows).expect("batch ingest");
        let snap = origin.to_snapshot();
        let want = snapshot_bytes(&snap);

        let revived = ShardSet::new(config(to));
        let restored = revived.restore(snap).expect("restore succeeds");
        prop_assert_eq!(restored, 1, "one stream restored");
        prop_assert_eq!(
            snapshot_bytes(&revived.to_snapshot()),
            want,
            "restore {}→{} shards is not exact", from, to
        );

        // Both lineages must agree on the future too: a closing row far
        // past every buffered timestamp flushes the open window the same
        // way on the original and the revived set.
        let closing = [RawObservation::new(1, 1_000, 7.5)];
        origin.ingest_batch("traffic", &closing).expect("closing row (origin)");
        revived.ingest_batch("traffic", &closing).expect("closing row (revived)");
        prop_assert_eq!(
            snapshot_bytes(&revived.to_snapshot()),
            snapshot_bytes(&origin.to_snapshot()),
            "post-restore window close diverges ({}→{} shards)", from, to
        );
        prop_assert_eq!(
            rendered(&revived, "SELECT * FROM traffic"),
            rendered(&origin, "SELECT * FROM traffic")
        );
    }
}
