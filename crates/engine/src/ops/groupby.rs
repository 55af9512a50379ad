//! Grouped aggregation over uncertain attributes.
//!
//! `GROUP BY key` with `AVG`/`SUM`/`COUNT` over a distribution column.
//! For each group the aggregate of independent uncertain inputs is
//! computed by moment propagation: `SUM` has mean `Σμᵢ` and variance
//! `Σσᵢ²`; `AVG` divides by the group size. The result is represented as
//! a Gaussian (exact when inputs are Gaussian; a CLT approximation
//! otherwise, which the group sizes of streaming workloads justify), and
//! its de-facto sample size is the minimum input sample size in the group
//! (Lemma 3 — the same argument as for expressions applies to aggregates:
//! two independent de-facto observations of the group aggregate cannot
//! reuse an observation of the scarcest member).
//!
//! This is a **blocking** operator: it drains its input, then emits one
//! tuple per group, ordered by key.

use std::collections::BTreeMap;
use std::sync::Arc;

use ausdb_model::schema::{Column, ColumnType, Schema};
use ausdb_model::stream::{Batch, PoisonReason, StreamStatus, TupleStream};
use ausdb_model::tuple::{Field, Tuple};
use ausdb_model::value::Value;
use rand::rngs::StdRng;

use crate::error::EngineError;
use crate::obs::{self, OpMetrics};
use crate::ops::{aggregate_field, AccuracyMode};

/// The aggregate function of a [`GroupBy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GroupAggKind {
    /// Per-group average of the uncertain column.
    Avg,
    /// Per-group sum.
    Sum,
    /// Number of tuples in the group (deterministic).
    Count,
}

impl GroupAggKind {
    fn output_name(&self, column: &str) -> String {
        match self {
            GroupAggKind::Avg => format!("avg_{column}"),
            GroupAggKind::Sum => format!("sum_{column}"),
            GroupAggKind::Count => "count".to_string(),
        }
    }
}

/// A group key: integers and strings are supported (floats are not valid
/// grouping keys — equality on floats is a modeling smell).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum GroupKey {
    Int(i64),
    Str(String),
    Bool(bool),
}

impl GroupKey {
    fn from_value(v: &Value) -> Result<Self, EngineError> {
        match v {
            Value::Int(i) => Ok(GroupKey::Int(*i)),
            Value::Str(s) => Ok(GroupKey::Str(s.clone())),
            Value::Bool(b) => Ok(GroupKey::Bool(*b)),
            other => {
                Err(EngineError::Eval(format!("cannot GROUP BY a {} value", other.type_name())))
            }
        }
    }

    fn to_value(&self) -> Value {
        match self {
            GroupKey::Int(i) => Value::Int(*i),
            GroupKey::Str(s) => Value::Str(s.clone()),
            GroupKey::Bool(b) => Value::Bool(*b),
        }
    }
}

/// Accumulated state for one group.
#[derive(Debug, Default)]
struct GroupState {
    count: usize,
    sum_mu: f64,
    sum_var: f64,
    min_n: Option<usize>,
    min_membership: f64,
}

/// Grouped aggregation operator.
pub struct GroupBy<S> {
    input: S,
    key_column: String,
    agg_column: String,
    kind: GroupAggKind,
    mode: AccuracyMode,
    schema: Schema,
    rng: StdRng,
    done: bool,
    metrics: Arc<OpMetrics>,
}

impl<S: TupleStream> GroupBy<S> {
    /// Creates the operator: group on `key_column`, aggregate
    /// `agg_column`.
    pub fn new(
        input: S,
        key_column: impl Into<String>,
        agg_column: impl Into<String>,
        kind: GroupAggKind,
        mode: AccuracyMode,
        seed: u64,
    ) -> Result<Self, EngineError> {
        let key_column = key_column.into();
        let agg_column = agg_column.into();
        let in_schema = input.schema();
        let key_idx = in_schema.index_of(&key_column)?;
        in_schema.index_of(&agg_column)?;
        let key_ty = in_schema.column(key_idx).ty;
        if !matches!(key_ty, ColumnType::Int | ColumnType::Str | ColumnType::Bool) {
            return Err(EngineError::InvalidQuery(format!(
                "GROUP BY key must be INT, STR, or BOOL, found {key_ty}"
            )));
        }
        let out_ty = if kind == GroupAggKind::Count { ColumnType::Int } else { ColumnType::Dist };
        let schema = Schema::new(vec![
            Column::new(key_column.clone(), key_ty),
            Column::new(kind.output_name(&agg_column), out_ty),
        ])?;
        Ok(Self {
            input,
            key_column,
            agg_column,
            kind,
            mode,
            schema,
            rng: ausdb_stats::rng::seeded(seed),
            done: false,
            metrics: OpMetrics::new("GroupBy"),
        })
    }

    /// This operator's metrics handle (clone before boxing the stream to
    /// keep the counters reachable).
    pub fn metrics(&self) -> Arc<OpMetrics> {
        self.metrics.clone()
    }

    fn accumulate(&mut self) -> Result<BTreeMap<GroupKey, GroupState>, EngineError> {
        let in_schema = self.input.schema().clone();
        let mut groups: BTreeMap<GroupKey, GroupState> = BTreeMap::new();
        while let Some(batch) = self.input.next_batch() {
            self.metrics.record_batch(batch.len());
            for tuple in batch {
                let key = GroupKey::from_value(&tuple.field(&in_schema, &self.key_column)?.value)?;
                let field = tuple.field(&in_schema, &self.agg_column)?;
                let (mu, var, n) = match &field.value {
                    Value::Dist(d) => {
                        let n = if d.is_point() { None } else { field.sample_size };
                        (d.mean(), d.variance(), n)
                    }
                    other => (other.as_f64()?, 0.0, None),
                };
                let state = groups
                    .entry(key)
                    .or_insert_with(|| GroupState { min_membership: 1.0, ..GroupState::default() });
                state.count += 1;
                state.sum_mu += mu;
                state.sum_var += var;
                if let Some(n) = n {
                    state.min_n = Some(state.min_n.map_or(n, |m| m.min(n)));
                }
                state.min_membership = state.min_membership.min(tuple.membership.p);
            }
        }
        Ok(groups)
    }

    fn emit(&mut self, groups: BTreeMap<GroupKey, GroupState>) -> Result<Batch, EngineError> {
        let mut out = Vec::with_capacity(groups.len());
        for (i, (key, state)) in groups.into_iter().enumerate() {
            let agg_field = match self.kind {
                GroupAggKind::Count => Field::plain(state.count as i64),
                GroupAggKind::Sum | GroupAggKind::Avg => aggregate_field(
                    state.sum_mu,
                    state.sum_var,
                    (self.kind == GroupAggKind::Avg).then_some(state.count),
                    state.min_n,
                    self.mode,
                    &mut self.rng,
                    &self.metrics,
                )?,
            };
            out.push(Tuple::certain(i as u64, vec![Field::plain(key.to_value()), agg_field]));
        }
        Ok(out)
    }
}

impl<S: TupleStream> TupleStream for GroupBy<S> {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_batch(&mut self) -> Option<Batch> {
        let metrics = self.metrics.clone();
        obs::timed(&metrics, || self.next_batch_inner())
    }

    fn status(&self) -> StreamStatus {
        self.metrics.status().combine(self.input.status())
    }
}

impl<S: TupleStream> GroupBy<S> {
    fn next_batch_inner(&mut self) -> Option<Batch> {
        if self.done {
            return None;
        }
        self.done = true;
        // A blocking operator cannot skip bad tuples without corrupting the
        // group aggregates: any error poisons the stream, cause retained.
        let groups = match self.accumulate() {
            Ok(groups) => groups,
            Err(e) => {
                self.metrics.poison(PoisonReason::new("GroupBy", e));
                return None;
            }
        };
        if groups.is_empty() {
            return None;
        }
        match self.emit(groups) {
            Ok(out) => {
                self.metrics.record_out(out.len());
                Some(out)
            }
            Err(e) => {
                self.metrics.poison(PoisonReason::new("GroupBy", e));
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ausdb_model::stream::VecStream;
    use ausdb_model::AttrDistribution;

    fn schema() -> Schema {
        Schema::new(vec![
            Column::new("road", ColumnType::Int),
            Column::new("delay", ColumnType::Dist),
        ])
        .unwrap()
    }

    fn stream() -> VecStream {
        // Road 1: two readings (means 10 and 20, var 4 each, n 30/10).
        // Road 2: one reading (mean 50, var 9, n 25).
        let tuples = vec![
            Tuple::certain(
                0,
                vec![
                    Field::plain(1i64),
                    Field::learned(AttrDistribution::gaussian(10.0, 4.0).unwrap(), 30),
                ],
            ),
            Tuple::certain(
                1,
                vec![
                    Field::plain(2i64),
                    Field::learned(AttrDistribution::gaussian(50.0, 9.0).unwrap(), 25),
                ],
            ),
            Tuple::certain(
                2,
                vec![
                    Field::plain(1i64),
                    Field::learned(AttrDistribution::gaussian(20.0, 4.0).unwrap(), 10),
                ],
            ),
        ];
        VecStream::new(schema(), tuples, 2)
    }

    #[test]
    fn avg_per_group() {
        let mut g = GroupBy::new(
            stream(),
            "road",
            "delay",
            GroupAggKind::Avg,
            AccuracyMode::Analytical { level: 0.9 },
            5,
        )
        .unwrap();
        assert_eq!(g.schema().column(1).name, "avg_delay");
        let out = g.collect_all();
        assert_eq!(out.len(), 2);
        // Road 1: avg mean 15, var (4+4)/4 = 2; df n = min(30, 10) = 10.
        let d = out[0].fields[1].value.as_dist().unwrap();
        assert!((d.mean() - 15.0).abs() < 1e-12);
        assert!((d.variance() - 2.0).abs() < 1e-12);
        assert_eq!(out[0].fields[1].sample_size, Some(10));
        let info = out[0].fields[1].accuracy.as_ref().unwrap();
        assert!(info.mean_ci.unwrap().contains(15.0));
        // Road 2: singleton group.
        let d = out[1].fields[1].value.as_dist().unwrap();
        assert!((d.mean() - 50.0).abs() < 1e-12);
        assert_eq!(out[1].fields[1].sample_size, Some(25));
    }

    #[test]
    fn sum_and_count() {
        let mut g =
            GroupBy::new(stream(), "road", "delay", GroupAggKind::Sum, AccuracyMode::None, 5)
                .unwrap();
        let out = g.collect_all();
        let d = out[0].fields[1].value.as_dist().unwrap();
        assert!((d.mean() - 30.0).abs() < 1e-12);
        assert!((d.variance() - 8.0).abs() < 1e-12);

        let mut g =
            GroupBy::new(stream(), "road", "delay", GroupAggKind::Count, AccuracyMode::None, 5)
                .unwrap();
        assert_eq!(g.schema().column(1).ty, ColumnType::Int);
        let out = g.collect_all();
        assert_eq!(out[0].fields[1].value, Value::Int(2));
        assert_eq!(out[1].fields[1].value, Value::Int(1));
    }

    #[test]
    fn bootstrap_accuracy_per_group() {
        let mut g = GroupBy::new(
            stream(),
            "road",
            "delay",
            GroupAggKind::Avg,
            AccuracyMode::Bootstrap { level: 0.9, mc_values: 400 },
            5,
        )
        .unwrap();
        let out = g.collect_all();
        let info = out[0].fields[1].accuracy.as_ref().unwrap();
        assert!(info.mean_ci.unwrap().contains(15.0));
        assert!(info.variance_ci.is_some());
    }

    #[test]
    fn string_group_keys() {
        let schema = Schema::new(vec![
            Column::new("kind", ColumnType::Str),
            Column::new("v", ColumnType::Dist),
        ])
        .unwrap();
        let mk = |kind: &str, mu: f64| {
            Tuple::certain(
                0,
                vec![
                    Field::plain(kind),
                    Field::learned(AttrDistribution::gaussian(mu, 1.0).unwrap(), 10),
                ],
            )
        };
        let s = VecStream::new(schema, vec![mk("b", 2.0), mk("a", 1.0), mk("b", 4.0)], 4);
        let mut g = GroupBy::new(s, "kind", "v", GroupAggKind::Avg, AccuracyMode::None, 5).unwrap();
        let out = g.collect_all();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].fields[0].value, Value::Str("a".into()));
        let d = out[1].fields[1].value.as_dist().unwrap();
        assert!((d.mean() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn groups_ordered_by_key() {
        let tuples = vec![
            Tuple::certain(0, vec![Field::plain(9i64), Field::plain(1.0)]),
            Tuple::certain(1, vec![Field::plain(2i64), Field::plain(1.0)]),
            Tuple::certain(2, vec![Field::plain(5i64), Field::plain(1.0)]),
        ];
        let schema = Schema::new(vec![
            Column::new("k", ColumnType::Int),
            Column::new("v", ColumnType::Float),
        ])
        .unwrap();
        let s = VecStream::new(schema, tuples, 8);
        let mut g = GroupBy::new(s, "k", "v", GroupAggKind::Count, AccuracyMode::None, 5).unwrap();
        let out = g.collect_all();
        let keys: Vec<Value> = out.iter().map(|t| t.fields[0].value.clone()).collect();
        assert_eq!(keys, vec![Value::Int(2), Value::Int(5), Value::Int(9)]);
    }

    #[test]
    fn scalar_aggregation_is_exact() {
        let tuples = vec![
            Tuple::certain(0, vec![Field::plain(1i64), Field::plain(3.0)]),
            Tuple::certain(1, vec![Field::plain(1i64), Field::plain(5.0)]),
        ];
        let schema = Schema::new(vec![
            Column::new("k", ColumnType::Int),
            Column::new("v", ColumnType::Float),
        ])
        .unwrap();
        let s = VecStream::new(schema, tuples, 8);
        let mut g = GroupBy::new(s, "k", "v", GroupAggKind::Avg, AccuracyMode::None, 5).unwrap();
        let out = g.collect_all();
        // Deterministic inputs: a point result with no accuracy needed.
        let d = out[0].fields[1].value.as_dist().unwrap();
        assert_eq!(d.mean(), 4.0);
        assert!(out[0].fields[1].accuracy.is_none());
    }

    #[test]
    fn plan_time_validation() {
        assert!(GroupBy::new(stream(), "nope", "delay", GroupAggKind::Avg, AccuracyMode::None, 5)
            .is_err());
        assert!(GroupBy::new(stream(), "road", "nope", GroupAggKind::Avg, AccuracyMode::None, 5)
            .is_err());
        // Grouping by the distribution column itself is rejected.
        assert!(GroupBy::new(stream(), "delay", "road", GroupAggKind::Avg, AccuracyMode::None, 5)
            .is_err());
    }

    #[test]
    fn empty_input() {
        let s = VecStream::new(schema(), vec![], 4);
        let mut g =
            GroupBy::new(s, "road", "delay", GroupAggKind::Avg, AccuracyMode::None, 5).unwrap();
        assert!(g.next_batch().is_none());
    }

    #[test]
    fn bad_key_poisons_with_cause() {
        // A float smuggled into the key column at runtime cannot group;
        // the blocking operator poisons and retains the cause.
        let tuples = vec![Tuple::certain(
            0,
            vec![
                Field::plain(1.5f64),
                Field::learned(AttrDistribution::gaussian(1.0, 1.0).unwrap(), 10),
            ],
        )];
        let s = VecStream::new(schema(), tuples, 4);
        let mut g =
            GroupBy::new(s, "road", "delay", GroupAggKind::Avg, AccuracyMode::None, 5).unwrap();
        assert!(g.next_batch().is_none());
        let status = g.status();
        let reason = status.poison().expect("poisoned");
        assert_eq!(reason.operator(), "GroupBy");
        assert!(reason.to_string().contains("GROUP BY"), "{reason}");
    }
}
