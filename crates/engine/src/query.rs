//! Query descriptions, the executor, and sessions.
//!
//! A [`Query`] is the logical description the SQL front end plans into:
//! an optional WHERE predicate, an optional significance predicate, an
//! optional sliding-window aggregate, and a SELECT list. [`execute`] wires
//! the streaming operators together in the order
//! `filter → window → significance filter → project`; [`Session`] holds
//! named registered streams and runs queries against them.

use std::collections::HashMap;

use ausdb_model::schema::Schema;
use ausdb_model::stream::{TupleStream, VecStream};
use ausdb_model::tuple::Tuple;

use crate::error::EngineError;
use crate::obs::{self, MetricsRegistry, StatsReport};
use crate::ops::{
    AccuracyMode, Filter, GroupAggKind, GroupBy, HashJoin, Project, Projection, SigFilter, SigMode,
    WindowAgg, WindowAggKind,
};
use crate::predicate::Predicate;
use crate::sigpred::SigPredicate;

/// Execution-wide configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryConfig {
    /// How result accuracy is computed.
    pub accuracy: AccuracyMode,
    /// Monte-Carlo iterations for compound predicate / statistic
    /// estimation.
    pub mc_iters: usize,
    /// RNG seed (queries are reproducible).
    pub seed: u64,
}

impl Default for QueryConfig {
    fn default() -> Self {
        Self { accuracy: AccuracyMode::Analytical { level: 0.9 }, mc_iters: 1000, seed: 42 }
    }
}

/// A sliding-window aggregate step.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowSpec {
    /// Input column to aggregate.
    pub column: String,
    /// AVG or SUM.
    pub kind: WindowAggKind,
    /// Count-based size or time-based width.
    pub mode: WindowMode,
}

impl WindowSpec {
    /// A count-based window (the paper's form).
    pub fn count(column: impl Into<String>, kind: WindowAggKind, size: usize) -> Self {
        Self { column: column.into(), kind, mode: WindowMode::Count(size) }
    }

    /// A time-based trailing window.
    pub fn time(
        column: impl Into<String>,
        kind: WindowAggKind,
        width: u64,
        min_tuples: usize,
    ) -> Self {
        Self { column: column.into(), kind, mode: WindowMode::Time { width, min_tuples } }
    }
}

/// Windowing mode of a [`WindowSpec`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowMode {
    /// Count-based: emit per tuple once `size` tuples fill the window.
    Count(usize),
    /// Time-based: a trailing window of `width` timestamp units, emitting
    /// once `min_tuples` tuples are inside.
    Time {
        /// Trailing width in timestamp units.
        width: u64,
        /// Minimum tuples before emitting.
        min_tuples: usize,
    },
}

/// A grouped-aggregation step (`GROUP BY key` with one aggregate).
#[derive(Debug, Clone, PartialEq)]
pub struct GroupBySpec {
    /// Deterministic grouping column.
    pub key: String,
    /// The aggregated (usually uncertain) column.
    pub column: String,
    /// AVG, SUM, or COUNT.
    pub kind: GroupAggKind,
}

/// An equijoin step: `FROM <from> JOIN <right> ON <key>`.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinSpec {
    /// The registered stream joined in (build side).
    pub right: String,
    /// The shared deterministic key column.
    pub key: String,
}

/// A logical query.
#[derive(Debug, Clone, Default)]
pub struct Query {
    /// SELECT list; empty means pass-through (`SELECT *`).
    pub projections: Vec<Projection>,
    /// Equijoin with a second registered stream (resolved by [`Session`]).
    pub join: Option<JoinSpec>,
    /// WHERE predicate (possible-world / probability-threshold semantics).
    pub predicate: Option<Predicate>,
    /// Significance predicate with its evaluation mode (Section IV).
    pub significance: Option<(SigPredicate, SigMode)>,
    /// Sliding-window aggregate (applied after the WHERE filter).
    pub window: Option<WindowSpec>,
    /// Grouped aggregation (applied after window, before significance).
    pub group_by: Option<GroupBySpec>,
    /// Result ordering: `(column, descending)`. Distribution-valued
    /// columns order by their mean.
    pub order_by: Option<(String, bool)>,
    /// Maximum number of result tuples (applied after ordering).
    pub limit: Option<usize>,
}

impl Query {
    /// A `SELECT *` query with no predicates.
    pub fn select_all() -> Self {
        Self::default()
    }

    /// Sets the SELECT list (builder style).
    pub fn with_projections(mut self, projections: Vec<Projection>) -> Self {
        self.projections = projections;
        self
    }

    /// Sets the WHERE predicate (builder style).
    pub fn with_predicate(mut self, predicate: Predicate) -> Self {
        self.predicate = Some(predicate);
        self
    }

    /// Sets the significance predicate (builder style).
    pub fn with_significance(mut self, pred: SigPredicate, mode: SigMode) -> Self {
        self.significance = Some((pred, mode));
        self
    }

    /// Sets the window aggregate (builder style).
    pub fn with_window(mut self, spec: WindowSpec) -> Self {
        self.window = Some(spec);
        self
    }

    /// Sets the grouped aggregation (builder style).
    pub fn with_group_by(mut self, spec: GroupBySpec) -> Self {
        self.group_by = Some(spec);
        self
    }

    /// Sets the join (builder style; resolved against the session's
    /// registered streams).
    pub fn with_join(mut self, spec: JoinSpec) -> Self {
        self.join = Some(spec);
        self
    }

    /// Sets the result ordering (builder style).
    pub fn with_order_by(mut self, column: impl Into<String>, descending: bool) -> Self {
        self.order_by = Some((column.into(), descending));
        self
    }

    /// Sets the result limit (builder style).
    pub fn with_limit(mut self, limit: usize) -> Self {
        self.limit = Some(limit);
        self
    }
}

impl Query {
    /// Renders the physical plan as indented text (`EXPLAIN` output):
    /// one line per operator, source at the bottom, in execution order.
    pub fn explain(&self, from: &str) -> String {
        let mut stages: Vec<String> = Vec::new();
        stages.push(format!("Scan [{from}]"));
        if let Some(j) = &self.join {
            stages.push(format!("HashJoin [ON {} WITH {}]", j.key, j.right));
        }
        if let Some(p) = &self.predicate {
            stages.push(format!("Filter [{p:?}]"));
        }
        if let Some(w) = &self.window {
            let mode = match w.mode {
                WindowMode::Count(size) => format!("SIZE {size}"),
                WindowMode::Time { width, min_tuples } => {
                    format!("RANGE {width} MIN {min_tuples}")
                }
            };
            stages.push(format!("WindowAgg [{:?}({}) {mode}]", w.kind, w.column));
        }
        if let Some(g) = &self.group_by {
            stages.push(format!("GroupBy [{} -> {:?}({})]", g.key, g.kind, g.column));
        }
        if let Some((pred, mode)) = &self.significance {
            stages.push(format!("SigFilter [{pred:?} @ {mode:?}]"));
        }
        if !self.projections.is_empty() {
            let cols: Vec<String> =
                self.projections.iter().map(|p| format!("{} := {}", p.name, p.expr)).collect();
            stages.push(format!("Project [{}]", cols.join(", ")));
        }
        if let Some((col, desc)) = &self.order_by {
            stages.push(format!("Sort [{col} {}]", if *desc { "DESC" } else { "ASC" }));
        }
        if let Some(n) = self.limit {
            stages.push(format!("Limit [{n}]"));
        }
        // Print top-down: last stage first, each deeper stage indented.
        stages
            .iter()
            .rev()
            .enumerate()
            .map(|(depth, s)| format!("{}{s}", "  ".repeat(depth)))
            .collect::<Vec<_>>()
            .join("\n")
    }
}

/// Runs a query over a source stream, returning the result schema and the
/// materialized result tuples.
///
/// Join steps require a [`Session`] to resolve the right side; use
/// [`Session::run`] for queries with a [`JoinSpec`].
pub fn execute<S: TupleStream + 'static>(
    source: S,
    query: &Query,
    config: QueryConfig,
) -> Result<(Schema, Vec<Tuple>), EngineError> {
    if query.join.is_some() {
        return Err(EngineError::InvalidQuery(
            "queries with a JOIN must run through Session::run".into(),
        ));
    }
    execute_registered(Box::new(source), query, config, &mut MetricsRegistry::new())
}

/// Builds the operator pipeline, registering each operator's metrics
/// handle in construction (source-side first) order.
fn build_pipeline(
    source: Box<dyn TupleStream>,
    query: &Query,
    config: QueryConfig,
    registry: &mut MetricsRegistry,
) -> Result<Box<dyn TupleStream>, EngineError> {
    let mut stream: Box<dyn TupleStream> = source;
    if let Some(pred) = &query.predicate {
        let op =
            Filter::new(stream, pred.clone(), config.accuracy, config.mc_iters, config.seed ^ 0x1);
        registry.register(op.metrics());
        stream = Box::new(op);
    }
    if let Some(spec) = &query.window {
        stream = match spec.mode {
            WindowMode::Count(size) => {
                let op = WindowAgg::new(
                    stream,
                    spec.column.clone(),
                    spec.kind,
                    size,
                    config.accuracy,
                    config.seed ^ 0x2,
                )?;
                registry.register(op.metrics());
                Box::new(op)
            }
            WindowMode::Time { width, min_tuples } => {
                let op = crate::ops::TimeWindowAgg::new(
                    stream,
                    spec.column.clone(),
                    spec.kind,
                    width,
                    min_tuples,
                    config.accuracy,
                    config.seed ^ 0x2,
                )?;
                registry.register(op.metrics());
                Box::new(op)
            }
        };
    }
    if let Some(spec) = &query.group_by {
        let op = GroupBy::new(
            stream,
            spec.key.clone(),
            spec.column.clone(),
            spec.kind,
            config.accuracy,
            config.seed ^ 0x5,
        )?;
        registry.register(op.metrics());
        stream = Box::new(op);
    }
    if let Some((pred, mode)) = &query.significance {
        let op = SigFilter::new(stream, pred.clone(), *mode, config.mc_iters, config.seed ^ 0x3);
        registry.register(op.metrics());
        stream = Box::new(op);
    }
    if !query.projections.is_empty() {
        let op = Project::new(
            stream,
            query.projections.clone(),
            config.accuracy,
            config.mc_iters,
            config.seed ^ 0x4,
        )?;
        registry.register(op.metrics());
        stream = Box::new(op);
    }
    Ok(stream)
}

/// Runs the pipeline and materializes results. A poisoned stream is
/// surfaced as its retained terminal [`EngineError`] instead of silent
/// truncation.
fn execute_registered(
    source: Box<dyn TupleStream>,
    query: &Query,
    config: QueryConfig,
    registry: &mut MetricsRegistry,
) -> Result<(Schema, Vec<Tuple>), EngineError> {
    let mut stream = build_pipeline(source, query, config, registry)?;
    let schema = stream.schema().clone();
    let mut tuples = stream.collect_all();
    if let Some(reason) = stream.status().poison() {
        return Err(obs::poison_error(reason));
    }
    if let Some((column, descending)) = &query.order_by {
        let idx = schema.index_of(column)?;
        let sort_key = |t: &Tuple| -> f64 {
            match &t.fields[idx].value {
                ausdb_model::Value::Dist(d) => d.mean(),
                other => other.as_f64().unwrap_or(f64::NAN),
            }
        };
        tuples.sort_by(|a, b| {
            let (ka, kb) = (sort_key(a), sort_key(b));
            let ord = ka.partial_cmp(&kb).unwrap_or(std::cmp::Ordering::Equal);
            if *descending {
                ord.reverse()
            } else {
                ord
            }
        });
    }
    if let Some(limit) = query.limit {
        tuples.truncate(limit);
    }
    Ok((schema, tuples))
}

/// A session holding named, registered streams.
///
/// Streams are materialized tuple collections (the benchmarks feed
/// generated data; a deployment would back this with live sources).
#[derive(Default)]
pub struct Session {
    streams: HashMap<String, (Schema, Vec<Tuple>)>,
    /// Batch size used when sourcing registered streams.
    pub batch_size: usize,
    /// Execution configuration for queries run through this session.
    pub config: QueryConfig,
}

impl Session {
    /// Creates a session with default configuration.
    pub fn new() -> Self {
        Self { streams: HashMap::new(), batch_size: 256, config: QueryConfig::default() }
    }

    /// Registers (or replaces) a named stream.
    pub fn register(&mut self, name: impl Into<String>, schema: Schema, tuples: Vec<Tuple>) {
        self.streams.insert(name.into().to_ascii_lowercase(), (schema, tuples));
    }

    /// Names and sizes of the registered streams, sorted by name.
    pub fn streams(&self) -> Vec<(String, usize)> {
        let mut v: Vec<(String, usize)> =
            self.streams.iter().map(|(k, (_, t))| (k.clone(), t.len())).collect();
        v.sort();
        v
    }

    /// Schema and tuples of a registered stream, if present (used by the
    /// server to snapshot registered stream contents).
    pub fn stream(&self, name: &str) -> Option<(&Schema, &[Tuple])> {
        self.streams.get(&name.to_ascii_lowercase()).map(|(s, t)| (s, t.as_slice()))
    }

    /// Removes a registered stream; returns whether it existed.
    pub fn drop_stream(&mut self, name: &str) -> bool {
        self.streams.remove(&name.to_ascii_lowercase()).is_some()
    }

    /// The schema of a registered stream.
    pub fn schema_of(&self, name: &str) -> Result<&Schema, EngineError> {
        self.streams
            .get(&name.to_ascii_lowercase())
            .map(|(s, _)| s)
            .ok_or_else(|| EngineError::InvalidQuery(format!("unknown stream '{name}'")))
    }

    /// Creates a fresh source stream over a registered stream's tuples.
    pub fn source(&self, name: &str) -> Result<VecStream, EngineError> {
        let (schema, tuples) = self
            .streams
            .get(&name.to_ascii_lowercase())
            .ok_or_else(|| EngineError::InvalidQuery(format!("unknown stream '{name}'")))?;
        Ok(VecStream::new(schema.clone(), tuples.clone(), self.batch_size))
    }

    /// Runs a query against a registered stream, resolving any join
    /// against the session's other registered streams.
    pub fn run(&self, from: &str, query: &Query) -> Result<(Schema, Vec<Tuple>), EngineError> {
        self.run_with_config(from, query, self.config)
    }

    /// [`Session::run`] with an explicit configuration (e.g. a per-query
    /// `WITH ACCURACY` override).
    pub fn run_with_config(
        &self,
        from: &str,
        query: &Query,
        config: QueryConfig,
    ) -> Result<(Schema, Vec<Tuple>), EngineError> {
        let mut registry = MetricsRegistry::new();
        self.run_registered(from, query, config, &mut registry)
    }

    /// [`Session::run`] that also returns the pipeline's [`StatsReport`]
    /// (including any join stage).
    pub fn run_with_stats(
        &self,
        from: &str,
        query: &Query,
    ) -> Result<(Schema, Vec<Tuple>, StatsReport), EngineError> {
        self.run_with_config_and_stats(from, query, self.config)
    }

    /// [`Session::run_with_stats`] with an explicit configuration. The
    /// metrics registry is purely observational: the `(schema, tuples)`
    /// result is bit-identical to [`Session::run_with_config`] with the
    /// same configuration.
    pub fn run_with_config_and_stats(
        &self,
        from: &str,
        query: &Query,
        config: QueryConfig,
    ) -> Result<(Schema, Vec<Tuple>, StatsReport), EngineError> {
        let mut registry = MetricsRegistry::new();
        let result = self.run_registered(from, query, config, &mut registry);
        let report = registry.report();
        let (schema, tuples) = result?;
        Ok((schema, tuples, report))
    }

    /// [`Session::run_with_config_and_stats`] that additionally records a
    /// hierarchical span tree for the query (one root span, one child per
    /// operator, grandchildren around bootstrap / Monte-Carlo hot paths).
    /// The finished trace is also pushed into the process-global
    /// [`ausdb_obs::span::ring`] for `TRACEX` / `--trace-json` export.
    /// Purely observational: `(schema, tuples)` stays bit-identical to
    /// [`Session::run_with_config`].
    pub fn run_with_config_traced(
        &self,
        from: &str,
        query: &Query,
        config: QueryConfig,
    ) -> Result<(Schema, Vec<Tuple>, StatsReport, ausdb_obs::span::Trace), EngineError> {
        let mut registry = MetricsRegistry::traced(&format!("query {from}"));
        let result = self.run_registered(from, query, config, &mut registry);
        if let Ok((_, tuples)) = &result {
            registry.root_attr("rows", ausdb_obs::span::AttrValue::U64(tuples.len() as u64));
        }
        let trace = registry.finish_trace().expect("a traced registry yields a trace");
        let report = registry.report();
        ausdb_obs::span::ring().push(trace.clone());
        let (schema, tuples) = result?;
        Ok((schema, tuples, report, trace))
    }

    fn run_registered(
        &self,
        from: &str,
        query: &Query,
        config: QueryConfig,
        registry: &mut MetricsRegistry,
    ) -> Result<(Schema, Vec<Tuple>), EngineError> {
        let source = self.source(from)?;
        match &query.join {
            None => execute_registered(Box::new(source), query, config, registry),
            Some(spec) => {
                let right = self.source(&spec.right)?;
                let joined = HashJoin::new(source, right, spec.key.clone())?;
                registry.register(joined.metrics());
                execute_registered(Box::new(joined), query, config, registry)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{BinOp, Expr};
    use crate::predicate::CmpOp;
    use ausdb_model::schema::{Column, ColumnType};
    use ausdb_model::tuple::Field;
    use ausdb_model::AttrDistribution;
    use ausdb_stats::htest::Alternative;

    fn road_schema() -> Schema {
        Schema::new(vec![
            Column::new("road_id", ColumnType::Int),
            Column::new("delay", ColumnType::Dist),
        ])
        .unwrap()
    }

    fn road_tuples() -> Vec<Tuple> {
        vec![
            // Road 19: barely-sampled, wide distribution around 64.
            Tuple::certain(
                0,
                vec![
                    Field::plain(19i64),
                    Field::learned(AttrDistribution::gaussian(64.0, 900.0).unwrap(), 3),
                ],
            ),
            // Road 20: well-sampled distribution around 65.
            Tuple::certain(
                1,
                vec![
                    Field::plain(20i64),
                    Field::learned(AttrDistribution::gaussian(65.0, 100.0).unwrap(), 50),
                ],
            ),
        ]
    }

    fn session() -> Session {
        let mut s = Session::new();
        s.register("t", road_schema(), road_tuples());
        s
    }

    #[test]
    fn introduction_query_threshold() {
        // SELECT Road_ID FROM t WHERE Delay >_{2/3} 50 — both roads clear
        // the threshold on their point distributions alone (the paper's
        // accuracy-oblivious outcome).
        let s = session();
        let q = Query::select_all()
            .with_predicate(Predicate::prob_threshold(
                Expr::col("delay"),
                CmpOp::Gt,
                50.0,
                2.0 / 3.0,
            ))
            .with_projections(vec![Projection::new("road_id", Expr::col("road_id"))]);
        let (schema, out) = s.run("t", &q).unwrap();
        assert_eq!(schema.len(), 1);
        assert_eq!(out.len(), 2, "accuracy-oblivious: both roads qualify");
    }

    #[test]
    fn significance_makes_the_difference() {
        // The same decision via pTest: road 19's 3 observations cannot make
        // "Pr[delay > 50] > 2/3" significant, road 20's 50 can... or not —
        // what matters is that the two roads are *distinguished*.
        let s = session();
        let sig = SigPredicate::p_test(
            Predicate::compare(Expr::col("delay"), CmpOp::Gt, 50.0),
            2.0 / 3.0,
        );
        let q = Query::select_all()
            .with_significance(sig, SigMode::Basic { alpha: 0.05 })
            .with_projections(vec![Projection::new("road_id", Expr::col("road_id"))]);
        let (_, out) = s.run("t", &q).unwrap();
        // Road 20: Pr[delay>50] = Φ(1.5) ≈ 0.933 with n=50 ⇒ significant.
        // Road 19: Pr ≈ 0.68 with n=3 ⇒ not significant.
        assert_eq!(out.len(), 1, "only the well-sampled road survives");
        assert_eq!(out[0].fields[0].value, ausdb_model::Value::Int(20));
    }

    #[test]
    fn full_pipeline_with_window() {
        // filter → window AVG → project.
        let mut s = Session::new();
        let schema = Schema::new(vec![Column::new("x", ColumnType::Dist)]).unwrap();
        let tuples: Vec<Tuple> = (0..10)
            .map(|i| {
                Tuple::certain(
                    i,
                    vec![Field::learned(
                        AttrDistribution::gaussian(10.0 + i as f64, 1.0).unwrap(),
                        30,
                    )],
                )
            })
            .collect();
        s.register("s", schema, tuples);
        let q = Query::select_all()
            .with_predicate(Predicate::compare(Expr::col("x"), CmpOp::Gt, 0.0))
            .with_window(WindowSpec::count("x", WindowAggKind::Avg, 4))
            .with_projections(vec![Projection::new(
                "scaled",
                Expr::bin(BinOp::Mul, Expr::col("avg_x"), Expr::Const(2.0)),
            )]);
        let (schema, out) = s.run("s", &q).unwrap();
        assert_eq!(schema.column(0).name, "scaled");
        assert_eq!(out.len(), 7);
        let d = out[0].fields[0].value.as_dist().unwrap();
        // First window: means 10..13 avg 11.5, ×2 = 23.
        assert!((d.mean() - 23.0).abs() < 1e-9);
    }

    #[test]
    fn window_then_significance() {
        // The Figure 5(f) shape: window AVG followed by an mTest.
        let mut s = Session::new();
        let schema = Schema::new(vec![Column::new("x", ColumnType::Dist)]).unwrap();
        let tuples: Vec<Tuple> = (0..8)
            .map(|i| {
                Tuple::certain(
                    i,
                    vec![Field::learned(AttrDistribution::gaussian(100.0, 4.0).unwrap(), 20)],
                )
            })
            .collect();
        s.register("s", schema, tuples);
        let sig = SigPredicate::m_test(Expr::col("avg_x"), Alternative::Greater, 90.0);
        let q = Query::select_all()
            .with_window(WindowSpec::count("x", WindowAggKind::Avg, 4))
            .with_significance(sig, SigMode::Basic { alpha: 0.05 });
        let (_, out) = s.run("s", &q).unwrap();
        assert_eq!(out.len(), 5, "all window averages are significantly > 90");
    }

    #[test]
    fn join_through_session() {
        let mut s = session();
        let limits_schema = Schema::new(vec![
            Column::new("road_id", ColumnType::Int),
            Column::new("speed_limit", ColumnType::Float),
        ])
        .unwrap();
        s.register(
            "limits",
            limits_schema,
            vec![
                Tuple::certain(0, vec![Field::plain(20i64), Field::plain(30.0)]),
                Tuple::certain(1, vec![Field::plain(99i64), Field::plain(55.0)]),
            ],
        );
        let q = Query::select_all()
            .with_join(crate::query::JoinSpec { right: "limits".into(), key: "road_id".into() });
        let (schema, out) = s.run("t", &q).unwrap();
        assert_eq!(schema.len(), 3);
        assert_eq!(out.len(), 1, "only road 20 appears in both streams");
        assert_eq!(out[0].fields[2].value, ausdb_model::Value::Float(30.0));
        // Joins cannot run through the session-less execute().
        let src = s.source("t").unwrap();
        assert!(execute(src, &q, s.config).is_err());
    }

    #[test]
    fn group_by_through_query() {
        let mut s = Session::new();
        let schema = Schema::new(vec![
            Column::new("sensor", ColumnType::Int),
            Column::new("temp", ColumnType::Dist),
        ])
        .unwrap();
        let mk = |sensor: i64, mu: f64, n: usize| {
            Tuple::certain(
                0,
                vec![
                    Field::plain(sensor),
                    Field::learned(AttrDistribution::gaussian(mu, 1.0).unwrap(), n),
                ],
            )
        };
        s.register("r", schema, vec![mk(1, 10.0, 20), mk(1, 14.0, 8), mk(2, 50.0, 30)]);
        let q = Query::select_all().with_group_by(crate::query::GroupBySpec {
            key: "sensor".into(),
            column: "temp".into(),
            kind: crate::ops::GroupAggKind::Avg,
        });
        let (schema, out) = s.run("r", &q).unwrap();
        assert_eq!(schema.column(1).name, "avg_temp");
        assert_eq!(out.len(), 2);
        let d = out[0].fields[1].value.as_dist().unwrap();
        assert!((d.mean() - 12.0).abs() < 1e-12);
        assert_eq!(out[0].fields[1].sample_size, Some(8), "Lemma 3 over the group");
    }

    #[test]
    fn explain_renders_every_stage() {
        let q = Query::select_all()
            .with_join(crate::query::JoinSpec { right: "limits".into(), key: "road_id".into() })
            .with_predicate(Predicate::compare(Expr::col("delay"), CmpOp::Gt, 50.0))
            .with_window(WindowSpec::count("delay", WindowAggKind::Avg, 8))
            .with_projections(vec![Projection::new("d", Expr::col("avg_delay"))])
            .with_order_by("d", true)
            .with_limit(5);
        let plan = q.explain("roads");
        for needle in [
            "Scan [roads]",
            "HashJoin",
            "Filter",
            "WindowAgg",
            "Project",
            "Sort [d DESC]",
            "Limit [5]",
        ] {
            assert!(plan.contains(needle), "missing {needle} in:\n{plan}");
        }
        // Scan is the innermost (most indented, last) line.
        assert!(plan.lines().last().unwrap().trim_start().starts_with("Scan"));
    }

    #[test]
    fn stats_report_for_window_sigfilter_pipeline() {
        // The acceptance pipeline: window AVG → significance filter, with
        // enough spread that some outcomes are TRUE and some FALSE.
        let mut s = Session::new();
        let schema = Schema::new(vec![Column::new("x", ColumnType::Dist)]).unwrap();
        let tuples: Vec<Tuple> = (0..8)
            .map(|i| {
                let mu = if i < 4 { 100.0 } else { 60.0 };
                Tuple::certain(
                    i,
                    vec![Field::learned(AttrDistribution::gaussian(mu, 4.0).unwrap(), 20)],
                )
            })
            .collect();
        s.register("s", schema, tuples);
        let sig = SigPredicate::m_test(Expr::col("avg_x"), Alternative::Greater, 90.0);
        let q = Query::select_all()
            .with_window(WindowSpec::count("x", WindowAggKind::Avg, 4))
            .with_significance(sig, SigMode::Basic { alpha: 0.05 });
        let (_, out, report) = s.run_with_stats("s", &q).unwrap();
        assert!(!out.is_empty());
        let window = report.op("WindowAgg").expect("window stats present");
        assert_eq!(window.tuples_in, 8);
        assert_eq!(window.tuples_out, 5, "window of 4 over 8 tuples");
        let sig = report.op("SigFilter").expect("sigfilter stats present");
        assert_eq!(sig.tuples_in, 5);
        assert!(sig.tuples_out > 0 && sig.tuples_out < 5);
        assert!(sig.dropped_total() > 0, "some averages are not significant");
        assert!(sig.decided_true > 0 && sig.decided_false > 0);
        assert_eq!(sig.tuples_out + sig.dropped_total(), sig.tuples_in);
        assert!(report.poison().is_none());
        // The Display tree lists the consumer-side operator first.
        let text = report.to_string();
        let sig_line = text.lines().position(|l| l.contains("SigFilter")).unwrap();
        let win_line = text.lines().position(|l| l.contains("WindowAgg")).unwrap();
        assert!(sig_line < win_line, "{text}");
    }

    #[test]
    fn poisoned_pipeline_surfaces_terminal_error() {
        // An out-of-order stream through a time window: execute() must
        // return the retained EngineError, not a silently truncated result.
        let mut s = Session::new();
        let schema = Schema::new(vec![Column::new("x", ColumnType::Dist)]).unwrap();
        let mk = |ts: u64| {
            Tuple::certain(
                ts,
                vec![Field::learned(AttrDistribution::gaussian(1.0, 1.0).unwrap(), 10)],
            )
        };
        s.register("s", schema, vec![mk(10), mk(5)]);
        let q = Query::select_all().with_window(WindowSpec::time("x", WindowAggKind::Avg, 10, 1));
        let err = s.run("s", &q).unwrap_err();
        assert!(
            matches!(&err, EngineError::Eval(m) if m.contains("out-of-order timestamp 5 after 10")),
            "got {err:?}"
        );
        // run_with_stats reports the poison too, attributed to the operator.
        let err2 = s.run_with_stats("s", &q).unwrap_err();
        assert_eq!(err, err2);
    }

    #[test]
    fn traced_run_is_bit_identical_and_yields_span_tree() {
        use ausdb_obs::span::AttrValue;
        let mut s = Session::new();
        let schema = Schema::new(vec![Column::new("x", ColumnType::Dist)]).unwrap();
        let tuples: Vec<Tuple> = (0..8)
            .map(|i| {
                Tuple::certain(
                    i,
                    vec![Field::learned(
                        AttrDistribution::gaussian(10.0 + i as f64, 1.0).unwrap(),
                        30,
                    )],
                )
            })
            .collect();
        s.register("s", schema, tuples);
        let q = Query::select_all()
            .with_predicate(Predicate::compare(Expr::col("x"), CmpOp::Gt, 0.0))
            .with_window(WindowSpec::count("x", WindowAggKind::Avg, 4));
        let config = QueryConfig {
            accuracy: crate::ops::AccuracyMode::Bootstrap { level: 0.9, mc_values: 200 },
            ..QueryConfig::default()
        };
        let plain = s.run_with_config("s", &q, config).unwrap();
        let (schema2, tuples2, report, trace) = s.run_with_config_traced("s", &q, config).unwrap();
        assert_eq!(plain, (schema2, tuples2.clone()), "tracing never changes results");
        trace.check_well_formed().unwrap();
        let root = trace.root().unwrap();
        assert_eq!(root.name, "query s");
        assert_eq!(root.attr("rows"), Some(&AttrValue::U64(tuples2.len() as u64)));
        let ops: Vec<&str> = trace.children(root.id).iter().map(|s| s.name.as_str()).collect();
        assert_eq!(ops, ["Filter", "WindowAgg"]);
        let agg = trace.children(root.id)[1];
        // The accuracy attributes of the paper ride on the operator span.
        assert_eq!(agg.attr("df_n"), Some(&AttrValue::U64(30)));
        assert!(agg.attr("ci_width").is_some(), "{}", trace.render_tree());
        assert!(agg.attr("resamples").is_some(), "{}", trace.render_tree());
        assert!(agg.attr("busy_ms").is_some(), "tracing forces per-op timing");
        assert!(
            trace.children(agg.id).iter().any(|s| s.name == "bootstrap_accuracy"),
            "{}",
            trace.render_tree()
        );
        // The stats report carries the same accuracy aggregates.
        let agg_stats = report.op("WindowAgg").unwrap();
        assert_eq!(agg_stats.df_n_min, Some(30));
        assert!(agg_stats.ci_width_mean.is_some());
        // The finished trace landed in the process-global ring.
        assert!(ausdb_obs::span::ring()
            .snapshot()
            .iter()
            .any(|t| t.root().is_some_and(|r| r.name == "query s")));
    }

    #[test]
    fn session_stream_management() {
        let mut s = session();
        assert_eq!(s.streams(), vec![("t".to_string(), 2)]);
        assert!(s.drop_stream("T"));
        assert!(!s.drop_stream("t"));
        assert!(s.streams().is_empty());
    }

    #[test]
    fn unknown_stream_rejected() {
        let s = session();
        assert!(s.run("missing", &Query::select_all()).is_err());
        assert!(s.schema_of("missing").is_err());
        assert!(s.schema_of("T").is_ok(), "stream names are case-insensitive");
    }
}
