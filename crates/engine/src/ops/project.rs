//! Projection operator: computes SELECT-list expressions with result
//! accuracy (Theorem 1 analytically, or `BOOTSTRAP-ACCURACY-INFO`).

use std::sync::Arc;

use ausdb_model::schema::{Column, ColumnType, Schema};
use ausdb_model::stream::{Batch, PoisonReason, StreamStatus, TupleStream};
use ausdb_model::tuple::{Field, Tuple};
use rand::rngs::StdRng;

use crate::accuracy::{gaussian_or_point, result_field, ResultRv};
use crate::dfsample::df_sample_size;
use crate::error::EngineError;
use crate::expr::Expr;
use crate::mc::monte_carlo_batch;
use crate::obs::{self, OpMetrics};
use crate::ops::AccuracyMode;

/// One SELECT-list item: an output name and its expression.
#[derive(Debug, Clone, PartialEq)]
pub struct Projection {
    /// Output column name.
    pub name: String,
    /// The expression to compute.
    pub expr: Expr,
}

impl Projection {
    /// Creates a named projection.
    pub fn new(name: impl Into<String>, expr: Expr) -> Self {
        Self { name: name.into(), expr }
    }
}

/// Computes each projection over each input tuple.
///
/// Evaluation strategy per expression, in order of preference:
/// 1. **Pass-through** — a bare column reference keeps the field (value,
///    sample size, and accuracy) as is.
/// 2. **Gaussian closed form** — linear expressions over Gaussian/point
///    inputs yield an exact Gaussian result.
/// 3. **Deterministic** — expressions over scalars evaluate directly.
/// 4. **Monte Carlo** — everything else produces `mc_values` de-facto
///    observations retained as an empirical result distribution.
///
/// In cases 2–4 the result's accuracy uses the de-facto sample size of
/// Lemma 3: analytically via Theorem 1, or through
/// `BOOTSTRAP-ACCURACY-INFO` over the Monte-Carlo value sequence.
pub struct Project<S> {
    input: S,
    projections: Vec<Projection>,
    mode: AccuracyMode,
    mc_values: usize,
    schema: Schema,
    rng: StdRng,
    metrics: Arc<OpMetrics>,
}

impl<S: TupleStream> Project<S> {
    /// Creates a projection operator. `mc_values` is the Monte-Carlo
    /// sequence length `m` for non-closed-form expressions.
    pub fn new(
        input: S,
        projections: Vec<Projection>,
        mode: AccuracyMode,
        mc_values: usize,
        seed: u64,
    ) -> Result<Self, EngineError> {
        if projections.is_empty() {
            return Err(EngineError::InvalidQuery("empty select list".into()));
        }
        let in_schema = input.schema();
        let mut cols = Vec::with_capacity(projections.len());
        for p in &projections {
            let uncertain = p.expr.columns().iter().any(|c| {
                in_schema
                    .index_of(c)
                    .map(|i| in_schema.column(i).ty == ColumnType::Dist)
                    .unwrap_or(false)
            });
            // Preserve the declared type for bare column references.
            let ty = if let Expr::Column(name) = &p.expr {
                in_schema.column(in_schema.index_of(name)?).ty
            } else if uncertain {
                ColumnType::Dist
            } else {
                ColumnType::Float
            };
            cols.push(Column::new(p.name.clone(), ty));
        }
        let schema = Schema::new(cols)?;
        Ok(Self {
            input,
            projections,
            mode,
            mc_values: mc_values.max(2),
            schema,
            rng: ausdb_stats::rng::seeded(seed),
            metrics: OpMetrics::new("Project"),
        })
    }

    /// This operator's metrics handle (clone before boxing the stream to
    /// keep the counters reachable).
    pub fn metrics(&self) -> Arc<OpMetrics> {
        self.metrics.clone()
    }

    fn project_tuple(&mut self, tuple: &Tuple) -> Result<Tuple, EngineError> {
        let in_schema = self.input.schema();
        let mut fields = Vec::with_capacity(self.projections.len());
        for proj in &self.projections {
            fields.push(project_field(
                &proj.expr,
                tuple,
                in_schema,
                self.mode,
                self.mc_values,
                &mut self.rng,
                &self.metrics,
            )?);
        }
        Ok(Tuple::with_membership(tuple.ts, fields, tuple.membership.clone()))
    }
}

/// Projects one expression over one tuple (see [`Project`] for the
/// strategy). `metrics` receives the accuracy attribution, and a traced
/// query gets `mc_eval` / `bootstrap_accuracy` child spans.
fn project_field(
    expr: &Expr,
    tuple: &Tuple,
    in_schema: &Schema,
    mode: AccuracyMode,
    default_mc_values: usize,
    rng: &mut StdRng,
    metrics: &OpMetrics,
) -> Result<Field, EngineError> {
    // 1. Pass-through for bare columns.
    if let Expr::Column(name) = expr {
        return Ok(tuple.field(in_schema, name)?.clone());
    }
    // 3. Fully deterministic expression.
    let Some(df_n) = df_sample_size(expr, tuple, in_schema)? else {
        return Ok(Field::plain(expr.eval_scalar(tuple, in_schema)?));
    };
    // 2. Gaussian closed form.
    let result = if let Some((mu, var)) = expr.eval_gaussian(tuple, in_schema)? {
        ResultRv::ClosedForm(gaussian_or_point(mu, var)?)
    } else {
        // 4. Monte Carlo.
        let m = match mode {
            AccuracyMode::Bootstrap { mc_values, .. } => mc_values,
            _ => default_mc_values,
        }
        .max(2 * df_n);
        ResultRv::Drawn(
            metrics.with_span("mc_eval", || monte_carlo_batch(expr, tuple, in_schema, m, rng))?,
        )
    };
    result_field(result, df_n, mode, rng, metrics)
}

impl<S: TupleStream> TupleStream for Project<S> {
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

impl<S: TupleStream> Project<S> {
    fn next_batch_inner(&mut self) -> Option<Batch> {
        let batch = self.input.next_batch()?;
        self.metrics.record_batch(batch.len());
        let mut out = Vec::with_capacity(batch.len());
        for tuple in &batch {
            match self.project_tuple(tuple) {
                Ok(t) => out.push(t),
                Err(e) => {
                    // The tuple could not be projected: drop it but record
                    // the cause instead of swallowing it.
                    self.metrics.record_error(PoisonReason::new("Project", e));
                }
            }
        }
        self.metrics.record_out(out.len());
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{BinOp, UnaryOp};
    use ausdb_model::stream::VecStream;
    use ausdb_model::value::Value;
    use ausdb_model::AttrDistribution;

    fn schema() -> Schema {
        Schema::new(vec![
            Column::new("a", ColumnType::Dist),
            Column::new("b", ColumnType::Dist),
            Column::new("k", ColumnType::Float),
        ])
        .unwrap()
    }

    fn stream() -> VecStream {
        let t = Tuple::certain(
            0,
            vec![
                Field::learned(AttrDistribution::gaussian(10.0, 4.0).unwrap(), 15),
                Field::learned(AttrDistribution::gaussian(20.0, 9.0).unwrap(), 10),
                Field::plain(3.0),
            ],
        );
        VecStream::new(schema(), vec![t], 10)
    }

    fn avg_ab() -> Expr {
        Expr::bin(
            BinOp::Div,
            Expr::bin(BinOp::Add, Expr::col("a"), Expr::col("b")),
            Expr::Const(2.0),
        )
    }

    #[test]
    fn example4_projection_with_analytical_accuracy() {
        // SELECT (A+B)/2: result Gaussian N(15, 3.25) with d.f. n = 10.
        let p = Project::new(
            stream(),
            vec![Projection::new("y1", avg_ab())],
            AccuracyMode::Analytical { level: 0.9 },
            500,
            11,
        )
        .unwrap();
        let mut p = p;
        let out = p.collect_all();
        assert_eq!(out.len(), 1);
        let f = &out[0].fields[0];
        assert_eq!(f.sample_size, Some(10), "Lemma 3: min(15, 10)");
        let d = f.value.as_dist().unwrap();
        assert!((d.mean() - 15.0).abs() < 1e-12);
        assert!((d.variance() - 3.25).abs() < 1e-12);
        let info = f.accuracy.as_ref().unwrap();
        assert!(info.mean_ci.unwrap().contains(15.0));
        assert_eq!(info.sample_size, 10);
    }

    #[test]
    fn bootstrap_mode_over_closed_form() {
        let mut p = Project::new(
            stream(),
            vec![Projection::new("y1", avg_ab())],
            AccuracyMode::Bootstrap { level: 0.9, mc_values: 600 },
            600,
            13,
        )
        .unwrap();
        let out = p.collect_all();
        let info = out[0].fields[0].accuracy.as_ref().unwrap();
        assert!(info.mean_ci.unwrap().contains(15.0), "{}", info.mean_ci.unwrap());
        assert_eq!(info.sample_size, 10);
    }

    #[test]
    fn monte_carlo_path_for_nonlinear() {
        // SQRT(ABS(a·b)) has no closed form: the result is empirical.
        let e = Expr::un(UnaryOp::SqrtAbs, Expr::bin(BinOp::Mul, Expr::col("a"), Expr::col("b")));
        let mut p = Project::new(
            stream(),
            vec![Projection::new("y", e)],
            AccuracyMode::Analytical { level: 0.9 },
            1000,
            17,
        )
        .unwrap();
        let out = p.collect_all();
        let f = &out[0].fields[0];
        let d = f.value.as_dist().unwrap();
        assert!(d.raw_sample().is_some(), "MC path retains the value sequence");
        // E[sqrt(|ab|)] ≈ sqrt(200) modulo Jensen effects; just sanity-band it.
        assert!(d.mean() > 10.0 && d.mean() < 16.0, "mean {}", d.mean());
        assert_eq!(f.sample_size, Some(10));
        assert!(f.accuracy.is_some());
    }

    #[test]
    fn deterministic_expression_stays_scalar() {
        let e = Expr::bin(BinOp::Mul, Expr::col("k"), Expr::Const(2.0));
        let mut p = Project::new(
            stream(),
            vec![Projection::new("kk", e)],
            AccuracyMode::Analytical { level: 0.9 },
            100,
            19,
        )
        .unwrap();
        let out = p.collect_all();
        let f = &out[0].fields[0];
        assert_eq!(f.value, Value::Float(6.0));
        assert!(f.accuracy.is_none(), "deterministic output needs no accuracy");
    }

    #[test]
    fn pass_through_preserves_provenance() {
        let mut p = Project::new(
            stream(),
            vec![Projection::new("a", Expr::col("a")), Projection::new("k", Expr::col("k"))],
            AccuracyMode::None,
            100,
            23,
        )
        .unwrap();
        assert_eq!(p.schema().column(0).ty, ColumnType::Dist);
        assert_eq!(p.schema().column(1).ty, ColumnType::Float);
        let out = p.collect_all();
        assert_eq!(out[0].fields[0].sample_size, Some(15));
    }

    #[test]
    fn unprojectable_tuple_recorded_not_swallowed() {
        // A tuple whose `a` is a string cannot evaluate (A+B)/2: it is
        // dropped, counted, and the cause surfaces via status().
        let bad = Tuple::certain(
            1,
            vec![
                Field::plain("oops"),
                Field::learned(AttrDistribution::gaussian(20.0, 9.0).unwrap(), 10),
                Field::plain(3.0),
            ],
        );
        let good = Tuple::certain(
            0,
            vec![
                Field::learned(AttrDistribution::gaussian(10.0, 4.0).unwrap(), 15),
                Field::learned(AttrDistribution::gaussian(20.0, 9.0).unwrap(), 10),
                Field::plain(3.0),
            ],
        );
        let s = VecStream::new(schema(), vec![good, bad], 10);
        let mut p =
            Project::new(s, vec![Projection::new("y1", avg_ab())], AccuracyMode::None, 100, 11)
                .unwrap();
        let out = p.collect_all();
        assert_eq!(out.len(), 1);
        let stats = p.metrics().snapshot();
        assert_eq!(stats.tuples_in, 2);
        assert_eq!(stats.tuples_out, 1);
        assert_eq!(stats.dropped(crate::obs::DropReason::Error), 1);
        assert_eq!(p.status().last_error().unwrap().operator(), "Project");
    }

    #[test]
    fn empty_select_list_rejected() {
        let r = Project::new(stream(), vec![], AccuracyMode::None, 100, 1);
        assert!(r.is_err());
    }

    #[test]
    fn unknown_column_rejected_at_plan_time() {
        let r = Project::new(
            stream(),
            vec![Projection::new("z", Expr::col("zzz"))],
            AccuracyMode::None,
            100,
            1,
        );
        assert!(r.is_err());
    }
}
