//! Monte-Carlo evaluation of expressions over probabilistic tuples.
//!
//! Query processing on uncertain streams is either Monte-Carlo based or
//! operates directly on distributions (Section III-B). This module covers
//! the first category — and also bridges the second: a closed-form result
//! distribution can be *sampled* into the same value-sequence shape, which
//! is exactly what `BOOTSTRAP-ACCURACY-INFO` consumes.

use ausdb_model::schema::Schema;
use ausdb_model::tuple::Tuple;
use ausdb_model::value::Value;
use ausdb_model::AttrDistribution;
use rand::Rng;

use crate::error::EngineError;
use crate::expr::{BatchDraws, Expr};

/// Produces `m` Monte-Carlo values of `expr` over `tuple` — the sequence
/// `v[0..m]` fed to `BOOTSTRAP-ACCURACY-INFO`. Each iteration draws one
/// observation per referenced uncertain column (a de-facto observation).
///
/// This per-draw transcription is the **reference**: the property tests,
/// the coverage tests and the paper figures compare against it. Operators
/// call [`monte_carlo_batch`].
pub fn monte_carlo<R: Rng + ?Sized>(
    expr: &Expr,
    tuple: &Tuple,
    schema: &Schema,
    m: usize,
    rng: &mut R,
) -> Result<Vec<f64>, EngineError> {
    assert!(m > 0, "need at least one Monte-Carlo iteration");
    let mut out = Vec::with_capacity(m);
    for _ in 0..m {
        out.push(expr.eval_sampled(tuple, schema, rng)?);
    }
    crate::obs::record_mc_draws(m);
    Ok(out)
}

/// Batched Monte Carlo, the one entry point operators use: draws all `m`
/// observations per referenced uncertain column up front into
/// structure-of-arrays buffers (one `sample_into` call per column, in the
/// first-appearance order `Expr::eval_sampled` consumes the generator),
/// then evaluates the expression column-wise with one tree walk for the
/// whole batch.
///
/// Statistically equivalent to [`monte_carlo`] — every iteration draws one
/// observation per referenced uncertain column from the same distribution —
/// but the bulk kernels may consume the generator differently, so the two
/// sequences are not draw-for-draw identical under a shared seed.
pub fn monte_carlo_batch<R: Rng + ?Sized>(
    expr: &Expr,
    tuple: &Tuple,
    schema: &Schema,
    m: usize,
    rng: &mut R,
) -> Result<Vec<f64>, EngineError> {
    assert!(m > 0, "need at least one Monte-Carlo iteration");
    let mut draws = BatchDraws::new(m);
    for name in expr.columns() {
        if let Value::Dist(d) = &tuple.field(schema, &name)?.value {
            d.sample_into(rng, draws.entry(&name));
        }
    }
    let out = expr.eval_batch(tuple, schema, &draws)?;
    crate::obs::record_mc_draws(m);
    Ok(out)
}

/// Samples `m` values from an already-materialized result distribution
/// (Section III-B category 2: "we directly get a distribution … thus we
/// sample from this distribution and also get a sequence of values").
/// Routed through the distribution's bulk kernel.
pub fn sample_distribution<R: Rng + ?Sized>(
    dist: &AttrDistribution,
    m: usize,
    rng: &mut R,
) -> Vec<f64> {
    assert!(m > 0, "need at least one sample");
    let mut out = vec![0.0; m];
    dist.sample_into(rng, &mut out);
    crate::obs::record_mc_draws(m);
    out
}

/// Estimates `Pr[expr > threshold]` by Monte Carlo — used for probability
/// predicates over compound expressions where no closed form exists.
pub fn prob_greater_mc<R: Rng + ?Sized>(
    expr: &Expr,
    tuple: &Tuple,
    schema: &Schema,
    threshold: f64,
    m: usize,
    rng: &mut R,
) -> Result<f64, EngineError> {
    let values = monte_carlo_batch(expr, tuple, schema, m, rng)?;
    Ok(values.iter().filter(|&&v| v > threshold).count() as f64 / m as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::BinOp;
    use ausdb_model::schema::{Column, ColumnType};
    use ausdb_model::tuple::Field;
    use ausdb_stats::rng::seeded;

    fn setup() -> (Schema, Tuple) {
        let schema = Schema::new(vec![
            Column::new("x", ColumnType::Dist),
            Column::new("y", ColumnType::Dist),
        ])
        .unwrap();
        let t = Tuple::certain(
            0,
            vec![
                Field::learned(AttrDistribution::gaussian(5.0, 1.0).unwrap(), 20),
                Field::learned(AttrDistribution::gaussian(3.0, 1.0).unwrap(), 20),
            ],
        );
        (schema, t)
    }

    #[test]
    fn monte_carlo_sequence_statistics() {
        let (schema, t) = setup();
        let e = Expr::bin(BinOp::Add, Expr::col("x"), Expr::col("y"));
        let mut rng = seeded(41);
        let vs = monte_carlo(&e, &t, &schema, 10_000, &mut rng).unwrap();
        assert_eq!(vs.len(), 10_000);
        let mean = vs.iter().sum::<f64>() / vs.len() as f64;
        assert!((mean - 8.0).abs() < 0.1);
    }

    #[test]
    fn sample_distribution_shape() {
        let d = AttrDistribution::gaussian(2.0, 1.0).unwrap();
        let mut rng = seeded(43);
        let vs = sample_distribution(&d, 5000, &mut rng);
        let mean = vs.iter().sum::<f64>() / vs.len() as f64;
        assert!((mean - 2.0).abs() < 0.1);
    }

    #[test]
    fn prob_greater_estimate() {
        let (schema, t) = setup();
        // Pr[X - Y > 0] with X−Y ~ N(2, 2): Φ(2/√2) ≈ 0.921.
        let e = Expr::bin(BinOp::Sub, Expr::col("x"), Expr::col("y"));
        let mut rng = seeded(47);
        let p = prob_greater_mc(&e, &t, &schema, 0.0, 20_000, &mut rng).unwrap();
        assert!((p - 0.921).abs() < 0.02, "p = {p}");
    }

    #[test]
    #[should_panic]
    fn zero_iterations_rejected() {
        let (schema, t) = setup();
        let mut rng = seeded(1);
        let _ = monte_carlo(&Expr::col("x"), &t, &schema, 0, &mut rng);
    }

    #[test]
    fn batch_matches_reference_statistics() {
        let (schema, t) = setup();
        let e = Expr::bin(BinOp::Add, Expr::col("x"), Expr::col("y"));
        let mut rng = seeded(41);
        let vs = monte_carlo_batch(&e, &t, &schema, 10_000, &mut rng).unwrap();
        assert_eq!(vs.len(), 10_000);
        let mean = vs.iter().sum::<f64>() / vs.len() as f64;
        assert!((mean - 8.0).abs() < 0.1, "batch mean {mean}");
    }
}
