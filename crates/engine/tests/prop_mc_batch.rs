//! Property test for the batched Monte-Carlo pipeline: `monte_carlo_batch`
//! is statistically equivalent to the per-draw reference `monte_carlo` for
//! every attribute-distribution kind.

use ausdb_engine::expr::{BinOp, Expr, UnaryOp};
use ausdb_engine::mc::{monte_carlo, monte_carlo_batch};
use ausdb_model::schema::{Column, ColumnType, Schema};
use ausdb_model::tuple::{Field, Tuple};
use ausdb_model::AttrDistribution;
use ausdb_stats::rng::seeded;
use proptest::prelude::*;

/// One distribution per variant, parameterized by two generated floats so
/// cases explore different shapes. `kind` covers the full enum.
fn make_dist(kind: usize, a: f64, spread: f64) -> AttrDistribution {
    let s = 0.25 + spread.abs();
    match kind {
        0 => AttrDistribution::Point(a),
        1 => AttrDistribution::gaussian(a, s).unwrap(),
        2 => AttrDistribution::Histogram(
            ausdb_model::Histogram::new(
                vec![a, a + s, a + 2.0 * s, a + 4.0 * s],
                vec![0.2, 0.5, 0.3],
            )
            .unwrap(),
        ),
        3 => AttrDistribution::discrete(vec![
            (a, 0.1),
            (a + s, 0.4),
            (a + 2.0 * s, 0.3),
            (a + 3.0 * s, 0.2),
        ])
        .unwrap(),
        _ => AttrDistribution::empirical(vec![a - s, a, a + 0.5 * s, a + 2.0 * s]).unwrap(),
    }
}

fn setup(kx: usize, ky: usize, a: f64, spread: f64) -> (Schema, Tuple) {
    let schema =
        Schema::new(vec![Column::new("x", ColumnType::Dist), Column::new("y", ColumnType::Dist)])
            .unwrap();
    let tuple = Tuple::certain(
        0,
        vec![
            Field::learned(make_dist(kx, a, spread), 16),
            Field::learned(make_dist(ky, -a, 2.0 * spread), 16),
        ],
    );
    (schema, tuple)
}

/// The Fig. 5c-style compound expression exercising every operator class.
fn workload_expr() -> Expr {
    Expr::bin(
        BinOp::Add,
        Expr::un(UnaryOp::SqrtAbs, Expr::bin(BinOp::Mul, Expr::col("x"), Expr::col("y"))),
        Expr::bin(BinOp::Div, Expr::col("x"), Expr::Const(2.0)),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn batch_statistically_equivalent_to_reference(
        kx in 0usize..5,
        ky in 0usize..5,
        a in -20.0..=20.0f64,
        spread in 0.1..=4.0f64,
        seed in 0u64..1_000_000,
    ) {
        let (schema, tuple) = setup(kx, ky, a, spread);
        let e = workload_expr();
        let m = 6000;
        let reference = monte_carlo(&e, &tuple, &schema, m, &mut seeded(seed)).unwrap();
        let batch = monte_carlo_batch(&e, &tuple, &schema, m, &mut seeded(seed ^ 0x5bd1)).unwrap();
        prop_assert_eq!(batch.len(), m);
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        let var = |v: &[f64], mu: f64| {
            v.iter().map(|x| (x - mu) * (x - mu)).sum::<f64>() / (v.len() as f64 - 1.0)
        };
        let (mr, mb) = (mean(&reference), mean(&batch));
        let se = ((var(&reference, mr) + var(&batch, mb)) / m as f64).sqrt();
        // Two independent m-sample means differ by ~N(0, se²); 6 s.e. keeps
        // false failures negligible across all cases while still catching a
        // kernel drawing from the wrong distribution.
        prop_assert!(
            (mr - mb).abs() <= 6.0 * se + 1e-9,
            "kinds ({kx},{ky}): reference mean {mr} vs batch mean {mb} (se {se})"
        );
    }
}
