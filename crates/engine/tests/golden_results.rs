//! Golden-file test pinning the **absolute** result bits of every place
//! the engine attaches accuracy to a result field.
//!
//! The server's golden transcript covers `SELECT *`, `PROB`, one linear
//! analytical projection and one closed-form bootstrap; the benchmark
//! oracle replays the same engine it checks. Neither would notice a
//! refactor that moved a bit in a Monte-Carlo projection, a window or a
//! group aggregate. This test runs one fixed-seed session through every
//! attach site × {`NONE`, `ANALYTICAL`, `BOOTSTRAP`} and compares tuples
//! (derived `Debug`: `f64` prints as its shortest round-trip text) and the
//! per-operator accuracy attribution with a file. To accept a deliberate
//! change of result bits:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p ausdb-engine --test golden_results
//! ```

use std::fmt::Write as _;

use ausdb_engine::expr::{BinOp, Expr, UnaryOp};
use ausdb_engine::ops::{AccuracyMode, GroupAggKind, Projection, WindowAggKind};
use ausdb_engine::query::{GroupBySpec, Query, QueryConfig, Session, WindowSpec};
use ausdb_model::schema::{Column, ColumnType, Schema};
use ausdb_model::tuple::{Field, Tuple};
use ausdb_model::AttrDistribution;

const GOLDEN: &str = "tests/golden/results.txt";

/// Six readings on three keys: Gaussian `a` and `b` with uneven sample
/// sizes (so Lemma 3's minimum moves), a scalar `k`, and timestamps with
/// a gap wide enough that a `RANGE 10` window evicts.
fn session() -> Session {
    let schema = Schema::new(vec![
        Column::new("key", ColumnType::Int),
        Column::new("a", ColumnType::Dist),
        Column::new("b", ColumnType::Dist),
        Column::new("k", ColumnType::Float),
    ])
    .unwrap();
    let row = |ts: u64, key: i64, a: (f64, f64, usize), b: (f64, f64, usize), k: f64| {
        Tuple::certain(
            ts,
            vec![
                Field::plain(key),
                Field::learned(AttrDistribution::gaussian(a.0, a.1).unwrap(), a.2),
                Field::learned(AttrDistribution::gaussian(b.0, b.1).unwrap(), b.2),
                Field::plain(k),
            ],
        )
    };
    let tuples = vec![
        row(0, 1, (10.25, 4.0, 12), (20.5, 9.0, 8), 3.0),
        row(3, 2, (11.75, 2.5, 5), (18.125, 1.25, 9), 0.1),
        row(5, 1, (9.6, 0.7, 7), (22.3, 6.1, 11), 7.25),
        row(9, 3, (14.2, 3.3, 9), (19.9, 2.2, 6), 1.5),
        row(20, 2, (12.0, 1.0, 10), (21.0, 4.0, 10), 2.0),
        row(22, 1, (8.05, 5.5, 6), (17.4, 0.3, 12), 0.7),
    ];
    let mut s = Session::new();
    s.register("t", schema, tuples);
    s
}

fn queries() -> Vec<(&'static str, Query)> {
    let half_sum = Expr::bin(
        BinOp::Div,
        Expr::bin(BinOp::Add, Expr::col("a"), Expr::col("b")),
        Expr::Const(2.0),
    );
    let nonlinear = Expr::bin(
        BinOp::Add,
        Expr::un(UnaryOp::SqrtAbs, Expr::bin(BinOp::Mul, Expr::col("a"), Expr::col("b"))),
        Expr::bin(BinOp::Div, Expr::col("a"), Expr::Const(2.0)),
    );
    let window = |spec| Query::select_all().with_window(spec);
    let group = |kind| {
        Query::select_all().with_group_by(GroupBySpec {
            key: "key".into(),
            column: "a".into(),
            kind,
        })
    };
    vec![
        (
            "linear projection (pass-through, closed form, deterministic)",
            Query::select_all().with_projections(vec![
                Projection::new("key", Expr::col("key")),
                Projection::new("half_sum", half_sum),
                Projection::new("kk", Expr::bin(BinOp::Mul, Expr::col("k"), Expr::Const(2.0))),
            ]),
        ),
        (
            "non-linear projection (Monte Carlo)",
            Query::select_all().with_projections(vec![Projection::new("y", nonlinear)]),
        ),
        ("WINDOW AVG(a) SIZE 3", window(WindowSpec::count("a", WindowAggKind::Avg, 3))),
        ("WINDOW SUM(a) SIZE 3", window(WindowSpec::count("a", WindowAggKind::Sum, 3))),
        (
            "WINDOW AVG(k) SIZE 2 (scalar input)",
            window(WindowSpec::count("k", WindowAggKind::Avg, 2)),
        ),
        ("WINDOW AVG(a) RANGE 10 MIN 1", window(WindowSpec::time("a", WindowAggKind::Avg, 10, 1))),
        ("WINDOW SUM(a) RANGE 10 MIN 2", window(WindowSpec::time("a", WindowAggKind::Sum, 10, 2))),
        ("GROUP BY key AVG(a)", group(GroupAggKind::Avg)),
        ("GROUP BY key SUM(a)", group(GroupAggKind::Sum)),
        ("GROUP BY key COUNT(a)", group(GroupAggKind::Count)),
    ]
}

fn results() -> String {
    let session = session();
    let modes = [
        AccuracyMode::None,
        AccuracyMode::Analytical { level: 0.9 },
        AccuracyMode::Bootstrap { level: 0.9, mc_values: 60 },
    ];
    let mut out = String::new();
    for (label, query) in queries() {
        for accuracy in modes {
            // 48 Monte-Carlo values keep every empirical result printable
            // in full and still leave >= 2 resamples at the largest n (12).
            let config = QueryConfig { accuracy, mc_iters: 48, seed: 2012 };
            let (schema, tuples, report) =
                session.run_with_config_and_stats("t", &query, config).expect("query runs");
            writeln!(out, "## {label} | {accuracy:?}").unwrap();
            let columns: Vec<String> =
                schema.columns().iter().map(|c| format!("{}:{}", c.name, c.ty)).collect();
            writeln!(out, "schema {}", columns.join(" ")).unwrap();
            for tuple in &tuples {
                writeln!(out, "{tuple:?}").unwrap();
            }
            for op in &report.ops {
                writeln!(
                    out,
                    "op {} in={} out={} acc={} ci_width_mean={:?} df_n_min={:?} resamples={}",
                    op.name,
                    op.tuples_in,
                    op.tuples_out,
                    op.acc_count,
                    op.ci_width_mean,
                    op.df_n_min,
                    op.resamples
                )
                .unwrap();
            }
        }
    }
    out
}

#[test]
fn results_equal_the_golden_file() {
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all("tests/golden").expect("golden dir");
        std::fs::write(GOLDEN, results()).expect("write golden");
    }
    let want = std::fs::read_to_string(GOLDEN).expect("golden file (UPDATE_GOLDEN=1 to create)");
    let got = results();
    if got != want {
        let (line, (g, w)) = got
            .lines()
            .zip(want.lines())
            .enumerate()
            .find(|(_, (g, w))| g != w)
            .map_or((0, ("<length differs>", "")), |(i, gw)| (i + 1, gw));
        panic!("results differ from {GOLDEN} at line {line}\n got: {g}\nwant: {w}");
    }
}
