//! Injective text rendering of query results.
//!
//! `QUERY` responses must let a client prove bit-identical results across
//! processes, so this renderer is **injective on bits**: every `f64` is
//! written by the server's own number-to-text kernel (`numtext`:
//! the shortest positional decimal that parses back to the same bits, so
//! distinct finite bit patterns always produce distinct text — DESIGN.md
//! §5, "number text on the wire"), and every structural component
//! (accuracy intervals, membership CI, distribution parameters) is
//! included. Two tuples render to the same line iff they are equal; the
//! one exception is NaN, whose sign and payload are not printed.
//!
//! Numbers never pass through `core::fmt`: the only formatter call left
//! on the row path is the `{:?}` escape of [`Value::Str`].

use std::fmt::Write as _;

use ausdb_model::accuracy::{AccuracyInfo, TupleProbability};
use ausdb_model::dist::AttrDistribution;
use ausdb_model::schema::Schema;
use ausdb_model::tuple::{Field, Tuple};
use ausdb_model::value::Value;
use ausdb_stats::ci::ConfidenceInterval;

use crate::numtext::{push_f64, push_i64, push_u64};

/// Renders a schema as one line: `SCHEMA name:type ...`.
pub fn render_schema(schema: &Schema) -> String {
    let mut out = String::new();
    render_schema_into(&mut out, schema);
    out
}

/// Appends the `SCHEMA` line for `schema` to `out` (no trailing newline).
pub fn render_schema_into(out: &mut String, schema: &Schema) {
    out.push_str("SCHEMA");
    for col in schema.columns() {
        out.push(' ');
        out.push_str(&col.name);
        out.push_str(match col.ty {
            ausdb_model::schema::ColumnType::Int => ":int",
            ausdb_model::schema::ColumnType::Float => ":float",
            ausdb_model::schema::ColumnType::Bool => ":bool",
            ausdb_model::schema::ColumnType::Str => ":str",
            ausdb_model::schema::ColumnType::Dist => ":dist",
        });
    }
}

/// Renders one tuple as a `ROW` line.
pub fn render_row(tuple: &Tuple) -> String {
    let mut out = String::new();
    render_row_into(&mut out, tuple);
    out
}

/// Renders all tuples of a result, one line each, in order: the block
/// [`render_rows_into`] writes, split at its newlines (a string value's
/// own newlines are escaped), so each line is allocated once, at its size.
pub fn render_rows(tuples: &[Tuple]) -> Vec<String> {
    let mut block = String::new();
    render_rows_into(&mut block, tuples);
    block.split_terminator('\n').map(str::to_owned).collect()
}

/// Appends one tuple's `ROW` line to `out` (no trailing newline). This is
/// the only renderer: every other entry point wraps it, so a row reaches
/// a reply or an `EVENT` block without intermediate strings.
pub fn render_row_into(out: &mut String, tuple: &Tuple) {
    out.push_str("ROW ts=");
    push_u64(out, tuple.ts);
    out.push(' ');
    membership_into(out, &tuple.membership);
    for field in &tuple.fields {
        out.push(' ');
        field_into(out, field);
    }
}

/// Appends every tuple's `ROW` line to `out`, each terminated by `\n`.
pub fn render_rows_into(out: &mut String, tuples: &[Tuple]) {
    for tuple in tuples {
        render_row_into(out, tuple);
        out.push('\n');
    }
}

/// Renders one trace-journal entry as a `TRACE` protocol line. Journal
/// messages are newline-free by construction, so one entry is one line.
pub fn render_trace_entry(entry: &ausdb_obs::journal::Entry) -> String {
    format!("TRACE {entry}")
}

fn membership_into(out: &mut String, m: &TupleProbability) {
    out.push_str("p=");
    push_f64(out, m.p);
    if let Some(ci) = &m.ci {
        ci_into(out, ci);
    }
    if let Some(n) = m.sample_size {
        out.push_str("@n=");
        push_u64(out, n as u64);
    }
}

fn ci_into(out: &mut String, ci: &ConfidenceInterval) {
    out.push('[');
    push_f64(out, ci.lo);
    out.push(',');
    push_f64(out, ci.hi);
    out.push(';');
    push_f64(out, ci.level);
    out.push(']');
}

fn field_into(out: &mut String, field: &Field) {
    value_into(out, &field.value);
    if let Some(n) = field.sample_size {
        out.push_str("|n=");
        push_u64(out, n as u64);
    }
    if let Some(acc) = &field.accuracy {
        out.push('|');
        accuracy_into(out, acc);
    }
}

fn accuracy_into(out: &mut String, acc: &AccuracyInfo) {
    out.push_str("acc(n=");
    push_u64(out, acc.sample_size as u64);
    if let Some(ci) = &acc.mean_ci {
        out.push_str(",mean=");
        ci_into(out, ci);
    }
    if let Some(ci) = &acc.variance_ci {
        out.push_str(",var=");
        ci_into(out, ci);
    }
    if let Some(bins) = &acc.bin_cis {
        out.push_str(",bins=");
        for (i, ci) in bins.iter().enumerate() {
            if i > 0 {
                out.push('+');
            }
            ci_into(out, ci);
        }
    }
    out.push(')');
}

fn value_into(out: &mut String, value: &Value) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(i) => push_i64(out, *i),
        Value::Float(f) => push_f64(out, *f),
        // Escape whitespace so a string can never forge field boundaries.
        // `{:?}` is the one `core::fmt` call a row can still make.
        Value::Str(s) => {
            let _ = write!(out, "{s:?}");
        }
        Value::Dist(d) => dist_into(out, d),
    }
}

fn floats_into(out: &mut String, xs: &[f64]) {
    for (i, x) in xs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_f64(out, *x);
    }
}

fn dist_into(out: &mut String, d: &AttrDistribution) {
    match d {
        AttrDistribution::Point(v) => {
            out.push_str("point(");
            push_f64(out, *v);
            out.push(')');
        }
        AttrDistribution::Gaussian { mu, sigma2 } => {
            out.push_str("gauss(");
            push_f64(out, *mu);
            out.push(',');
            push_f64(out, *sigma2);
            out.push(')');
        }
        AttrDistribution::Histogram(h) => {
            out.push_str("hist(edges=");
            floats_into(out, h.edges());
            out.push_str(";probs=");
            floats_into(out, h.probs());
            out.push(')');
        }
        AttrDistribution::Discrete(pairs) => {
            out.push_str("disc(");
            for (i, (v, p)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(';');
                }
                push_f64(out, *v);
                out.push(':');
                push_f64(out, *p);
            }
            out.push(')');
        }
        AttrDistribution::Empirical(xs) => {
            out.push_str("emp(");
            floats_into(out, xs);
            out.push(')');
        }
    }
}

/// The renderer as it was when `core::fmt` wrote the numbers.
#[cfg(test)]
#[path = "../tests/support/display_oracle.rs"]
mod display_oracle;

#[cfg(test)]
mod tests {
    use super::display_oracle;
    use super::*;
    use ausdb_model::schema::{Column, ColumnType};
    use proptest::prelude::*;

    fn ci(lo: f64, hi: f64, level: f64) -> ConfidenceInterval {
        ConfidenceInterval::new(lo, hi, level)
    }

    /// One tuple per group of renderer variants. `GOLDEN` is their frozen
    /// wire text (captured from the renderer of PR 11, literal on purpose):
    /// clients compare these bytes across versions, so it must never move.
    fn golden_tuples() -> Vec<Tuple> {
        let hist =
            ausdb_model::dist::Histogram::new(vec![0.0, 0.5, 2.0], vec![0.25, 0.75]).unwrap();
        vec![
            Tuple::certain(
                0,
                vec![
                    Field::plain(Value::Null),
                    Field::plain(true),
                    Field::plain(false),
                    Field::plain(-42i64),
                    Field::plain(i64::MIN),
                    Field::plain("a b\t\"q\"\n\\ \u{e9}"),
                    Field::plain(""),
                ],
            ),
            Tuple::certain(
                u64::MAX,
                vec![
                    Field::plain(-0.0f64),
                    Field::plain(0.0f64),
                    Field::plain(f64::from_bits(1)),
                    Field::plain(1e300f64),
                    Field::plain(f64::MAX),
                    Field::plain(0.1f64 + 0.2),
                    Field::plain(1e16f64),
                    Field::plain(-1.5e-7f64),
                ],
            ),
            Tuple::with_membership(
                3,
                vec![
                    Field::plain(AttrDistribution::Point(-0.0)),
                    Field::learned(AttrDistribution::Gaussian { mu: -1.25, sigma2: 1e-7 }, 20),
                    Field::learned(AttrDistribution::Histogram(hist), 7).with_accuracy(
                        AccuracyInfo::new(7)
                            .with_bin_cis(vec![ci(0.1, 0.4, 0.9), ci(0.6, 0.9, 0.9)]),
                    ),
                    Field::plain(AttrDistribution::Discrete(vec![(1.0, 0.25), (-2.5, 0.75)])),
                    Field::learned(AttrDistribution::Empirical(vec![3.0, -0.0, 1e21]), 3),
                    Field::plain(AttrDistribution::Empirical(vec![0.30000000000000004])),
                ],
                TupleProbability::new(0.5).unwrap().with_ci(ci(0.4, 0.6, 0.9), 10),
            ),
            Tuple::with_membership(
                4,
                vec![
                    Field::plain(AttrDistribution::Gaussian { mu: 2.0, sigma2: 0.5 })
                        .with_accuracy(
                            AccuracyInfo::new(9)
                                .with_mean_ci(ci(1.0, 3.0, 0.9))
                                .with_variance_ci(ci(0.25, 1e22, 0.95))
                                .with_bin_cis(vec![ci(-0.0, 1.0, 0.5)]),
                        ),
                    Field::learned(1.5f64, 4).with_accuracy(AccuracyInfo::new(2)),
                    Field::plain(7i64).with_accuracy(
                        AccuracyInfo::new(5).with_variance_ci(ci(0.0, 2.5e-9, 0.99)),
                    ),
                ],
                TupleProbability { p: 0.25, ci: None, sample_size: Some(12) },
            ),
            Tuple::with_membership(
                5,
                vec![],
                TupleProbability { p: 0.0, ci: Some(ci(0.0, 1e-5, 0.9)), sample_size: None },
            ),
        ]
    }

    const GOLDEN: [&str; 5] = [
        "ROW ts=0 p=1 null true false -42 -9223372036854775808 \"a b\\t\\\"q\\\"\\n\\\\ é\" \"\"",
        "ROW ts=18446744073709551615 p=1 -0 0 0.000000000000000000000000000000000000000000000\
         000000000000000000000000000000000000000000000000000000000000000000000000000000000000\
         000000000000000000000000000000000000000000000000000000000000000000000000000000000000\
         000000000000000000000000000000000000000000000000000000000000000000000000000000000000\
         000000000000000000000000005 10000000000000000000000000000000000000000000000000000000\
         000000000000000000000000000000000000000000000000000000000000000000000000000000000000\
         000000000000000000000000000000000000000000000000000000000000000000000000000000000000\
         00000000000000000000000000000000000000000000000000000000000000000000000000000 179769\
         313486231570000000000000000000000000000000000000000000000000000000000000000000000000\
         000000000000000000000000000000000000000000000000000000000000000000000000000000000000\
         000000000000000000000000000000000000000000000000000000000000000000000000000000000000\
         000000000000000000000000000000000000000000000000000 0.30000000000000004 100000000000\
         00000 -0.00000015",
        "ROW ts=3 p=0.5[0.4,0.6;0.9]@n=10 point(-0) gauss(-1.25,0.0000001)|n=20 hist(edges=0,\
         0.5,2;probs=0.25,0.75)|n=7|acc(n=7,bins=[0.1,0.4;0.9]+[0.6,0.9;0.9]) disc(1:0.25;-2.\
         5:0.75) emp(3,-0,1000000000000000000000)|n=3 emp(0.30000000000000004)",
        "ROW ts=4 p=0.25@n=12 gauss(2,0.5)|n=9|acc(n=9,mean=[1,3;0.9],var=[0.25,1000000000000\
         0000000000;0.95],bins=[-0,1;0.5]) 1.5|n=4|acc(n=2) 7|n=5|acc(n=5,var=[0,0.0000000025\
         ;0.99])",
        "ROW ts=5 p=0[0,0.00001;0.9]",
    ];

    #[test]
    fn frozen_golden_lines() {
        let tuples = golden_tuples();
        assert_eq!(render_rows(&tuples), GOLDEN);
        let mut block = String::new();
        render_rows_into(&mut block, &tuples);
        assert_eq!(block, GOLDEN.map(|l| format!("{l}\n")).concat());
    }

    /// Every `f64` of `t` that reaches the wire, histograms excepted
    /// (their fields are private; the golden lines cover them).
    fn floats_mut(t: &mut Tuple) -> Vec<&mut f64> {
        fn ci_mut(ci: &mut ConfidenceInterval) -> [&mut f64; 3] {
            [&mut ci.lo, &mut ci.hi, &mut ci.level]
        }
        let mut out = vec![&mut t.membership.p];
        out.extend(t.membership.ci.iter_mut().flat_map(ci_mut));
        for field in &mut t.fields {
            match &mut field.value {
                Value::Float(f) => out.push(f),
                Value::Dist(AttrDistribution::Point(v)) => out.push(v),
                Value::Dist(AttrDistribution::Gaussian { mu, sigma2 }) => out.extend([mu, sigma2]),
                Value::Dist(AttrDistribution::Discrete(pairs)) => {
                    out.extend(pairs.iter_mut().flat_map(|(v, p)| [v, p]));
                }
                Value::Dist(AttrDistribution::Empirical(xs)) => out.extend(xs.iter_mut()),
                _ => {}
            }
            if let Some(acc) = &mut field.accuracy {
                out.extend(acc.mean_ci.iter_mut().flat_map(ci_mut));
                out.extend(acc.variance_ci.iter_mut().flat_map(ci_mut));
                out.extend(acc.bin_cis.iter_mut().flatten().flat_map(ci_mut));
            }
        }
        out
    }

    proptest! {
        #[test]
        fn wrappers_are_the_split_of_the_writer(picks in prop::collection::vec(0usize..5, 0..12)) {
            let golden = golden_tuples();
            let tuples: Vec<Tuple> = picks.iter().map(|&i| golden[i].clone()).collect();
            let mut block = String::from("EVENT 1 WINDOW 0 ROWS n\n");
            render_rows_into(&mut block, &tuples);
            let body = block.strip_prefix("EVENT 1 WINDOW 0 ROWS n\n").unwrap();
            let split: Vec<&str> = body.split_terminator('\n').collect();
            prop_assert_eq!(render_rows(&tuples), split);
            prop_assert_eq!(body.matches('\n').count(), tuples.len());
        }

        #[test]
        fn one_flipped_bit_renders_differently(
            which in 0usize..5,
            slot in 0usize..64,
            bit in 0u32..64,
        ) {
            let a = golden_tuples().swap_remove(which);
            let mut b = a.clone();
            {
                let mut floats = floats_mut(&mut b);
                let n = floats.len();
                let f = &mut floats[slot % n];
                let flipped = f64::from_bits(f.to_bits() ^ (1u64 << bit));
                // The one place the renderer is not injective: every NaN
                // prints "NaN", whatever its sign and payload. Results can
                // carry one (an overflowing scalar projection: inf - inf);
                // `non_finite_values_match_the_oracle` and loopback's
                // `non_finite_query_results_match_the_display_oracle` pin
                // the text.
                prop_assume!(!flipped.is_nan());
                **f = flipped;
            }
            prop_assert_ne!(render_row(&a), render_row(&b));
        }
    }

    #[test]
    fn distinct_bits_render_distinctly() {
        // Number text is shortest-round-trip: nextafter(1.0) ≠ "1".
        let a = Tuple::certain(0, vec![Field::plain(1.0f64)]);
        let b = Tuple::certain(0, vec![Field::plain(f64::from_bits(1.0f64.to_bits() + 1))]);
        assert_ne!(render_row(&a), render_row(&b));
    }

    /// Schema and rows through the shipped renderer and through the
    /// `Display` oracle.
    fn both_renderings(schema: &Schema, tuples: &[Tuple]) -> (String, String) {
        let (mut ours, mut oracle) = (String::new(), String::new());
        render_schema_into(&mut ours, schema);
        ours.push('\n');
        render_rows_into(&mut ours, tuples);
        display_oracle::render_schema_into(&mut oracle, schema);
        oracle.push('\n');
        display_oracle::render_rows_into(&mut oracle, tuples);
        (ours, oracle)
    }

    #[test]
    fn golden_tuples_match_the_oracle() {
        let schema = Schema::new(vec![Column::new("v", ColumnType::Float)]).unwrap();
        let (ours, oracle) = both_renderings(&schema, &golden_tuples());
        assert_eq!(ours, oracle);
    }

    #[test]
    fn non_finite_values_match_the_oracle() {
        let specials = [
            f64::NAN,
            -f64::NAN,
            f64::from_bits(0x7ff0_0000_0000_0001),
            f64::INFINITY,
            f64::NEG_INFINITY,
            -0.0,
            5e-324,
            1e21,
        ];
        let tuples = vec![
            Tuple::certain(1, specials.iter().map(|&x| Field::plain(x)).collect()),
            Tuple::with_membership(
                2,
                vec![
                    Field::plain(AttrDistribution::Empirical(specials.to_vec())),
                    Field::plain(AttrDistribution::Gaussian {
                        mu: f64::NAN,
                        sigma2: f64::INFINITY,
                    })
                    .with_accuracy(
                        AccuracyInfo::new(0)
                            .with_mean_ci(ci(f64::NEG_INFINITY, f64::INFINITY, 0.9))
                            .with_variance_ci(ci(f64::NAN, f64::NAN, 0.5)),
                    ),
                ],
                TupleProbability {
                    p: f64::NAN,
                    ci: Some(ci(-0.0, 5e-324, 0.9)),
                    sample_size: None,
                },
            ),
        ];
        let schema = Schema::new(vec![Column::new("v", ColumnType::Float)]).unwrap();
        let (ours, oracle) = both_renderings(&schema, &tuples);
        assert_eq!(ours, oracle);
        assert!(ours.contains("ROW ts=1 p=1 NaN NaN NaN inf -inf -0 0.000"), "{ours}");
        assert!(ours.contains("mean=[-inf,inf;0.9],var=[NaN,NaN;0.5]"), "{ours}");
    }

    /// One `CartelSim` window through the six benchmark-shaped queries
    /// (`benchmark/src/input.rs::query_set`), the 1000-point `emp(…)` of
    /// the Monte-Carlo one included: block for block the bytes of the
    /// `Display` oracle.
    #[test]
    fn benchmark_shaped_blocks_match_the_oracle() {
        use ausdb_learn::learner::{LearnerConfig, RawObservation};
        const KEYS: usize = 24;
        const WINDOW: u64 = 60;
        let sim = ausdb_datagen::CartelSim::new(KEYS, 15);
        let mut means: Vec<f64> = sim.segments().iter().map(|s| s.true_mean()).collect();
        means.sort_by(f64::total_cmp);
        let t = (means[KEYS / 2] * 1000.0).round() / 1000.0;

        let mut rng = ausdb_stats::rng::substream(15, 0xBE7C);
        let mut rows: Vec<RawObservation> = (0..KEYS * 20)
            .map(|i| {
                let key = i % KEYS;
                let ts = (i / KEYS) as u64 * 3;
                RawObservation::new(key as i64, ts, sim.segments()[key].observe(&mut rng))
            })
            .collect();
        rows.push(RawObservation::new(0, WINDOW, 1.0)); // closes window 0
        let state = crate::shard::ShardSet::new(crate::state::EngineConfig {
            learner: LearnerConfig::gaussian(WINDOW),
            max_subscribers: 1,
            queue_cap: 1,
            shards: 1,
        });
        assert_eq!(state.ingest_batch("traffic", &rows).unwrap().windows_emitted, 1);

        let queries = [
            "SELECT * FROM traffic".to_string(),
            format!("SELECT key, value FROM traffic WHERE value > {t} PROB 0.5"),
            format!("SELECT key FROM traffic HAVING MTEST(value, '>', {t}, 0.05, 0.05)"),
            "SELECT key, value * 2 AS d FROM traffic WITH ACCURACY ANALYTICAL LEVEL 0.9"
                .to_string(),
            "SELECT key, value * 2 AS d FROM traffic WITH ACCURACY BOOTSTRAP LEVEL 0.9 SAMPLES 200"
                .to_string(),
            format!(
                "SELECT key, SQRT(ABS(value - {t})) * SQUARE(value) / 2 AS z FROM traffic \
                 WITH ACCURACY ANALYTICAL LEVEL 0.9"
            ),
        ];
        let mut emp_points = 0;
        for sql in &queries {
            let crate::state::QueryReply::Rows(schema, tuples) = state.query(sql).unwrap() else {
                panic!("SELECT returns rows");
            };
            assert!(!tuples.is_empty(), "{sql}");
            let (ours, oracle) = both_renderings(&schema, &tuples);
            assert!(ours == oracle, "{sql}: renderings differ");
            emp_points = emp_points.max(
                ours.lines()
                    .filter(|l| l.contains("emp("))
                    .map(|l| l.matches(',').count())
                    .max()
                    .unwrap_or(0),
            );
        }
        assert!(emp_points >= 1000, "no Monte-Carlo sample was rendered: {emp_points}");
    }

    #[test]
    fn renders_every_component() {
        let t = Tuple::with_membership(
            7,
            vec![
                Field::plain(19i64),
                Field::learned(AttrDistribution::gaussian(2.0, 0.5).unwrap(), 3).with_accuracy(
                    AccuracyInfo::new(3).with_mean_ci(ConfidenceInterval::new(1.0, 3.0, 0.9)),
                ),
            ],
            TupleProbability::new(0.5).unwrap().with_ci(ConfidenceInterval::new(0.4, 0.6, 0.9), 10),
        );
        let line = render_row(&t);
        assert!(line.starts_with("ROW ts=7 p=0.5[0.4,0.6;0.9]@n=10 19 "), "got: {line}");
        assert!(line.contains("gauss(2,0.5)|n=3|acc(n=3,mean=[1,3;0.9])"), "got: {line}");
    }

    #[test]
    fn schema_line() {
        let s = Schema::new(vec![
            Column::new("road_id", ColumnType::Int),
            Column::new("delay", ColumnType::Dist),
        ])
        .unwrap();
        assert_eq!(render_schema(&s), "SCHEMA road_id:int delay:dist");
    }

    #[test]
    fn strings_cannot_forge_protocol_lines() {
        let t = Tuple::certain(0, vec![Field::plain("evil\nROW injected")]);
        let line = render_row(&t);
        assert!(!line.contains('\n'), "got: {line}");
    }
}
