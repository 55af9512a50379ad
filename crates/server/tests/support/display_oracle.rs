//! The `Display` oracle: the row renderer as it stood before the server
//! owned its number text (PR 13's writer, every number through
//! `core::fmt`). Test-only — `render.rs`'s unit tests and `loopback.rs`
//! include this file by path and require the shipped renderer's bytes to
//! equal these.

use std::fmt::Write as _;

use ausdb_model::accuracy::{AccuracyInfo, TupleProbability};
use ausdb_model::dist::AttrDistribution;
use ausdb_model::schema::Schema;
use ausdb_model::tuple::{Field, Tuple};
use ausdb_model::value::Value;
use ausdb_stats::ci::ConfidenceInterval;

/// Appends the `SCHEMA` line for `schema` to `out` (no trailing newline).
pub fn render_schema_into(out: &mut String, schema: &Schema) {
    out.push_str("SCHEMA");
    for col in schema.columns() {
        let ty = match col.ty {
            ausdb_model::schema::ColumnType::Int => "int",
            ausdb_model::schema::ColumnType::Float => "float",
            ausdb_model::schema::ColumnType::Bool => "bool",
            ausdb_model::schema::ColumnType::Str => "str",
            ausdb_model::schema::ColumnType::Dist => "dist",
        };
        let _ = write!(out, " {}:{}", col.name, ty);
    }
}

/// Appends every tuple's `ROW` line to `out`, each terminated by `\n`.
pub fn render_rows_into(out: &mut String, tuples: &[Tuple]) {
    for tuple in tuples {
        let _ = write!(out, "ROW ts={} ", tuple.ts);
        membership_into(out, &tuple.membership);
        for field in &tuple.fields {
            out.push(' ');
            field_into(out, field);
        }
        out.push('\n');
    }
}

fn membership_into(out: &mut String, m: &TupleProbability) {
    let _ = write!(out, "p={}", m.p);
    if let Some(ci) = &m.ci {
        ci_into(out, ci);
    }
    if let Some(n) = m.sample_size {
        let _ = write!(out, "@n={n}");
    }
}

fn ci_into(out: &mut String, ci: &ConfidenceInterval) {
    let _ = write!(out, "[{},{};{}]", ci.lo, ci.hi, ci.level);
}

fn field_into(out: &mut String, field: &Field) {
    value_into(out, &field.value);
    if let Some(n) = field.sample_size {
        let _ = write!(out, "|n={n}");
    }
    if let Some(acc) = &field.accuracy {
        out.push('|');
        accuracy_into(out, acc);
    }
}

fn accuracy_into(out: &mut String, acc: &AccuracyInfo) {
    let _ = write!(out, "acc(n={}", acc.sample_size);
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
        Value::Bool(b) => {
            let _ = write!(out, "{b}");
        }
        Value::Int(i) => {
            let _ = write!(out, "{i}");
        }
        Value::Float(f) => {
            let _ = write!(out, "{f}");
        }
        // Escape whitespace so a string can never forge field boundaries.
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
        let _ = write!(out, "{x}");
    }
}

fn dist_into(out: &mut String, d: &AttrDistribution) {
    match d {
        AttrDistribution::Point(v) => {
            let _ = write!(out, "point({v})");
        }
        AttrDistribution::Gaussian { mu, sigma2 } => {
            let _ = write!(out, "gauss({mu},{sigma2})");
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
                let _ = write!(out, "{v}:{p}");
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
