//! Planner: lowers the parsed AST into an executable
//! [`ausdb_engine::query::Query`].

use ausdb_engine::ops::GroupAggKind;
use ausdb_engine::ops::{AccuracyMode, Projection, SigMode, WindowAggKind};
use ausdb_engine::predicate::{CmpOp, Predicate};
use ausdb_engine::query::{
    GroupBySpec, JoinSpec, Query, QueryConfig, Session, WindowMode, WindowSpec,
};
use ausdb_engine::sigpred::{CoupledConfig, SigPredicate};
use ausdb_engine::{BinOp, Expr, UnaryOp};
use ausdb_model::schema::Schema;
use ausdb_model::tuple::Tuple;
use ausdb_stats::htest::Alternative;

use crate::ast::*;
use crate::error::SqlError;
use crate::parser::{parse, parse_statement};

/// A planned query: the source stream name, the engine query, and an
/// optional accuracy-mode override from the `WITH ACCURACY` clause.
#[derive(Debug, Clone)]
pub struct PlannedQuery {
    /// FROM stream.
    pub from: String,
    /// The executable query.
    pub query: Query,
    /// Accuracy override (`None` keeps the session's configured mode).
    pub accuracy: Option<AccuracyMode>,
}

/// Plans a parsed statement. Pass the source schema when known so column
/// references are validated at plan time.
pub fn plan(stmt: &SelectStmt, schema: Option<&Schema>) -> Result<PlannedQuery, SqlError> {
    let mut query = Query::select_all();

    // With a join the visible schema is the concatenation of two streams;
    // defer column validation to execution time.
    let schema = if stmt.join.is_some() { None } else { schema };
    if let Some(j) = &stmt.join {
        query = query.with_join(JoinSpec { right: j.stream.clone(), key: j.key.clone() });
    }
    if stmt.group_by.is_some() && stmt.window.is_some() {
        return Err(SqlError::Plan("GROUP BY cannot be combined with WINDOW".into()));
    }

    if let Some(w) = &stmt.window {
        let kind = match w.func.as_str() {
            "AVG" => WindowAggKind::Avg,
            "SUM" => WindowAggKind::Sum,
            other => return Err(SqlError::Plan(format!("unsupported window function {other}"))),
        };
        if let Some(schema) = schema {
            if schema.index_of(&w.column).is_err() {
                return Err(SqlError::Plan(format!("unknown window column '{}'", w.column)));
            }
        }
        let mode = match w.kind {
            SqlWindowKind::Count(size) => WindowMode::Count(size),
            SqlWindowKind::Time { width, min_tuples } => WindowMode::Time { width, min_tuples },
        };
        query = query.with_window(WindowSpec { column: w.column.clone(), kind, mode });
    }

    // The schema visible to SELECT / HAVING: after a window aggregate the
    // only column is `avg_<col>` / `sum_<col>`; after a GROUP BY it is the
    // key plus the aggregate output.
    let post_window_name =
        stmt.window.as_ref().map(|w| format!("{}_{}", w.func.to_ascii_lowercase(), w.column));
    let post_group_names: Option<Vec<String>> = match (&stmt.group_by, &stmt.items) {
        (Some(key), Some(items)) => {
            let mut names = vec![key.clone()];
            for item in items {
                if let SqlExpr::Aggregate { func, column } = &item.expr {
                    let out = match func.as_str() {
                        "COUNT" => "count".to_string(),
                        f => format!("{}_{column}", f.to_ascii_lowercase()),
                    };
                    // Aliases are applied by a projection that runs after
                    // HAVING, so only the raw aggregate name is visible here.
                    names.push(out);
                }
            }
            Some(names)
        }
        _ => None,
    };
    let check_column = |name: &str| -> Result<(), SqlError> {
        if let Some(visible) = &post_group_names {
            if visible.iter().any(|v| v.eq_ignore_ascii_case(name)) {
                return Ok(());
            }
            return Err(SqlError::Plan(format!(
                "column '{name}' not visible after GROUP BY (visible: {visible:?})"
            )));
        }
        if let Some(win) = &post_window_name {
            if name.eq_ignore_ascii_case(win) {
                return Ok(());
            }
            return Err(SqlError::Plan(format!(
                "column '{name}' not visible after the window aggregate (only '{win}' is)"
            )));
        }
        if let Some(schema) = schema {
            if schema.index_of(name).is_err() {
                return Err(SqlError::Plan(format!("unknown column '{name}'")));
            }
        }
        Ok(())
    };

    if let Some(p) = &stmt.predicate {
        // WHERE runs *before* the window, against the source schema.
        let check_source = |name: &str| -> Result<(), SqlError> {
            if let Some(schema) = schema {
                if schema.index_of(name).is_err() {
                    return Err(SqlError::Plan(format!("unknown column '{name}'")));
                }
            }
            Ok(())
        };
        query = query.with_predicate(lower_predicate(p, &check_source)?);
    }

    if let Some(sig) = &stmt.significance {
        let (pred, mode) = lower_sig_predicate(sig, &check_column)?;
        query = query.with_significance(pred, mode);
    }

    if let Some(key) = &stmt.group_by {
        let (spec, projections) = plan_group_by(stmt, key, schema)?;
        query = query.with_group_by(spec);
        if let Some(projections) = projections {
            query = query.with_projections(projections);
        }
    } else if let Some(items) = &stmt.items {
        let mut projections = Vec::with_capacity(items.len());
        for (i, item) in items.iter().enumerate() {
            let expr = lower_expr(&item.expr, &check_column)?;
            let name = item.alias.clone().unwrap_or_else(|| match &expr {
                Expr::Column(c) => c.clone(),
                _ => format!("col{}", i + 1),
            });
            projections.push(Projection::new(name, expr));
        }
        query = query.with_projections(projections);
    }

    if let Some((col, desc)) = &stmt.order_by {
        // Ordering applies to the final result; with projections/group-by
        // the visible names differ from the source, so validation happens
        // at execution time.
        query = query.with_order_by(col.clone(), *desc);
    }
    if let Some(n) = stmt.limit {
        query = query.with_limit(n);
    }

    let accuracy = match &stmt.accuracy {
        None => None,
        Some(a) => Some(lower_accuracy(a)?),
    };

    Ok(PlannedQuery { from: stmt.from.clone(), query, accuracy })
}

/// Lowers a `GROUP BY` query: the SELECT list must be `*` or consist of
/// the grouping key plus exactly one aggregate call. Returns the spec and
/// optional rename projections (when the aggregate carries an alias).
fn plan_group_by(
    stmt: &SelectStmt,
    key: &str,
    schema: Option<&Schema>,
) -> Result<(GroupBySpec, Option<Vec<Projection>>), SqlError> {
    if let Some(schema) = schema {
        if schema.index_of(key).is_err() {
            return Err(SqlError::Plan(format!("unknown GROUP BY column '{key}'")));
        }
    }
    let Some(items) = &stmt.items else {
        return Err(SqlError::Plan(
            "a GROUP BY query must name its aggregate, e.g. SELECT key, AVG(x) …".into(),
        ));
    };
    let mut agg: Option<(&str, &str, Option<&str>)> = None; // (func, column, alias)
    let mut key_alias: Option<&str> = None;
    for item in items {
        match &item.expr {
            SqlExpr::Aggregate { func, column } => {
                if agg.is_some() {
                    return Err(SqlError::Plan(
                        "GROUP BY supports exactly one aggregate in the SELECT list".into(),
                    ));
                }
                if let Some(schema) = schema {
                    if schema.index_of(column).is_err() {
                        return Err(SqlError::Plan(format!(
                            "unknown aggregated column '{column}'"
                        )));
                    }
                }
                agg = Some((func, column, item.alias.as_deref()));
            }
            SqlExpr::Column(c) if c.eq_ignore_ascii_case(key) => {
                key_alias = item.alias.as_deref();
            }
            other => {
                return Err(SqlError::Plan(format!(
                    "GROUP BY SELECT items must be the key or an aggregate, found {other:?}"
                )))
            }
        }
    }
    let Some((func, column, agg_alias)) = agg else {
        return Err(SqlError::Plan("GROUP BY query lacks an aggregate".into()));
    };
    let kind = match func {
        "AVG" => GroupAggKind::Avg,
        "SUM" => GroupAggKind::Sum,
        "COUNT" => GroupAggKind::Count,
        other => return Err(SqlError::Plan(format!("unsupported aggregate {other}"))),
    };
    let spec = GroupBySpec { key: key.to_string(), column: column.to_string(), kind };
    // Rename projections only when aliases are present.
    let projections = if agg_alias.is_some() || key_alias.is_some() {
        let agg_out = match kind {
            GroupAggKind::Avg => format!("avg_{column}"),
            GroupAggKind::Sum => format!("sum_{column}"),
            GroupAggKind::Count => "count".to_string(),
        };
        Some(vec![
            Projection::new(key_alias.unwrap_or(key), Expr::col(key)),
            Projection::new(agg_alias.unwrap_or(&agg_out), Expr::col(agg_out.clone())),
        ])
    } else {
        None
    };
    Ok((spec, projections))
}

/// Parses, plans, and runs a query against a session in one call.
pub fn run_sql(
    session: &Session,
    sql: &str,
) -> Result<(Schema, Vec<Tuple>), Box<dyn std::error::Error>> {
    let (planned, config) = prepare(session, &parse(sql)?)?;
    Ok(session.run_with_config(&planned.from, &planned.query, config)?)
}

/// What a top-level statement produced: result rows for a SELECT, or
/// rendered plan text for `EXPLAIN` / `EXPLAIN ANALYZE`.
#[derive(Debug, Clone)]
pub enum SqlOutput {
    /// SELECT results.
    Rows {
        /// Result schema.
        schema: Schema,
        /// Result tuples.
        tuples: Vec<Tuple>,
    },
    /// Plan text, one operator per line (ANALYZE appends observed
    /// statistics to each line plus engine totals at the end).
    Plan(String),
}

/// Parses and runs a top-level statement ([`parse_statement`] grammar):
/// a SELECT executes and returns rows; `EXPLAIN` returns the plan without
/// executing; `EXPLAIN ANALYZE` executes the query and returns the plan
/// annotated with per-operator counters, drop reasons, accuracy
/// attributes (`ci_width`, `df_n`, `resamples`), and timing.
pub fn run_statement(
    session: &Session,
    sql: &str,
) -> Result<SqlOutput, Box<dyn std::error::Error>> {
    run_statement_with_stats(session, sql).map(|(out, _)| out)
}

/// [`run_statement`] that also surfaces the pipeline's
/// [`StatsReport`](ausdb_engine::obs::StatsReport) when the statement
/// executed (SELECT and EXPLAIN ANALYZE; plain EXPLAIN yields `None`).
/// Execution is observational only: the rows are bit-identical to
/// [`run_sql`] on the same session and statement.
pub fn run_statement_with_stats(
    session: &Session,
    sql: &str,
) -> Result<(SqlOutput, Option<ausdb_engine::obs::StatsReport>), Box<dyn std::error::Error>> {
    match parse_statement(sql)? {
        Statement::Select(sel) => {
            let (planned, config) = prepare(session, &sel)?;
            let (schema, tuples, report, _trace) =
                session.run_with_config_traced(&planned.from, &planned.query, config)?;
            Ok((SqlOutput::Rows { schema, tuples }, Some(report)))
        }
        Statement::Explain { analyze: false, stmt: sel } => {
            let (planned, _) = prepare(session, &sel)?;
            Ok((SqlOutput::Plan(planned.query.explain(&planned.from)), None))
        }
        Statement::Explain { analyze: true, stmt: sel } => {
            let (planned, config) = prepare(session, &sel)?;
            let (_, tuples, report, trace) =
                session.run_with_config_traced(&planned.from, &planned.query, config)?;
            let plan_text = planned.query.explain(&planned.from);
            let rendered = render_analyze(&plan_text, &report, trace.duration_us(), tuples.len());
            Ok((SqlOutput::Plan(rendered), Some(report)))
        }
    }
}

/// The one plan → config step behind every entry point: plans `sel`
/// against its stream's registered schema and applies its `WITH ACCURACY`
/// override to the session's configuration.
fn prepare(
    session: &Session,
    sel: &SelectStmt,
) -> Result<(PlannedQuery, QueryConfig), Box<dyn std::error::Error>> {
    let planned = plan(sel, Some(session.schema_of(&sel.from)?))?;
    let accuracy = planned.accuracy.unwrap_or(session.config.accuracy);
    Ok((planned, QueryConfig { accuracy, ..session.config }))
}

/// Annotates a rendered plan with observed per-operator statistics.
///
/// Each plan line names its stage (`Filter [...]`, `WindowAgg [...]`, …);
/// the first not-yet-consumed [`OpStats`](ausdb_engine::obs::OpStats)
/// with the same operator name is appended to that line. The plan always
/// says `WindowAgg` while the engine reports time-based windows as
/// `TimeWindowAgg`, so that pair is treated as one name. Stages without a
/// metrics-bearing operator (Scan, Sort, Limit) pass through untouched.
fn render_analyze(
    plan: &str,
    report: &ausdb_engine::obs::StatsReport,
    total_us: u64,
    rows: usize,
) -> String {
    let mut used = vec![false; report.ops.len()];
    let mut out = String::new();
    for line in plan.lines() {
        out.push_str(line);
        let stage = line.trim_start().split([' ', '[']).next().unwrap_or("");
        let hit = report.ops.iter().enumerate().find(|(i, op)| {
            !used[*i] && (op.name == stage || (stage == "WindowAgg" && op.name == "TimeWindowAgg"))
        });
        if let Some((i, op)) = hit {
            used[i] = true;
            out.push(' ');
            out.push_str(&op.details());
        }
        out.push('\n');
    }
    out.push_str(&format!("{}\n", report.engine));
    out.push_str(&format!("total: {:.3}ms rows={rows}", total_us as f64 / 1e3));
    out
}

fn lower_expr(e: &SqlExpr, check: &dyn Fn(&str) -> Result<(), SqlError>) -> Result<Expr, SqlError> {
    Ok(match e {
        SqlExpr::Column(name) => {
            check(name)?;
            Expr::col(name.clone())
        }
        SqlExpr::Number(v) => Expr::Const(*v),
        SqlExpr::Binary { op, left, right } => {
            let op = match op {
                '+' => BinOp::Add,
                '-' => BinOp::Sub,
                '*' => BinOp::Mul,
                '/' => BinOp::Div,
                other => return Err(SqlError::Plan(format!("unknown operator {other}"))),
            };
            Expr::bin(op, lower_expr(left, check)?, lower_expr(right, check)?)
        }
        SqlExpr::SqrtAbs(inner) => Expr::un(UnaryOp::SqrtAbs, lower_expr(inner, check)?),
        SqlExpr::Square(inner) => Expr::un(UnaryOp::Square, lower_expr(inner, check)?),
        SqlExpr::Neg(inner) => Expr::un(UnaryOp::Neg, lower_expr(inner, check)?),
        SqlExpr::Aggregate { func, .. } => {
            return Err(SqlError::Plan(format!(
                "{func}(…) is only valid in the SELECT list of a GROUP BY query"
            )))
        }
    })
}

/// Constant-folds an expression, returning its value if it references no
/// columns.
fn fold_const(e: &SqlExpr) -> Option<f64> {
    match e {
        SqlExpr::Number(v) => Some(*v),
        SqlExpr::Column(_) => None,
        SqlExpr::Binary { op, left, right } => {
            let (l, r) = (fold_const(left)?, fold_const(right)?);
            Some(match op {
                '+' => l + r,
                '-' => l - r,
                '*' => l * r,
                '/' => l / r,
                _ => return None,
            })
        }
        SqlExpr::SqrtAbs(inner) => Some(fold_const(inner)?.abs().sqrt()),
        SqlExpr::Square(inner) => {
            let v = fold_const(inner)?;
            Some(v * v)
        }
        SqlExpr::Neg(inner) => Some(-fold_const(inner)?),
        SqlExpr::Aggregate { .. } => None,
    }
}

fn mirror(op: SqlCmp) -> SqlCmp {
    match op {
        SqlCmp::Lt => SqlCmp::Gt,
        SqlCmp::Le => SqlCmp::Ge,
        SqlCmp::Gt => SqlCmp::Lt,
        SqlCmp::Ge => SqlCmp::Le,
        SqlCmp::Eq => SqlCmp::Eq,
        SqlCmp::Ne => SqlCmp::Ne,
    }
}

fn to_cmp(op: SqlCmp) -> CmpOp {
    match op {
        SqlCmp::Lt => CmpOp::Lt,
        SqlCmp::Le => CmpOp::Le,
        SqlCmp::Gt => CmpOp::Gt,
        SqlCmp::Ge => CmpOp::Ge,
        SqlCmp::Eq => CmpOp::Eq,
        SqlCmp::Ne => CmpOp::Ne,
    }
}

fn lower_comparison(
    left: &SqlExpr,
    op: SqlCmp,
    right: &SqlExpr,
    prob: Option<f64>,
    check: &dyn Fn(&str) -> Result<(), SqlError>,
) -> Result<Predicate, SqlError> {
    // Normalize so the constant is on the right.
    let (expr_side, op, threshold) = match (fold_const(left), fold_const(right)) {
        (None, Some(c)) => (left, op, c),
        (Some(c), None) => (right, mirror(op), c),
        (Some(_), Some(_)) => {
            return Err(SqlError::Plan("comparison between two constants".into()))
        }
        (None, None) => {
            return Err(SqlError::Plan(
                "one side of a comparison must be constant (rewrite `a > b` as `a - b > 0`)".into(),
            ))
        }
    };
    let expr = lower_expr(expr_side, check)?;
    match prob {
        None => Ok(Predicate::compare(expr, to_cmp(op), threshold)),
        Some(tau) => {
            if !(0.0..=1.0).contains(&tau) {
                return Err(SqlError::Plan(format!("PROB threshold {tau} outside [0,1]")));
            }
            Ok(Predicate::prob_threshold(expr, to_cmp(op), threshold, tau))
        }
    }
}

fn lower_predicate(
    p: &SqlPredicate,
    check: &dyn Fn(&str) -> Result<(), SqlError>,
) -> Result<Predicate, SqlError> {
    Ok(match p {
        SqlPredicate::Compare { left, op, right, prob } => {
            lower_comparison(left, *op, right, *prob, check)?
        }
        SqlPredicate::And(l, r) => Predicate::And(
            Box::new(lower_predicate(l, check)?),
            Box::new(lower_predicate(r, check)?),
        ),
        SqlPredicate::Or(l, r) => Predicate::Or(
            Box::new(lower_predicate(l, check)?),
            Box::new(lower_predicate(r, check)?),
        ),
        SqlPredicate::Not(inner) => Predicate::Not(Box::new(lower_predicate(inner, check)?)),
    })
}

fn lower_alternative(op: &str) -> Result<Alternative, SqlError> {
    Alternative::parse(op)
        .ok_or_else(|| SqlError::Plan(format!("bad significance operator '{op}'")))
}

fn check_alpha(alpha: f64) -> Result<(), SqlError> {
    if alpha > 0.0 && alpha < 1.0 {
        Ok(())
    } else {
        Err(SqlError::Plan(format!("significance level {alpha} outside (0,1)")))
    }
}

fn sig_mode(alpha1: f64, alpha2: Option<f64>) -> Result<SigMode, SqlError> {
    check_alpha(alpha1)?;
    match alpha2 {
        None => Ok(SigMode::Basic { alpha: alpha1 }),
        Some(a2) => {
            check_alpha(a2)?;
            Ok(SigMode::Coupled {
                config: CoupledConfig { alpha1, alpha2: a2, ..CoupledConfig::default() },
                keep_unsure: false,
            })
        }
    }
}

fn lower_sig_predicate(
    sig: &SqlSigPredicate,
    check: &dyn Fn(&str) -> Result<(), SqlError>,
) -> Result<(SigPredicate, SigMode), SqlError> {
    match sig {
        SqlSigPredicate::MTest { expr, op, c, alpha1, alpha2 } => {
            let pred = SigPredicate::m_test(lower_expr(expr, check)?, lower_alternative(op)?, *c);
            Ok((pred, sig_mode(*alpha1, *alpha2)?))
        }
        SqlSigPredicate::MdTest { x, y, op, c, alpha1, alpha2 } => {
            let pred = SigPredicate::md_test(
                lower_expr(x, check)?,
                lower_expr(y, check)?,
                lower_alternative(op)?,
                *c,
            );
            Ok((pred, sig_mode(*alpha1, *alpha2)?))
        }
        SqlSigPredicate::PTest { pred, tau, alpha1, alpha2 } => {
            if !(*tau > 0.0 && *tau < 1.0) {
                return Err(SqlError::Plan(format!("pTest threshold {tau} outside (0,1)")));
            }
            let inner = lower_predicate(pred, check)?;
            Ok((SigPredicate::p_test(inner, *tau), sig_mode(*alpha1, *alpha2)?))
        }
    }
}

fn lower_accuracy(a: &SqlAccuracy) -> Result<AccuracyMode, SqlError> {
    let level = a.level.unwrap_or(0.9);
    if !(level > 0.0 && level < 1.0) {
        return Err(SqlError::Plan(format!("accuracy LEVEL {level} outside (0,1)")));
    }
    Ok(match a.mode.as_str() {
        "NONE" => AccuracyMode::None,
        "ANALYTICAL" => AccuracyMode::Analytical { level },
        "BOOTSTRAP" => AccuracyMode::Bootstrap { level, mc_values: a.samples.unwrap_or(1000) },
        other => return Err(SqlError::Plan(format!("unknown accuracy mode {other}"))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ausdb_model::schema::{Column, ColumnType};
    use ausdb_model::tuple::Field;
    use ausdb_model::{AttrDistribution, Value};

    fn road_session() -> Session {
        let schema = Schema::new(vec![
            Column::new("road_id", ColumnType::Int),
            Column::new("delay", ColumnType::Dist),
        ])
        .unwrap();
        let tuples = vec![
            Tuple::certain(
                0,
                vec![
                    Field::plain(19i64),
                    Field::learned(AttrDistribution::gaussian(64.0, 900.0).unwrap(), 3),
                ],
            ),
            Tuple::certain(
                1,
                vec![
                    Field::plain(20i64),
                    Field::learned(AttrDistribution::gaussian(65.0, 100.0).unwrap(), 50),
                ],
            ),
        ];
        let mut s = Session::new();
        s.register("t", schema, tuples);
        s
    }

    #[test]
    fn end_to_end_threshold_query() {
        let s = road_session();
        let (schema, out) =
            run_sql(&s, "SELECT road_id FROM t WHERE delay > 50 PROB 0.66").unwrap();
        assert_eq!(schema.column(0).name, "road_id");
        assert_eq!(out.len(), 2, "accuracy-oblivious threshold keeps both roads");
    }

    #[test]
    fn end_to_end_significance_query() {
        let s = road_session();
        let (_, out) =
            run_sql(&s, "SELECT road_id FROM t HAVING PTEST(delay > 50, 0.66, 0.05)").unwrap();
        assert_eq!(out.len(), 1, "significance keeps only the well-sampled road");
        assert_eq!(out[0].fields[0].value, Value::Int(20));
    }

    #[test]
    fn end_to_end_mtest_coupled() {
        let s = road_session();
        let (_, out) =
            run_sql(&s, "SELECT road_id FROM t HAVING MTEST(delay, '>', 30, 0.05, 0.05)").unwrap();
        // Road 20: (65-30)/(10/√50) huge ⇒ TRUE. Road 19: (64-30)/(30/√3) ≈
        // 1.96 > t2(0.05)=2.92? No ⇒ not TRUE.
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].fields[0].value, Value::Int(20));
    }

    #[test]
    fn end_to_end_window_and_accuracy_clause() {
        let schema = Schema::new(vec![Column::new("x", ColumnType::Dist)]).unwrap();
        let tuples: Vec<Tuple> = (0..6)
            .map(|i| {
                Tuple::certain(
                    i,
                    vec![Field::learned(AttrDistribution::gaussian(10.0, 1.0).unwrap(), 20)],
                )
            })
            .collect();
        let mut s = Session::new();
        s.register("s", schema, tuples);
        let (schema, out) = run_sql(
            &s,
            "SELECT avg_x FROM s WINDOW AVG(x) SIZE 4 WITH ACCURACY ANALYTICAL LEVEL 0.95",
        )
        .unwrap();
        assert_eq!(schema.column(0).name, "avg_x");
        assert_eq!(out.len(), 3);
        let info = out[0].fields[0].accuracy.as_ref().unwrap();
        let ci = info.mean_ci.unwrap();
        assert!((ci.level - 0.95).abs() < 1e-12);
    }

    #[test]
    fn constant_side_normalization() {
        let s = road_session();
        // `50 < delay` is the mirrored form of `delay > 50`.
        let (_, a) = run_sql(&s, "SELECT road_id FROM t WHERE 50 < delay PROB 0.6").unwrap();
        let (_, b) = run_sql(&s, "SELECT road_id FROM t WHERE delay > 50 PROB 0.6").unwrap();
        assert_eq!(a.len(), b.len());
    }

    #[test]
    fn plan_errors() {
        let s = road_session();
        assert!(run_sql(&s, "SELECT nope FROM t").is_err());
        assert!(run_sql(&s, "SELECT road_id FROM missing").is_err());
        assert!(run_sql(&s, "SELECT road_id FROM t WHERE 1 > 2").is_err());
        assert!(run_sql(&s, "SELECT road_id FROM t WHERE delay > delay").is_err());
        assert!(run_sql(&s, "SELECT road_id FROM t WHERE delay > 50 PROB 1.5").is_err());
        assert!(run_sql(&s, "SELECT * FROM t HAVING MTEST(delay, '>', 0, 1.5)").is_err());
        assert!(run_sql(&s, "SELECT * FROM t WITH ACCURACY ANALYTICAL LEVEL 2").is_err());
        // Post-window visibility.
        assert!(run_sql(&s, "SELECT delay FROM t WINDOW AVG(delay) SIZE 2").is_err());
    }

    #[test]
    fn group_by_sql_end_to_end() {
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
        let mut s = Session::new();
        s.register("r", schema, vec![mk(2, 50.0, 30), mk(1, 10.0, 20), mk(1, 14.0, 8)]);
        let (schema, out) =
            run_sql(&s, "SELECT sensor, AVG(temp) AS mean_temp FROM r GROUP BY sensor").unwrap();
        assert_eq!(schema.column(1).name, "mean_temp");
        assert_eq!(out.len(), 2);
        let d = out[0].fields[1].value.as_dist().unwrap();
        assert!((d.mean() - 12.0).abs() < 1e-12);
        // COUNT flavor.
        let (_, out) = run_sql(&s, "SELECT sensor, COUNT(temp) FROM r GROUP BY sensor").unwrap();
        assert_eq!(out[0].fields[1].value, Value::Int(2));
        assert_eq!(out[1].fields[1].value, Value::Int(1));
    }

    #[test]
    fn group_by_plan_errors() {
        let s = road_session();
        assert!(run_sql(&s, "SELECT AVG(delay) FROM t").is_err(), "aggregate without GROUP BY");
        assert!(run_sql(&s, "SELECT * FROM t GROUP BY road_id").is_err(), "no aggregate named");
        assert!(
            run_sql(&s, "SELECT road_id, delay FROM t GROUP BY road_id").is_err(),
            "non-aggregate non-key item"
        );
        assert!(
            run_sql(&s, "SELECT road_id, AVG(delay) FROM t GROUP BY nope").is_err(),
            "unknown key"
        );
        assert!(
            run_sql(
                &s,
                "SELECT road_id, AVG(delay) FROM t GROUP BY road_id WINDOW AVG(delay) SIZE 2"
            )
            .is_err(),
            "GROUP BY + WINDOW"
        );
    }

    #[test]
    fn join_sql_end_to_end() {
        let mut s = road_session();
        let limits = Schema::new(vec![
            Column::new("road_id", ColumnType::Int),
            Column::new("speed_limit", ColumnType::Float),
        ])
        .unwrap();
        s.register(
            "limits",
            limits,
            vec![Tuple::certain(0, vec![Field::plain(20i64), Field::plain(30.0)])],
        );
        let (schema, out) =
            run_sql(&s, "SELECT road_id, delay, speed_limit FROM t JOIN limits ON road_id")
                .unwrap();
        assert_eq!(schema.len(), 3);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].fields[0].value, Value::Int(20));
        assert_eq!(out[0].fields[2].value, Value::Float(30.0));
        // Provenance survives the join + projection.
        assert_eq!(out[0].fields[1].sample_size, Some(50));
        // And predicates work over the joined schema.
        let (_, out) = run_sql(
            &s,
            "SELECT road_id FROM t JOIN limits ON road_id WHERE delay - speed_limit > 0 PROB 0.9",
        )
        .unwrap();
        assert_eq!(out.len(), 1, "Pr[delay > 30] ≈ 1 for road 20");
    }

    #[test]
    fn time_window_sql() {
        let schema = Schema::new(vec![Column::new("x", ColumnType::Dist)]).unwrap();
        let mk = |ts: u64, mu: f64| {
            Tuple::certain(
                ts,
                vec![Field::learned(AttrDistribution::gaussian(mu, 1.0).unwrap(), 20)],
            )
        };
        let tuples = vec![mk(0, 10.0), mk(30, 20.0), mk(100, 50.0)];
        let mut s = Session::new();
        s.register("s", schema, tuples);
        let (schema, out) =
            run_sql(&s, "SELECT avg_x FROM s WINDOW AVG(x) RANGE 60 MIN 1").unwrap();
        assert_eq!(schema.column(0).name, "avg_x");
        assert_eq!(out.len(), 3);
        // The ts=100 window excludes both earlier tuples (trailing 60).
        let last = out[2].fields[0].value.as_dist().unwrap();
        assert!((last.mean() - 50.0).abs() < 1e-9);
        // MIN gates emission.
        let (_, out) = run_sql(&s, "SELECT avg_x FROM s WINDOW AVG(x) RANGE 60 MIN 2").unwrap();
        assert_eq!(out.len(), 1, "only ts=30 has 2 tuples in its trailing window");
        assert!(run_sql(&s, "SELECT avg_x FROM s WINDOW AVG(x) RANGE 0").is_err());
        assert!(run_sql(&s, "SELECT avg_x FROM s WINDOW AVG(x) SPAN 9").is_err());
    }

    #[test]
    fn order_by_and_limit() {
        let s = road_session();
        // Descending by the delay distribution's mean: road 20 (65) first.
        let (_, out) = run_sql(&s, "SELECT road_id, delay FROM t ORDER BY delay DESC").unwrap();
        assert_eq!(out[0].fields[0].value, Value::Int(20));
        assert_eq!(out[1].fields[0].value, Value::Int(19));
        let (_, out) = run_sql(&s, "SELECT road_id FROM t ORDER BY road_id ASC LIMIT 1").unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].fields[0].value, Value::Int(19));
        // LIMIT 0 and parse errors.
        let (_, out) = run_sql(&s, "SELECT road_id FROM t LIMIT 0").unwrap();
        assert!(out.is_empty());
        assert!(run_sql(&s, "SELECT road_id FROM t LIMIT 1.5").is_err());
        assert!(run_sql(&s, "SELECT road_id FROM t ORDER BY nope").is_err());
    }

    #[test]
    fn having_after_group_by_sees_aggregate() {
        let schema = Schema::new(vec![
            Column::new("sensor", ColumnType::Int),
            Column::new("temp", ColumnType::Dist),
        ])
        .unwrap();
        let mk = |sensor: i64, mu: f64| {
            Tuple::certain(
                0,
                vec![
                    Field::plain(sensor),
                    Field::learned(AttrDistribution::gaussian(mu, 1.0).unwrap(), 40),
                ],
            )
        };
        let mut s = Session::new();
        s.register("r", schema, vec![mk(1, 10.0), mk(2, 50.0), mk(2, 54.0)]);
        // Only sensor 2's group average is significantly above 30.
        let (_, out) = run_sql(
            &s,
            "SELECT sensor, AVG(temp) FROM r GROUP BY sensor              HAVING MTEST(avg_temp, '>', 30, 0.05, 0.05)",
        )
        .unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].fields[0].value, Value::Int(2));
        // Unknown names still rejected at plan time.
        assert!(run_sql(
            &s,
            "SELECT sensor, AVG(temp) FROM r GROUP BY sensor HAVING MTEST(temp, '>', 0, 0.05)"
        )
        .is_err());
    }

    #[test]
    fn order_by_composes_with_group_by() {
        let schema = Schema::new(vec![
            Column::new("sensor", ColumnType::Int),
            Column::new("temp", ColumnType::Dist),
        ])
        .unwrap();
        let mk = |sensor: i64, mu: f64| {
            Tuple::certain(
                0,
                vec![
                    Field::plain(sensor),
                    Field::learned(AttrDistribution::gaussian(mu, 1.0).unwrap(), 10),
                ],
            )
        };
        let mut s = Session::new();
        s.register("r", schema, vec![mk(1, 10.0), mk(2, 50.0), mk(3, 30.0)]);
        let (_, out) = run_sql(
            &s,
            "SELECT sensor, AVG(temp) FROM r GROUP BY sensor ORDER BY avg_temp DESC LIMIT 2",
        )
        .unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].fields[0].value, Value::Int(2), "hottest first");
        assert_eq!(out[1].fields[0].value, Value::Int(3));
    }

    #[test]
    fn explain_returns_plan_without_executing() {
        let s = road_session();
        let out = run_statement(&s, "EXPLAIN SELECT road_id FROM t WHERE delay > 50").unwrap();
        let SqlOutput::Plan(plan) = out else { panic!("expected a plan") };
        assert!(plan.contains("Scan [t]"), "{plan}");
        assert!(plan.contains("Filter"), "{plan}");
        // No execution: no annotations, no totals line.
        assert!(!plan.contains("total:"), "{plan}");
        assert!(!plan.contains("in="), "{plan}");
        // Plain SELECT still returns rows through the same entry point.
        let (out, stats) =
            run_statement_with_stats(&s, "SELECT road_id FROM t WHERE delay > 50 PROB 0.66")
                .unwrap();
        let SqlOutput::Rows { tuples, .. } = out else { panic!("expected rows") };
        assert_eq!(tuples.len(), 2);
        assert!(stats.unwrap().op("Filter").is_some());
    }

    #[test]
    fn explain_analyze_annotates_bootstrap_query() {
        let schema = Schema::new(vec![Column::new("x", ColumnType::Dist)]).unwrap();
        let tuples: Vec<Tuple> = (0..6)
            .map(|i| {
                Tuple::certain(
                    i,
                    vec![Field::learned(AttrDistribution::gaussian(10.0, 1.0).unwrap(), 30)],
                )
            })
            .collect();
        let mut s = Session::new();
        s.register("s", schema, tuples);
        let out = run_statement(
            &s,
            "EXPLAIN ANALYZE SELECT avg_x FROM s WHERE x > 0 WINDOW AVG(x) SIZE 4              WITH ACCURACY BOOTSTRAP LEVEL 0.9 SAMPLES 200",
        )
        .unwrap();
        let SqlOutput::Plan(plan) = out else { panic!("expected a plan") };
        // Every executed operator line carries its observed counters; the
        // window line additionally carries the accuracy attributes.
        let window = plan.lines().find(|l| l.trim_start().starts_with("WindowAgg")).unwrap();
        for needle in ["in=", "out=", "time=", "ci_width=", "df_n=30", "resamples="] {
            assert!(window.contains(needle), "missing {needle} in: {window}");
        }
        let filter = plan.lines().find(|l| l.trim_start().starts_with("Filter")).unwrap();
        assert!(filter.contains("in=6 out=6"), "{filter}");
        assert!(plan.contains("engine:"), "{plan}");
        assert!(plan.contains("rows=3"), "{plan}");
        // ANALYZE is observational: the rows match a plain run.
        let (_, plain) = run_sql(
            &s,
            "SELECT avg_x FROM s WHERE x > 0 WINDOW AVG(x) SIZE 4              WITH ACCURACY BOOTSTRAP LEVEL 0.9 SAMPLES 200",
        )
        .unwrap();
        assert_eq!(plain.len(), 3);
    }

    #[test]
    fn explain_analyze_aliases_time_window() {
        let schema = Schema::new(vec![Column::new("x", ColumnType::Dist)]).unwrap();
        let mk = |ts: u64| {
            Tuple::certain(
                ts,
                vec![Field::learned(AttrDistribution::gaussian(5.0, 1.0).unwrap(), 10)],
            )
        };
        let mut s = Session::new();
        s.register("s", schema, vec![mk(0), mk(30), mk(100)]);
        let out =
            run_statement(&s, "EXPLAIN ANALYZE SELECT avg_x FROM s WINDOW AVG(x) RANGE 60 MIN 1")
                .unwrap();
        let SqlOutput::Plan(plan) = out else { panic!("expected a plan") };
        // The plan says WindowAgg; the engine op is TimeWindowAgg. The
        // annotation must still land on the window line.
        let window = plan.lines().find(|l| l.trim_start().starts_with("WindowAgg")).unwrap();
        assert!(window.contains("in=3 out=3"), "{window}");
    }

    #[test]
    fn projection_names() {
        let stmt = parse("SELECT delay, (delay + 1) AS bumped, delay * 2 FROM t").unwrap();
        let planned = plan(&stmt, None).unwrap();
        let names: Vec<&str> = planned.query.projections.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, vec!["delay", "bumped", "col3"]);
    }
}
