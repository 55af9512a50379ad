//! Expression AST and evaluation.
//!
//! Expressions combine column references and constants with the six
//! operators of the paper's random-query workload (Section V-C): `+`, `−`,
//! `×`, `/`, `SQRT(ABS(·))`, and `SQUARE`. Three evaluation modes exist:
//!
//! * **scalar** — all referenced fields are deterministic;
//! * **sampled** — each referenced distribution contributes one sampled
//!   observation (one Monte-Carlo draw / one de-facto observation,
//!   Definition 2);
//! * **Gaussian closed form** — for linear expressions over independent
//!   Gaussian inputs, the result is itself Gaussian (used by the
//!   throughput experiments, Section V-C).

use ausdb_model::schema::Schema;
use ausdb_model::tuple::Tuple;
use ausdb_model::value::Value;
use ausdb_model::AttrDistribution;
use rand::Rng;

use crate::error::EngineError;

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division (division by zero evaluates to an error in scalar mode and
    /// to a clamped large value in sampled mode, keeping Monte-Carlo runs
    /// alive on heavy-tailed denominators).
    Div,
}

impl BinOp {
    fn apply(self, a: f64, b: f64) -> f64 {
        match self {
            BinOp::Add => a + b,
            BinOp::Sub => a - b,
            BinOp::Mul => a * b,
            BinOp::Div => a / b,
        }
    }
}

impl std::fmt::Display for BinOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
        };
        f.write_str(s)
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnaryOp {
    /// `SQRT(ABS(x))` — the paper composes SQRT with ABS so the workload
    /// stays defined on negative values.
    SqrtAbs,
    /// `SQUARE(x) = x²`.
    Square,
    /// Arithmetic negation.
    Neg,
}

impl UnaryOp {
    fn apply(self, x: f64) -> f64 {
        match self {
            UnaryOp::SqrtAbs => x.abs().sqrt(),
            UnaryOp::Square => x * x,
            UnaryOp::Neg => -x,
        }
    }
}

impl std::fmt::Display for UnaryOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            UnaryOp::SqrtAbs => "SQRT(ABS(·))",
            UnaryOp::Square => "SQUARE",
            UnaryOp::Neg => "-",
        };
        f.write_str(s)
    }
}

/// Pre-sampled column draws for batched evaluation, laid out
/// structure-of-arrays: one contiguous buffer of `m` observations per
/// referenced uncertain column.
#[derive(Debug, Default)]
pub struct BatchDraws {
    cols: Vec<(String, Vec<f64>)>,
    m: usize,
}

impl BatchDraws {
    /// Creates an empty draw set for batches of `m` iterations.
    pub fn new(m: usize) -> Self {
        Self { cols: Vec::new(), m }
    }

    /// Number of Monte-Carlo iterations each column buffer holds.
    pub fn len(&self) -> usize {
        self.m
    }

    /// Whether the batch holds zero iterations.
    pub fn is_empty(&self) -> bool {
        self.m == 0
    }

    /// The draw buffer for `name` (sized to the batch), created on first
    /// use. Lookup is case-insensitive, matching [`Expr::columns`].
    pub fn entry(&mut self, name: &str) -> &mut Vec<f64> {
        let idx = match self.cols.iter().position(|(c, _)| c.eq_ignore_ascii_case(name)) {
            Some(i) => i,
            None => {
                self.cols.push((name.to_string(), vec![0.0; self.m]));
                self.cols.len() - 1
            }
        };
        &mut self.cols[idx].1
    }

    /// The draws for `name`, if a buffer was sampled for it.
    pub fn get(&self, name: &str) -> Option<&[f64]> {
        self.cols.iter().find(|(c, _)| c.eq_ignore_ascii_case(name)).map(|(_, buf)| buf.as_slice())
    }
}

/// An intermediate value in batched evaluation: either one number for all
/// iterations, a borrowed draw column, or an owned working buffer that
/// operators mutate in place to avoid reallocating per tree node.
enum BatchVal<'a> {
    Scalar(f64),
    Col(&'a [f64]),
    Owned(Vec<f64>),
}

/// Element-wise binary application with the same division-by-zero clamp as
/// `eval_with_draws`: the draw is a measure-zero event for continuous
/// inputs, so the batch stays alive instead of erroring out.
#[inline]
fn apply_clamped(op: BinOp, a: f64, b: f64) -> f64 {
    if op == BinOp::Div && b == 0.0 {
        a.signum() * f64::MAX.sqrt()
    } else {
        op.apply(a, b)
    }
}

/// An expression tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Reference to a column by name.
    Column(String),
    /// A numeric constant.
    Const(f64),
    /// Unary application.
    Unary(UnaryOp, Box<Expr>),
    /// Binary application.
    Binary(BinOp, Box<Expr>, Box<Expr>),
}

impl Expr {
    /// Convenience constructor: column reference.
    pub fn col(name: impl Into<String>) -> Self {
        Expr::Column(name.into())
    }

    /// Convenience constructor: binary node.
    pub fn bin(op: BinOp, l: Expr, r: Expr) -> Self {
        Expr::Binary(op, Box::new(l), Box::new(r))
    }

    /// Convenience constructor: unary node.
    pub fn un(op: UnaryOp, e: Expr) -> Self {
        Expr::Unary(op, Box::new(e))
    }

    /// Collects the distinct column names this expression references, in
    /// first-appearance order.
    pub fn columns(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.collect_columns(&mut out);
        out
    }

    fn collect_columns(&self, out: &mut Vec<String>) {
        match self {
            Expr::Column(name) => {
                if !out.iter().any(|c| c.eq_ignore_ascii_case(name)) {
                    out.push(name.clone());
                }
            }
            Expr::Const(_) => {}
            Expr::Unary(_, e) => e.collect_columns(out),
            Expr::Binary(_, l, r) => {
                l.collect_columns(out);
                r.collect_columns(out);
            }
        }
    }

    /// Evaluates with every referenced field resolved to a deterministic
    /// value (distributions are rejected).
    pub fn eval_scalar(&self, tuple: &Tuple, schema: &Schema) -> Result<f64, EngineError> {
        match self {
            Expr::Const(v) => Ok(*v),
            Expr::Column(name) => {
                let field = tuple.field(schema, name)?;
                Ok(field.value.as_f64()?)
            }
            Expr::Unary(op, e) => Ok(op.apply(e.eval_scalar(tuple, schema)?)),
            Expr::Binary(op, l, r) => {
                let a = l.eval_scalar(tuple, schema)?;
                let b = r.eval_scalar(tuple, schema)?;
                if *op == BinOp::Div && b == 0.0 {
                    return Err(EngineError::Eval("division by zero".into()));
                }
                Ok(op.apply(a, b))
            }
        }
    }

    /// Evaluates with pre-drawn observations for uncertain columns: `draws`
    /// maps a referenced column name to the value sampled for it in this
    /// Monte-Carlo iteration (one de-facto observation, Definition 2).
    /// Deterministic fields evaluate as themselves.
    pub fn eval_with_draws(
        &self,
        tuple: &Tuple,
        schema: &Schema,
        draws: &dyn Fn(&str) -> Option<f64>,
    ) -> Result<f64, EngineError> {
        match self {
            Expr::Const(v) => Ok(*v),
            Expr::Column(name) => {
                if let Some(v) = draws(name) {
                    return Ok(v);
                }
                let field = tuple.field(schema, name)?;
                match &field.value {
                    Value::Dist(d) => Ok(d.mean()),
                    other => Ok(other.as_f64()?),
                }
            }
            Expr::Unary(op, e) => Ok(op.apply(e.eval_with_draws(tuple, schema, draws)?)),
            Expr::Binary(op, l, r) => {
                let a = l.eval_with_draws(tuple, schema, draws)?;
                let b = r.eval_with_draws(tuple, schema, draws)?;
                if *op == BinOp::Div && b == 0.0 {
                    // Keep the Monte-Carlo sequence alive; the draw is a
                    // measure-zero event for continuous inputs.
                    return Ok(a.signum() * f64::MAX.sqrt());
                }
                Ok(op.apply(a, b))
            }
        }
    }

    /// Draws one sampled evaluation: each referenced uncertain column is
    /// sampled once from its distribution (all occurrences of the same
    /// column share the draw, as in Definition 2's `f(o₁, …, o_d)`).
    pub fn eval_sampled<R: Rng + ?Sized>(
        &self,
        tuple: &Tuple,
        schema: &Schema,
        rng: &mut R,
    ) -> Result<f64, EngineError> {
        let cols = self.columns();
        let mut draws: Vec<(String, f64)> = Vec::with_capacity(cols.len());
        for name in cols {
            let field = tuple.field(schema, &name)?;
            if let Value::Dist(d) = &field.value {
                draws.push((name, d.sample(rng)));
            }
        }
        self.eval_with_draws(tuple, schema, &|name: &str| {
            draws.iter().find(|(c, _)| c.eq_ignore_ascii_case(name)).map(|&(_, v)| v)
        })
    }

    /// Evaluates the whole batch column-wise over pre-sampled draw buffers:
    /// iteration `i` of the result equals `eval_with_draws` with every
    /// referenced column resolved to `draws.get(col)[i]`. One tree walk per
    /// batch replaces one walk per iteration, and each node runs as a tight
    /// loop over contiguous `f64` buffers.
    pub fn eval_batch(
        &self,
        tuple: &Tuple,
        schema: &Schema,
        draws: &BatchDraws,
    ) -> Result<Vec<f64>, EngineError> {
        Ok(match self.eval_batch_inner(tuple, schema, draws)? {
            BatchVal::Scalar(v) => vec![v; draws.len()],
            BatchVal::Col(xs) => xs.to_vec(),
            BatchVal::Owned(xs) => xs,
        })
    }

    fn eval_batch_inner<'a>(
        &self,
        tuple: &Tuple,
        schema: &Schema,
        draws: &'a BatchDraws,
    ) -> Result<BatchVal<'a>, EngineError> {
        match self {
            Expr::Const(v) => Ok(BatchVal::Scalar(*v)),
            Expr::Column(name) => {
                if let Some(col) = draws.get(name) {
                    return Ok(BatchVal::Col(col));
                }
                let field = tuple.field(schema, name)?;
                match &field.value {
                    // Same convention as eval_with_draws: an uncertain field
                    // with no draw resolves to its mean.
                    Value::Dist(d) => Ok(BatchVal::Scalar(d.mean())),
                    other => Ok(BatchVal::Scalar(other.as_f64()?)),
                }
            }
            Expr::Unary(op, e) => Ok(match e.eval_batch_inner(tuple, schema, draws)? {
                BatchVal::Scalar(x) => BatchVal::Scalar(op.apply(x)),
                BatchVal::Col(xs) => BatchVal::Owned(xs.iter().map(|&x| op.apply(x)).collect()),
                BatchVal::Owned(mut xs) => {
                    for x in &mut xs {
                        *x = op.apply(*x);
                    }
                    BatchVal::Owned(xs)
                }
            }),
            Expr::Binary(op, l, r) => {
                let a = l.eval_batch_inner(tuple, schema, draws)?;
                let b = r.eval_batch_inner(tuple, schema, draws)?;
                let op = *op;
                // Reuse whichever operand already owns a buffer; allocate
                // only when both sides are borrowed or scalar.
                Ok(match (a, b) {
                    (BatchVal::Scalar(x), BatchVal::Scalar(y)) => {
                        BatchVal::Scalar(apply_clamped(op, x, y))
                    }
                    (BatchVal::Scalar(x), BatchVal::Owned(mut ys)) => {
                        for y in &mut ys {
                            *y = apply_clamped(op, x, *y);
                        }
                        BatchVal::Owned(ys)
                    }
                    (BatchVal::Scalar(x), BatchVal::Col(ys)) => {
                        BatchVal::Owned(ys.iter().map(|&y| apply_clamped(op, x, y)).collect())
                    }
                    (BatchVal::Owned(mut xs), BatchVal::Scalar(y)) => {
                        for x in &mut xs {
                            *x = apply_clamped(op, *x, y);
                        }
                        BatchVal::Owned(xs)
                    }
                    (BatchVal::Col(xs), BatchVal::Scalar(y)) => {
                        BatchVal::Owned(xs.iter().map(|&x| apply_clamped(op, x, y)).collect())
                    }
                    (BatchVal::Owned(mut xs), BatchVal::Owned(ys)) => {
                        for (x, &y) in xs.iter_mut().zip(&ys) {
                            *x = apply_clamped(op, *x, y);
                        }
                        BatchVal::Owned(xs)
                    }
                    (BatchVal::Owned(mut xs), BatchVal::Col(ys)) => {
                        for (x, &y) in xs.iter_mut().zip(ys) {
                            *x = apply_clamped(op, *x, y);
                        }
                        BatchVal::Owned(xs)
                    }
                    (BatchVal::Col(xs), BatchVal::Owned(mut ys)) => {
                        for (&x, y) in xs.iter().zip(ys.iter_mut()) {
                            *y = apply_clamped(op, x, *y);
                        }
                        BatchVal::Owned(ys)
                    }
                    (BatchVal::Col(xs), BatchVal::Col(ys)) => BatchVal::Owned(
                        xs.iter().zip(ys).map(|(&x, &y)| apply_clamped(op, x, y)).collect(),
                    ),
                })
            }
        }
    }

    /// Closed-form Gaussian propagation: if this expression is **linear**
    /// (constants, `+`, `−`, negation, multiplication/division by a
    /// constant) over columns holding point or Gaussian values, returns
    /// the exact result Gaussian `(μ, σ²)` under independence.
    ///
    /// Returns `Ok(None)` when the expression is nonlinear or references a
    /// non-Gaussian distribution; the caller then falls back to Monte
    /// Carlo.
    pub fn eval_gaussian(
        &self,
        tuple: &Tuple,
        schema: &Schema,
    ) -> Result<Option<(f64, f64)>, EngineError> {
        match self {
            Expr::Const(v) => Ok(Some((*v, 0.0))),
            Expr::Column(name) => {
                let field = tuple.field(schema, name)?;
                match &field.value {
                    Value::Dist(AttrDistribution::Gaussian { mu, sigma2 }) => {
                        Ok(Some((*mu, *sigma2)))
                    }
                    Value::Dist(AttrDistribution::Point(v)) => Ok(Some((*v, 0.0))),
                    Value::Dist(_) => Ok(None),
                    other => Ok(Some((other.as_f64()?, 0.0))),
                }
            }
            Expr::Unary(UnaryOp::Neg, e) => {
                Ok(e.eval_gaussian(tuple, schema)?.map(|(mu, v)| (-mu, v)))
            }
            Expr::Unary(_, _) => Ok(None),
            Expr::Binary(op, l, r) => {
                let (Some((ml, vl)), Some((mr, vr))) =
                    (l.eval_gaussian(tuple, schema)?, r.eval_gaussian(tuple, schema)?)
                else {
                    return Ok(None);
                };
                match op {
                    BinOp::Add => Ok(Some((ml + mr, vl + vr))),
                    BinOp::Sub => Ok(Some((ml - mr, vl + vr))),
                    BinOp::Mul => {
                        // Linear only if one side is a constant.
                        if vl == 0.0 {
                            Ok(Some((ml * mr, ml * ml * vr)))
                        } else if vr == 0.0 {
                            Ok(Some((ml * mr, mr * mr * vl)))
                        } else {
                            Ok(None)
                        }
                    }
                    BinOp::Div => {
                        if vr == 0.0 {
                            if mr == 0.0 {
                                return Err(EngineError::Eval("division by zero".into()));
                            }
                            Ok(Some((ml / mr, vl / (mr * mr))))
                        } else {
                            Ok(None)
                        }
                    }
                }
            }
        }
    }
}

impl std::fmt::Display for Expr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Expr::Column(name) => f.write_str(name),
            Expr::Const(v) => write!(f, "{v}"),
            Expr::Unary(UnaryOp::SqrtAbs, e) => write!(f, "SQRT(ABS({e}))"),
            Expr::Unary(UnaryOp::Square, e) => write!(f, "SQUARE({e})"),
            Expr::Unary(UnaryOp::Neg, e) => write!(f, "(-{e})"),
            Expr::Binary(op, l, r) => write!(f, "({l} {op} {r})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ausdb_model::schema::{Column, ColumnType};
    use ausdb_model::tuple::Field;
    use ausdb_stats::rng::seeded;

    fn schema() -> Schema {
        Schema::new(vec![
            Column::new("a", ColumnType::Dist),
            Column::new("b", ColumnType::Dist),
            Column::new("c", ColumnType::Float),
        ])
        .unwrap()
    }

    fn gaussian_tuple() -> Tuple {
        Tuple::certain(
            0,
            vec![
                Field::learned(AttrDistribution::gaussian(10.0, 4.0).unwrap(), 15),
                Field::learned(AttrDistribution::gaussian(20.0, 9.0).unwrap(), 10),
                Field::plain(3.0),
            ],
        )
    }

    /// Example 4's expression: `(A + B) / 2`.
    fn avg_ab() -> Expr {
        Expr::bin(
            BinOp::Div,
            Expr::bin(BinOp::Add, Expr::col("a"), Expr::col("b")),
            Expr::Const(2.0),
        )
    }

    #[test]
    fn columns_dedup_case_insensitive() {
        let e = Expr::bin(
            BinOp::Add,
            Expr::col("A"),
            Expr::bin(BinOp::Mul, Expr::col("a"), Expr::col("b")),
        );
        assert_eq!(e.columns(), vec!["A".to_string(), "b".to_string()]);
    }

    #[test]
    fn scalar_eval() {
        let schema = Schema::new(vec![Column::new("c", ColumnType::Float)]).unwrap();
        let t = Tuple::certain(0, vec![Field::plain(3.0)]);
        let e = Expr::bin(BinOp::Mul, Expr::col("c"), Expr::Const(4.0));
        assert_eq!(e.eval_scalar(&t, &schema).unwrap(), 12.0);
        let e = Expr::un(UnaryOp::Square, Expr::col("c"));
        assert_eq!(e.eval_scalar(&t, &schema).unwrap(), 9.0);
        let e = Expr::un(UnaryOp::SqrtAbs, Expr::Const(-16.0));
        assert_eq!(e.eval_scalar(&t, &schema).unwrap(), 4.0);
        let e = Expr::bin(BinOp::Div, Expr::Const(1.0), Expr::Const(0.0));
        assert!(e.eval_scalar(&t, &schema).is_err());
    }

    #[test]
    fn scalar_eval_rejects_distributions() {
        let e = Expr::col("a");
        assert!(e.eval_scalar(&gaussian_tuple(), &schema()).is_err());
    }

    #[test]
    fn gaussian_closed_form_linear() {
        // (A + B)/2 with A~N(10,4), B~N(20,9): mean 15, var (4+9)/4 = 3.25.
        let (mu, var) = avg_ab().eval_gaussian(&gaussian_tuple(), &schema()).unwrap().unwrap();
        assert!((mu - 15.0).abs() < 1e-12);
        assert!((var - 3.25).abs() < 1e-12);
    }

    #[test]
    fn gaussian_closed_form_with_constants() {
        // 3*A - c: mean 27, var 36.
        let e = Expr::bin(
            BinOp::Sub,
            Expr::bin(BinOp::Mul, Expr::Const(3.0), Expr::col("a")),
            Expr::col("c"),
        );
        let (mu, var) = e.eval_gaussian(&gaussian_tuple(), &schema()).unwrap().unwrap();
        assert!((mu - 27.0).abs() < 1e-12);
        assert!((var - 36.0).abs() < 1e-12);
    }

    #[test]
    fn gaussian_closed_form_bails_on_nonlinear() {
        let e = Expr::bin(BinOp::Mul, Expr::col("a"), Expr::col("b"));
        assert_eq!(e.eval_gaussian(&gaussian_tuple(), &schema()).unwrap(), None);
        let e = Expr::un(UnaryOp::Square, Expr::col("a"));
        assert_eq!(e.eval_gaussian(&gaussian_tuple(), &schema()).unwrap(), None);
        // Division by an uncertain quantity is nonlinear too.
        let e = Expr::bin(BinOp::Div, Expr::col("a"), Expr::col("b"));
        assert_eq!(e.eval_gaussian(&gaussian_tuple(), &schema()).unwrap(), None);
        // Division by a zero constant is a hard error in closed form.
        let e = Expr::bin(BinOp::Div, Expr::col("a"), Expr::Const(0.0));
        assert!(e.eval_gaussian(&gaussian_tuple(), &schema()).is_err());
        // Negation flips the mean, keeps the variance.
        let e = Expr::un(UnaryOp::Neg, Expr::col("a"));
        let (mu, var) = e.eval_gaussian(&gaussian_tuple(), &schema()).unwrap().unwrap();
        assert_eq!((mu, var), (-10.0, 4.0));
    }

    #[test]
    fn sampled_eval_matches_closed_form_in_expectation() {
        let mut rng = seeded(13);
        let t = gaussian_tuple();
        let s = schema();
        let e = avg_ab();
        let n = 20_000;
        let mean: f64 =
            (0..n).map(|_| e.eval_sampled(&t, &s, &mut rng).unwrap()).sum::<f64>() / n as f64;
        assert!((mean - 15.0).abs() < 0.1, "MC mean {mean} vs 15");
    }

    #[test]
    fn shared_draw_for_repeated_column() {
        // A - A must be exactly 0 for every draw (Definition 2: one
        // observation per input r.v.).
        let mut rng = seeded(29);
        let e = Expr::bin(BinOp::Sub, Expr::col("a"), Expr::col("a"));
        for _ in 0..100 {
            let v = e.eval_sampled(&gaussian_tuple(), &schema(), &mut rng).unwrap();
            assert_eq!(v, 0.0);
        }
    }

    #[test]
    fn batch_matches_eval_with_draws_elementwise() {
        let t = gaussian_tuple();
        let s = schema();
        // Exercise every operator, a repeated column, a deterministic
        // column, and the division-by-zero clamp.
        let exprs = vec![
            avg_ab(),
            Expr::bin(BinOp::Sub, Expr::col("a"), Expr::col("a")),
            Expr::un(UnaryOp::SqrtAbs, Expr::bin(BinOp::Mul, Expr::col("a"), Expr::col("b"))),
            Expr::un(UnaryOp::Square, Expr::bin(BinOp::Div, Expr::col("a"), Expr::col("c"))),
            Expr::un(UnaryOp::Neg, Expr::bin(BinOp::Div, Expr::col("a"), Expr::Const(0.0))),
            Expr::bin(
                BinOp::Div,
                Expr::Const(3.0),
                Expr::bin(BinOp::Sub, Expr::col("c"), Expr::col("c")),
            ),
        ];
        let m = 257;
        for e in exprs {
            let mut draws = BatchDraws::new(m);
            let mut rng = seeded(71);
            for name in e.columns() {
                let field = t.field(&s, &name).unwrap();
                if let Value::Dist(d) = &field.value {
                    d.sample_into(&mut rng, draws.entry(&name));
                }
            }
            let batch = e.eval_batch(&t, &s, &draws).unwrap();
            assert_eq!(batch.len(), m);
            for (i, &got) in batch.iter().enumerate() {
                let want =
                    e.eval_with_draws(&t, &s, &|name| draws.get(name).map(|col| col[i])).unwrap();
                assert_eq!(got, want, "expr {e}, iteration {i}");
            }
        }
    }

    #[test]
    fn batch_draws_lookup_is_case_insensitive() {
        let mut draws = BatchDraws::new(4);
        draws.entry("A").copy_from_slice(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(draws.get("a"), Some(&[1.0, 2.0, 3.0, 4.0][..]));
        assert!(draws.get("missing").is_none());
    }

    #[test]
    fn batch_unknown_column_errors() {
        let draws = BatchDraws::new(8);
        let e = Expr::col("nope");
        assert!(e.eval_batch(&gaussian_tuple(), &schema(), &draws).is_err());
    }

    #[test]
    fn display_round_trip_readable() {
        let e = avg_ab();
        assert_eq!(e.to_string(), "((a + b) / 2)");
        let e = Expr::un(UnaryOp::SqrtAbs, Expr::col("x"));
        assert_eq!(e.to_string(), "SQRT(ABS(x))");
    }

    #[test]
    fn unknown_column_errors() {
        let e = Expr::col("nope");
        assert!(e.eval_scalar(&gaussian_tuple(), &schema()).is_err());
        let mut rng = seeded(1);
        assert!(e.eval_sampled(&gaussian_tuple(), &schema(), &mut rng).is_err());
        assert!(e.eval_gaussian(&gaussian_tuple(), &schema()).is_err());
    }
}
