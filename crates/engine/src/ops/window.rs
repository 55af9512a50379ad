//! Sliding-window aggregation over Gaussian attributes: the operator both
//! window kinds share ([`SlidingAgg`]) and the count-based [`Frame`].
//!
//! This is the operator of the paper's throughput experiments (Section
//! V-C): "a simple count-based sliding window AVG query with a window size
//! of 1000. Since the inputs are Gaussians, the query processor can compute
//! the AVG result as a Gaussian distribution."
//!
//! For independent inputs `Xᵢ ~ N(μᵢ, σᵢ²)` in a window of size `w`:
//! `AVG ~ N(Σμᵢ/w, Σσᵢ²/w²)` and `SUM ~ N(Σμᵢ, Σσᵢ²)`. The de-facto
//! sample size of the output (Lemma 3) is the minimum input sample size in
//! the window.

use std::collections::VecDeque;
use std::sync::Arc;

use ausdb_model::schema::{Column, ColumnType, Schema};
use ausdb_model::stream::{Batch, PoisonReason, StreamStatus, TupleStream};
use ausdb_model::tuple::Tuple;
use ausdb_model::value::Value;
use ausdb_model::AttrDistribution;
use rand::rngs::StdRng;

use crate::error::EngineError;
use crate::obs::{self, OpMetrics};
use crate::ops::{aggregate_field, AccuracyMode};

/// The aggregate function of a [`WindowAgg`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowAggKind {
    /// Sliding average.
    Avg,
    /// Sliding sum.
    Sum,
}

/// One window entry: the Gaussian parameters and provenance of one input
/// (`n` is `None` for a scalar or point input, which bounds no sample size).
#[derive(Debug, Clone, Copy)]
pub struct Entry {
    pub ts: u64,
    pub mu: f64,
    pub sigma2: f64,
    pub n: Option<usize>,
}

/// The part of a sliding-window aggregate that differs between the count-
/// and the time-based operator: which entries a window holds and in what
/// order their moments are summed (the result bits depend on both).
pub trait Frame {
    /// Operator name in metrics, spans and poison reasons.
    const OPERATOR: &'static str;
    /// How an input-type error names the operator.
    const NOUN: &'static str;

    /// Admits the tuple at `ts` — `read` yields its entry, and fails on an
    /// input the aggregate cannot take — evicts what left the window, and
    /// returns `(Σμᵢ, Σσᵢ²)` over the window once it should emit.
    fn admit(
        &mut self,
        ts: u64,
        read: impl FnOnce() -> Result<Entry, EngineError>,
        window: &mut VecDeque<Entry>,
    ) -> Result<Option<(f64, f64)>, EngineError>;
}

/// Count-based frame: the last `size` tuples, with running sums.
pub struct CountFrame {
    size: usize,
    sum_mu: f64,
    sum_var: f64,
}

impl Frame for CountFrame {
    const OPERATOR: &'static str = "WindowAgg";
    const NOUN: &'static str = "window aggregate";

    fn admit(
        &mut self,
        _ts: u64,
        read: impl FnOnce() -> Result<Entry, EngineError>,
        window: &mut VecDeque<Entry>,
    ) -> Result<Option<(f64, f64)>, EngineError> {
        let entry = read()?;
        window.push_back(entry);
        self.sum_mu += entry.mu;
        self.sum_var += entry.sigma2;
        if window.len() > self.size {
            let old = window.pop_front().expect("window nonempty");
            self.sum_mu -= old.mu;
            self.sum_var -= old.sigma2;
        }
        Ok((window.len() == self.size).then_some((self.sum_mu, self.sum_var)))
    }
}

/// Sliding-window AVG/SUM over a Gaussian (or point) column; the [`Frame`]
/// decides what the window holds.
///
/// Emits one output tuple per input tuple once the window is full. Output
/// schema: `(value DIST)` named after the aggregate.
pub struct SlidingAgg<S, F> {
    input: S,
    column: String,
    kind: WindowAggKind,
    frame: F,
    mode: AccuracyMode,
    schema: Schema,
    window: VecDeque<Entry>,
    rng: StdRng,
    metrics: Arc<OpMetrics>,
}

/// Count-based sliding-window AVG/SUM (the paper's form).
pub type WindowAgg<S> = SlidingAgg<S, CountFrame>;

impl<S: TupleStream> WindowAgg<S> {
    /// Creates the operator over `column` of the input stream.
    pub fn new(
        input: S,
        column: impl Into<String>,
        kind: WindowAggKind,
        window_size: usize,
        mode: AccuracyMode,
        seed: u64,
    ) -> Result<Self, EngineError> {
        if window_size == 0 {
            return Err(EngineError::InvalidQuery("window size must be positive".into()));
        }
        let frame = CountFrame { size: window_size, sum_mu: 0.0, sum_var: 0.0 };
        Self::with_frame(input, column.into(), kind, frame, mode, seed)
    }
}

impl<S: TupleStream, F: Frame> SlidingAgg<S, F> {
    pub(super) fn with_frame(
        input: S,
        column: String,
        kind: WindowAggKind,
        frame: F,
        mode: AccuracyMode,
        seed: u64,
    ) -> Result<Self, EngineError> {
        input.schema().index_of(&column)?; // validate at plan time
        let name = match kind {
            WindowAggKind::Avg => format!("avg_{column}"),
            WindowAggKind::Sum => format!("sum_{column}"),
        };
        let schema = Schema::new(vec![Column::new(name, ColumnType::Dist)])?;
        Ok(Self {
            input,
            column,
            kind,
            frame,
            mode,
            schema,
            window: VecDeque::new(),
            rng: ausdb_stats::rng::seeded(seed),
            metrics: OpMetrics::new(F::OPERATOR),
        })
    }

    /// This operator's metrics handle (clone before boxing the stream to
    /// keep the counters reachable).
    pub fn metrics(&self) -> Arc<OpMetrics> {
        self.metrics.clone()
    }

    /// Reads the aggregated column of `tuple` as Gaussian moments.
    fn read_entry(column: &str, tuple: &Tuple, in_schema: &Schema) -> Result<Entry, EngineError> {
        let field = tuple.field(in_schema, column)?;
        let (mu, sigma2, n) = match &field.value {
            Value::Dist(AttrDistribution::Gaussian { mu, sigma2 }) => {
                let n = field.sample_size.ok_or_else(|| {
                    EngineError::NoAccuracyInfo(format!(
                        "window input '{column}' lacks sample-size provenance"
                    ))
                })?;
                (*mu, *sigma2, Some(n))
            }
            Value::Dist(AttrDistribution::Point(v)) => (*v, 0.0, None),
            Value::Float(v) => (*v, 0.0, None),
            Value::Int(v) => (*v as f64, 0.0, None),
            other => {
                return Err(EngineError::Eval(format!(
                    "{} requires Gaussian or scalar input, found {}",
                    F::NOUN,
                    other.type_name()
                )))
            }
        };
        Ok(Entry { ts: tuple.ts, mu, sigma2, n })
    }

    fn push_tuple(
        &mut self,
        tuple: &Tuple,
        in_schema: &Schema,
    ) -> Result<Option<Tuple>, EngineError> {
        let read = || Self::read_entry(&self.column, tuple, in_schema);
        let Some((sum_mu, sum_var)) = self.frame.admit(tuple.ts, read, &mut self.window)? else {
            return Ok(None);
        };
        // Lemma 3: the scarcest input bounds the de-facto sample size.
        let min_n = self.window.iter().filter_map(|e| e.n).min();
        let field = aggregate_field(
            sum_mu,
            sum_var,
            (self.kind == WindowAggKind::Avg).then_some(self.window.len()),
            min_n,
            self.mode,
            &mut self.rng,
            &self.metrics,
        )?;
        Ok(Some(Tuple::with_membership(tuple.ts, vec![field], tuple.membership.clone())))
    }

    fn next_batch_inner(&mut self) -> Option<Batch> {
        if !self.metrics.status().is_ok() {
            return None;
        }
        loop {
            let batch = self.input.next_batch()?;
            self.metrics.record_batch(batch.len());
            let in_schema = self.input.schema().clone();
            let mut out = Vec::with_capacity(batch.len());
            for tuple in &batch {
                match self.push_tuple(tuple, &in_schema) {
                    Ok(Some(t)) => out.push(t),
                    Ok(None) => {}
                    Err(e) => {
                        // Poisoned input: stop the stream rather than emit
                        // aggregates with broken provenance — but retain
                        // the cause so downstream can surface it.
                        self.metrics.poison(PoisonReason::new(F::OPERATOR, e));
                        self.metrics.record_out(out.len());
                        return if out.is_empty() { None } else { Some(out) };
                    }
                }
            }
            if !out.is_empty() {
                self.metrics.record_out(out.len());
                return Some(out);
            }
        }
    }
}

impl<S: TupleStream, F: Frame> TupleStream for SlidingAgg<S, F> {
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

#[cfg(test)]
mod tests {
    use super::*;
    use ausdb_model::stream::VecStream;
    use ausdb_model::tuple::Field;

    fn schema() -> Schema {
        Schema::new(vec![Column::new("x", ColumnType::Dist)]).unwrap()
    }

    fn gaussian_stream(n: usize) -> VecStream {
        let tuples: Vec<Tuple> = (0..n)
            .map(|i| {
                Tuple::certain(
                    i as u64,
                    vec![Field::learned(AttrDistribution::gaussian(i as f64, 1.0).unwrap(), 20)],
                )
            })
            .collect();
        VecStream::new(schema(), tuples, 16)
    }

    #[test]
    fn avg_closed_form() {
        // Window of 4 over means 0,1,2,...: first output averages 0..3 = 1.5,
        // with variance 4/16 = 0.25.
        let mut w =
            WindowAgg::new(gaussian_stream(6), "x", WindowAggKind::Avg, 4, AccuracyMode::None, 5)
                .unwrap();
        let out = w.collect_all();
        assert_eq!(out.len(), 3, "6 inputs, window 4 ⇒ 3 outputs");
        let d = out[0].fields[0].value.as_dist().unwrap();
        assert!((d.mean() - 1.5).abs() < 1e-12);
        assert!((d.variance() - 0.25).abs() < 1e-12);
        let d = out[2].fields[0].value.as_dist().unwrap();
        assert!((d.mean() - 3.5).abs() < 1e-12);
    }

    #[test]
    fn sum_closed_form() {
        let mut w =
            WindowAgg::new(gaussian_stream(4), "x", WindowAggKind::Sum, 4, AccuracyMode::None, 5)
                .unwrap();
        let out = w.collect_all();
        assert_eq!(out.len(), 1);
        let d = out[0].fields[0].value.as_dist().unwrap();
        assert!((d.mean() - 6.0).abs() < 1e-12);
        assert!((d.variance() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn analytical_accuracy_attached() {
        let mut w = WindowAgg::new(
            gaussian_stream(5),
            "x",
            WindowAggKind::Avg,
            4,
            AccuracyMode::Analytical { level: 0.9 },
            5,
        )
        .unwrap();
        let out = w.collect_all();
        let f = &out[0].fields[0];
        assert_eq!(f.sample_size, Some(20), "min n over the window");
        let info = f.accuracy.as_ref().unwrap();
        assert!(info.mean_ci.unwrap().contains(1.5));
    }

    #[test]
    fn bootstrap_accuracy_attached() {
        let mut w = WindowAgg::new(
            gaussian_stream(5),
            "x",
            WindowAggKind::Avg,
            4,
            AccuracyMode::Bootstrap { level: 0.9, mc_values: 400 },
            5,
        )
        .unwrap();
        let out = w.collect_all();
        let info = out[0].fields[0].accuracy.as_ref().unwrap();
        assert!(info.mean_ci.is_some() && info.variance_ci.is_some());
    }

    #[test]
    fn df_n_is_window_minimum() {
        let tuples = vec![
            Tuple::certain(
                0,
                vec![Field::learned(AttrDistribution::gaussian(1.0, 1.0).unwrap(), 50)],
            ),
            Tuple::certain(
                1,
                vec![Field::learned(AttrDistribution::gaussian(2.0, 1.0).unwrap(), 7)],
            ),
        ];
        let s = VecStream::new(schema(), tuples, 8);
        let mut w = WindowAgg::new(s, "x", WindowAggKind::Avg, 2, AccuracyMode::None, 5).unwrap();
        let out = w.collect_all();
        assert_eq!(out[0].fields[0].sample_size, Some(7));
    }

    #[test]
    fn plan_time_validation() {
        assert!(WindowAgg::new(
            gaussian_stream(2),
            "nope",
            WindowAggKind::Avg,
            2,
            AccuracyMode::None,
            5
        )
        .is_err());
        assert!(WindowAgg::new(
            gaussian_stream(2),
            "x",
            WindowAggKind::Avg,
            0,
            AccuracyMode::None,
            5
        )
        .is_err());
    }

    #[test]
    fn underfull_window_emits_nothing() {
        let mut w =
            WindowAgg::new(gaussian_stream(3), "x", WindowAggKind::Avg, 10, AccuracyMode::None, 5)
                .unwrap();
        assert!(w.next_batch().is_none());
    }

    #[test]
    fn poison_retains_cause() {
        // A string where a Gaussian is required poisons the stream; the
        // EngineError must survive and surface through status().
        let tuples = vec![
            Tuple::certain(
                0,
                vec![Field::learned(AttrDistribution::gaussian(1.0, 1.0).unwrap(), 20)],
            ),
            Tuple::certain(1, vec![Field::plain("oops")]),
        ];
        let s = VecStream::new(schema(), tuples, 8);
        let mut w = WindowAgg::new(s, "x", WindowAggKind::Avg, 1, AccuracyMode::None, 5).unwrap();
        let out = w.collect_all();
        assert_eq!(out.len(), 1, "outputs before the poison are delivered");
        assert!(w.next_batch().is_none(), "stream stays terminated");
        let status = w.status();
        let reason = status.poison().expect("stream poisoned");
        assert_eq!(reason.operator(), "WindowAgg");
        let err = reason.error().downcast_ref::<EngineError>().expect("EngineError retained");
        assert!(matches!(err, EngineError::Eval(_)), "got {err:?}");
        assert!(reason.to_string().contains("Gaussian or scalar"), "{reason}");
    }
}
