//! Time-based sliding-window aggregation.
//!
//! The paper's throughput experiments use a *count-based* window
//! ([`crate::ops::WindowAgg`]); deployments usually want "the average over
//! the last W seconds" instead. [`TimeWindowAgg`] aggregates the Gaussian
//! (or scalar) tuples whose timestamps fall in `(ts − width, ts]` for each
//! arriving tuple, with the same closed-form moment propagation and
//! Lemma 3 de-facto sample size as the count-based operator.
//!
//! Input timestamps must be nondecreasing (standard stream assumption; an
//! out-of-order tuple poisons the stream, which then terminates).

use std::collections::VecDeque;

use ausdb_model::stream::TupleStream;

use crate::error::EngineError;
use crate::ops::window::{Entry, Frame, SlidingAgg};
use crate::ops::{AccuracyMode, WindowAggKind};

/// Time-based frame: the tuples in `(ts − width, ts]`, summed afresh in
/// window order on every arrival.
pub struct TimeFrame {
    width: u64,
    min_tuples: usize,
    last_ts: Option<u64>,
}

impl Frame for TimeFrame {
    const OPERATOR: &'static str = "TimeWindowAgg";
    const NOUN: &'static str = "time window";

    fn admit(
        &mut self,
        ts: u64,
        read: impl FnOnce() -> Result<Entry, EngineError>,
        window: &mut VecDeque<Entry>,
    ) -> Result<Option<(f64, f64)>, EngineError> {
        if let Some(last) = self.last_ts {
            if ts < last {
                return Err(EngineError::Eval(format!("out-of-order timestamp {ts} after {last}")));
            }
        }
        self.last_ts = Some(ts);
        window.push_back(read()?);
        // Evict entries older than the trailing window (ts − width, ts].
        let cutoff = ts.saturating_sub(self.width - 1);
        while window.front().map(|e| e.ts < cutoff).unwrap_or(false) {
            window.pop_front();
        }
        Ok((window.len() >= self.min_tuples)
            .then(|| (window.iter().map(|e| e.mu).sum(), window.iter().map(|e| e.sigma2).sum())))
    }
}

/// Time-based sliding-window AVG/SUM over a Gaussian (or point) column.
pub type TimeWindowAgg<S> = SlidingAgg<S, TimeFrame>;

impl<S: TupleStream> TimeWindowAgg<S> {
    /// Creates the operator: aggregate `column` over a trailing window of
    /// `width` time units, emitting once at least `min_tuples` tuples are
    /// inside the window.
    pub fn new(
        input: S,
        column: impl Into<String>,
        kind: WindowAggKind,
        width: u64,
        min_tuples: usize,
        mode: AccuracyMode,
        seed: u64,
    ) -> Result<Self, EngineError> {
        if width == 0 {
            return Err(EngineError::InvalidQuery("window width must be positive".into()));
        }
        let frame = TimeFrame { width, min_tuples: min_tuples.max(1), last_ts: None };
        Self::with_frame(input, column.into(), kind, frame, mode, seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ausdb_model::schema::{Column, ColumnType, Schema};
    use ausdb_model::stream::VecStream;
    use ausdb_model::tuple::{Field, Tuple};
    use ausdb_model::AttrDistribution;

    fn schema() -> Schema {
        Schema::new(vec![Column::new("x", ColumnType::Dist)]).unwrap()
    }

    fn gaussian_at(ts: u64, mu: f64) -> Tuple {
        Tuple::certain(ts, vec![Field::learned(AttrDistribution::gaussian(mu, 1.0).unwrap(), 20)])
    }

    #[test]
    fn trailing_window_eviction() {
        // Tuples at ts 0, 5, 9, 20: width 10 means the ts=20 output only
        // sees itself (cutoff 11).
        let s = VecStream::new(
            schema(),
            vec![
                gaussian_at(0, 1.0),
                gaussian_at(5, 2.0),
                gaussian_at(9, 3.0),
                gaussian_at(20, 10.0),
            ],
            8,
        );
        let mut w =
            TimeWindowAgg::new(s, "x", WindowAggKind::Avg, 10, 1, AccuracyMode::None, 5).unwrap();
        let out = w.collect_all();
        assert_eq!(out.len(), 4);
        let means: Vec<f64> =
            out.iter().map(|t| t.fields[0].value.as_dist().unwrap().mean()).collect();
        assert!((means[0] - 1.0).abs() < 1e-12);
        assert!((means[1] - 1.5).abs() < 1e-12);
        assert!((means[2] - 2.0).abs() < 1e-12);
        assert!((means[3] - 10.0).abs() < 1e-12, "old entries evicted");
    }

    #[test]
    fn min_tuples_gates_emission() {
        let s = VecStream::new(
            schema(),
            vec![gaussian_at(0, 1.0), gaussian_at(1, 2.0), gaussian_at(2, 3.0)],
            8,
        );
        let mut w =
            TimeWindowAgg::new(s, "x", WindowAggKind::Avg, 100, 3, AccuracyMode::None, 5).unwrap();
        let out = w.collect_all();
        assert_eq!(out.len(), 1, "only the third arrival fills the minimum");
        assert!((out[0].fields[0].value.as_dist().unwrap().mean() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn accuracy_and_provenance() {
        let s = VecStream::new(schema(), vec![gaussian_at(0, 5.0), gaussian_at(1, 7.0)], 8);
        let mut w = TimeWindowAgg::new(
            s,
            "x",
            WindowAggKind::Sum,
            10,
            2,
            AccuracyMode::Analytical { level: 0.9 },
            5,
        )
        .unwrap();
        let out = w.collect_all();
        let f = &out[0].fields[0];
        assert_eq!(f.sample_size, Some(20));
        assert!(f.accuracy.as_ref().unwrap().mean_ci.unwrap().contains(12.0));
    }

    #[test]
    fn out_of_order_poisons() {
        let s = VecStream::new(schema(), vec![gaussian_at(10, 1.0), gaussian_at(5, 2.0)], 8);
        let mut w =
            TimeWindowAgg::new(s, "x", WindowAggKind::Avg, 10, 1, AccuracyMode::None, 5).unwrap();
        let out = w.collect_all();
        assert_eq!(out.len(), 1, "the in-order prefix is emitted");
        assert!(w.next_batch().is_none());
        // The poison cause is retained, names the operator, and mentions
        // the offending timestamps (5 arrived after 10).
        let status = w.status();
        let reason = status.poison().expect("stream poisoned");
        assert_eq!(reason.operator(), "TimeWindowAgg");
        let msg = reason.to_string();
        assert!(msg.contains("out-of-order timestamp 5 after 10"), "{msg}");
        let err = reason.error().downcast_ref::<EngineError>().expect("EngineError retained");
        assert!(matches!(err, EngineError::Eval(_)));
    }

    #[test]
    fn plan_time_validation() {
        let s = VecStream::new(schema(), vec![], 8);
        assert!(
            TimeWindowAgg::new(s, "x", WindowAggKind::Avg, 0, 1, AccuracyMode::None, 5).is_err()
        );
        let s = VecStream::new(schema(), vec![], 8);
        assert!(
            TimeWindowAgg::new(s, "nope", WindowAggKind::Avg, 5, 1, AccuracyMode::None, 5).is_err()
        );
    }
}
