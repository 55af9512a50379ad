//! Log-linear (HDR-style) fixed-bucket histograms.
//!
//! Bucket upper bounds are fixed at construction, typically the
//! [`log_linear_bounds`] grid `k · 10^d` (k ∈ 1..=9): linear within a
//! decade, geometric across decades, so relative error is bounded by
//! ~11% anywhere in the covered range — the HDR-histogram trade-off with
//! a tiny fixed footprint. Values above the last bound land in an
//! implicit `+Inf` overflow bucket.
//!
//! Recording is lock-free: one relaxed atomic increment for the bucket
//! plus a CAS loop folding the value into the running sum.
//!
//! [`HistogramSnapshot`]s are plain data and [`HistogramSnapshot::merge`]
//! is associative and count-preserving over snapshots with identical
//! bounds (bucket counts merge exactly; the f64 `sum` merges up to
//! floating-point rounding).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The standard log-linear bucket-bound grid: `k · 10^d` for every decade
/// `d ∈ [min_decade, max_decade]` and `k ∈ 1..=9`, strictly increasing.
///
/// `log_linear_bounds(-3, 1)` covers 0.001 to 90 in 45 buckets (plus the
/// implicit `+Inf` overflow bucket).
pub fn log_linear_bounds(min_decade: i32, max_decade: i32) -> Vec<f64> {
    assert!(min_decade <= max_decade, "decade range is empty");
    let mut bounds = Vec::with_capacity(((max_decade - min_decade + 1) as usize) * 9);
    for d in min_decade..=max_decade {
        let scale = 10f64.powi(d);
        for k in 1..=9 {
            bounds.push(k as f64 * scale);
        }
    }
    bounds
}

/// A fixed-bucket histogram with atomic counts. Shared as
/// `Arc<Histogram>` by the registry; see the module docs for semantics.
#[derive(Debug)]
pub struct Histogram {
    /// Strictly increasing bucket upper bounds (value `v` lands in the
    /// first bucket with `v <= bound`).
    bounds: Arc<[f64]>,
    /// One count per bound, plus the trailing `+Inf` overflow bucket.
    counts: Vec<AtomicU64>,
    /// Running sum of observed values, stored as `f64` bits.
    sum_bits: AtomicU64,
}

impl Histogram {
    /// Creates a histogram over the given upper bounds, which must be
    /// finite, strictly increasing, and non-empty.
    pub fn new(bounds: Vec<f64>) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.iter().all(|b| b.is_finite()) && bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be finite and strictly increasing"
        );
        let counts = (0..bounds.len() + 1).map(|_| AtomicU64::new(0)).collect();
        Self { bounds: bounds.into(), counts, sum_bits: AtomicU64::new(0f64.to_bits()) }
    }

    /// [`Histogram::new`] over [`log_linear_bounds`].
    pub fn log_linear(min_decade: i32, max_decade: i32) -> Self {
        Self::new(log_linear_bounds(min_decade, max_decade))
    }

    /// The bucket upper bounds (without the implicit `+Inf`).
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Records one value. NaN is ignored; anything past the last bound
    /// counts toward the overflow bucket.
    pub fn observe(&self, v: f64) {
        if v.is_nan() {
            return;
        }
        let idx = self.bounds.partition_point(|&b| b < v);
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
        let mut cur = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let new = (f64::from_bits(cur) + v).to_bits();
            match self.sum_bits.compare_exchange_weak(
                cur,
                new,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Records a duration in seconds.
    pub fn observe_duration(&self, d: std::time::Duration) {
        self.observe(d.as_secs_f64());
    }

    /// Total observations recorded (all buckets including overflow).
    pub fn count(&self) -> u64 {
        self.counts.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// A point-in-time copy of all buckets and the sum.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: Arc::clone(&self.bounds),
            counts: self.counts.iter().map(|c| c.load(Ordering::Relaxed)).collect(),
            sum: f64::from_bits(self.sum_bits.load(Ordering::Relaxed)),
        }
    }
}

/// Frozen histogram contents: per-bucket counts (the last entry is the
/// `+Inf` overflow bucket) and the value sum.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Bucket upper bounds, shared with the source histogram.
    pub bounds: Arc<[f64]>,
    /// Per-bucket counts; `counts.len() == bounds.len() + 1`.
    pub counts: Vec<u64>,
    /// Sum of all observed values.
    pub sum: f64,
}

impl HistogramSnapshot {
    /// An empty snapshot over the given bounds.
    pub fn empty(bounds: Arc<[f64]>) -> Self {
        let counts = vec![0; bounds.len() + 1];
        Self { bounds, counts, sum: 0.0 }
    }

    /// Total observations across all buckets.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Merges two snapshots bucket-by-bucket. Errs when the bucket
    /// layouts differ (merging histograms of different shapes is a
    /// category error, not a recoverable condition). Bucket counts add
    /// exactly, so the operation is associative and count-preserving;
    /// the f64 `sum` is associative up to floating-point rounding.
    pub fn merge(&self, other: &HistogramSnapshot) -> Result<HistogramSnapshot, String> {
        if self.bounds.len() != other.bounds.len()
            || self.bounds.iter().zip(other.bounds.iter()).any(|(a, b)| a.to_bits() != b.to_bits())
        {
            return Err("cannot merge histograms with different bucket bounds".to_string());
        }
        let counts = self.counts.iter().zip(&other.counts).map(|(a, b)| a + b).collect();
        Ok(HistogramSnapshot {
            bounds: Arc::clone(&self.bounds),
            counts,
            sum: self.sum + other.sum,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_linear_grid_shape() {
        let b = log_linear_bounds(-2, 0);
        assert_eq!(b.len(), 27);
        assert!((b[0] - 0.01).abs() < 1e-12);
        assert!((b[26] - 9.0).abs() < 1e-12);
        assert!(b.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn observations_land_in_the_right_bucket() {
        let h = Histogram::new(vec![1.0, 2.0, 5.0]);
        for v in [0.5, 1.0, 1.5, 2.0, 4.9, 5.0, 100.0] {
            h.observe(v);
        }
        h.observe(f64::NAN); // ignored
        let s = h.snapshot();
        // v <= bound: 0.5,1.0 → le=1; 1.5,2.0 → le=2; 4.9,5.0 → le=5; 100 → +Inf.
        assert_eq!(s.counts, vec![2, 2, 2, 1]);
        assert_eq!(s.count(), 7);
        assert!((s.sum - 114.9).abs() < 1e-9, "sum {}", s.sum);
    }

    #[test]
    fn merge_rejects_mismatched_bounds() {
        let a = Histogram::new(vec![1.0, 2.0]).snapshot();
        let b = Histogram::new(vec![1.0, 3.0]).snapshot();
        assert!(a.merge(&b).is_err());
        let c = Histogram::new(vec![1.0]).snapshot();
        assert!(a.merge(&c).is_err());
    }

    #[test]
    fn merge_adds_counts_and_sums() {
        let h1 = Histogram::new(vec![1.0, 2.0]);
        let h2 = Histogram::new(vec![1.0, 2.0]);
        h1.observe(0.5);
        h1.observe(3.0);
        h2.observe(1.5);
        let m = h1.snapshot().merge(&h2.snapshot()).unwrap();
        assert_eq!(m.counts, vec![1, 1, 1]);
        assert_eq!(m.count(), 3);
        assert!((m.sum - 5.0).abs() < 1e-12);
    }
}
