//! Figures 5(c) and 5(f): stream throughput impact.
//!
//! Section V-C's setup: "For each item, we generate 20 data points and the
//! query processor learns a Gaussian distribution from them. The query is
//! a simple count-based sliding window AVG query with a window size of
//! 1000." Figure 5(c) measures maximum throughput for query processing
//! only, +analytical accuracy, and +bootstrap accuracy; Figure 5(f) adds
//! coupled significance predicates (mTest, mdTest, pTest) after the
//! window aggregate.

use std::time::Instant;

use ausdb_engine::ops::{AccuracyMode, SigFilter, SigMode, WindowAgg, WindowAggKind};
use ausdb_engine::predicate::{CmpOp, Predicate};
use ausdb_engine::sigpred::{coupled_tests, CoupledConfig, SigPredicate};
use ausdb_engine::Expr;
use ausdb_learn::gaussian::fit_gaussian;
use ausdb_model::schema::{Column, ColumnType, Schema};
use ausdb_model::stream::{Batch, TupleStream};
use ausdb_model::tuple::{Field, Tuple};
use ausdb_stats::dist::{ContinuousDistribution, Normal};
use ausdb_stats::htest::Alternative;
use ausdb_stats::rng::substream;

/// Raw points per stream item (the paper uses 20).
pub const POINTS_PER_ITEM: usize = 20;

/// One throughput measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct ThroughputRow {
    /// Configuration label (matches the figure's x-axis).
    pub config: &'static str,
    /// Items processed per second.
    pub tuples_per_sec: f64,
}

/// Pre-generated raw data: `items[i]` is the 20-point raw sample of item
/// `i`. Generation is excluded from the timed region.
pub fn generate_items(num_items: usize, seed: u64) -> Vec<Vec<f64>> {
    let base = Normal::new(50.0, 10.0).expect("valid parameters");
    (0..num_items)
        .map(|i| {
            let mut rng = substream(seed, 0x17E3 ^ i as u64);
            // Each item's data points drift slowly so window averages move.
            let drift = (i as f64 / 500.0).sin() * 5.0;
            base.sample_n(&mut rng, POINTS_PER_ITEM).into_iter().map(|v| v + drift).collect()
        })
        .collect()
}

/// A [`TupleStream`] that learns one Gaussian per raw item on the fly —
/// the learning cost is part of the measured pipeline, as in the paper.
pub struct LearningSource<'a> {
    items: &'a [Vec<f64>],
    idx: usize,
    batch: usize,
    schema: Schema,
}

impl<'a> LearningSource<'a> {
    /// Wraps pre-generated raw items.
    pub fn new(items: &'a [Vec<f64>]) -> Self {
        let schema = Schema::new(vec![Column::new("x", ColumnType::Dist)]).expect("single column");
        Self { items, idx: 0, batch: 256, schema }
    }
}

impl TupleStream for LearningSource<'_> {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_batch(&mut self) -> Option<Batch> {
        if self.idx >= self.items.len() {
            return None;
        }
        let end = (self.idx + self.batch).min(self.items.len());
        let mut out = Vec::with_capacity(end - self.idx);
        for i in self.idx..end {
            let dist = fit_gaussian(&self.items[i]).expect("nondegenerate raw sample");
            out.push(Tuple::certain(i as u64, vec![Field::learned(dist, POINTS_PER_ITEM)]));
        }
        self.idx = end;
        Some(out)
    }
}

/// Runs the learn → window-AVG pipeline under one accuracy mode and
/// returns `(items/sec, outputs)`.
pub fn run_window_pipeline(items: &[Vec<f64>], window: usize, mode: AccuracyMode) -> (f64, usize) {
    let start = Instant::now();
    let source = LearningSource::new(items);
    let mut agg = WindowAgg::new(source, "x", WindowAggKind::Avg, window, mode, 99)
        .expect("valid window spec");
    let mut outputs = 0usize;
    while let Some(batch) = agg.next_batch() {
        outputs += batch.len();
    }
    let elapsed = start.elapsed().as_secs_f64();
    (items.len() as f64 / elapsed, outputs)
}

/// Figure 5(c): throughput for QP only / +analytical / +bootstrap.
pub fn fig5c(num_items: usize, window: usize, seed: u64) -> Vec<ThroughputRow> {
    let items = generate_items(num_items, seed);
    let configs: [(&'static str, AccuracyMode); 3] = [
        ("QP only", AccuracyMode::None),
        ("analytical", AccuracyMode::Analytical { level: 0.9 }),
        ("bootstrap", AccuracyMode::Bootstrap { level: 0.9, mc_values: 400 }),
    ];
    configs
        .into_iter()
        .map(|(label, mode)| {
            let (tps, _) = run_window_pipeline(&items, window, mode);
            ThroughputRow { config: label, tuples_per_sec: tps }
        })
        .collect()
}

/// The significance stage measured by Figure 5(f).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SigStage {
    /// No significance predicate (the baseline bar).
    None,
    /// `mTest(avg_x, ">", c, 0.05, 0.05)`.
    MTest,
    /// `mdTest(current window AVG, previous window AVG, ">", 0, 0.05, 0.05)`.
    MdTest,
    /// `pTest(avg_x > c, 0.8, 0.05, 0.05)`.
    PTest,
}

impl SigStage {
    /// Label matching the figure's x-axis.
    pub fn label(&self) -> &'static str {
        match self {
            SigStage::None => "no pred.",
            SigStage::MTest => "mTest",
            SigStage::MdTest => "mdTest",
            SigStage::PTest => "pTest",
        }
    }
}

/// Runs learn → window AVG (analytical accuracy) → significance stage.
/// Returns `(items/sec, surviving outputs)`.
pub fn run_sig_pipeline(items: &[Vec<f64>], window: usize, stage: SigStage) -> (f64, usize) {
    let mode = AccuracyMode::Analytical { level: 0.9 };
    let cfg = CoupledConfig::default();
    let start = Instant::now();
    let source = LearningSource::new(items);
    let agg = WindowAgg::new(source, "x", WindowAggKind::Avg, window, mode, 99)
        .expect("valid window spec");
    let survivors = match stage {
        SigStage::None => {
            let mut agg = agg;
            let mut n = 0;
            while let Some(b) = agg.next_batch() {
                n += b.len();
            }
            n
        }
        SigStage::MTest => {
            let pred = SigPredicate::m_test(Expr::col("avg_x"), Alternative::Greater, 48.0);
            let mut f = SigFilter::new(
                agg,
                pred,
                SigMode::Coupled { config: cfg, keep_unsure: false },
                200,
                7,
            );
            let mut n = 0;
            while let Some(b) = f.next_batch() {
                n += b.len();
            }
            n
        }
        SigStage::PTest => {
            let pred =
                SigPredicate::p_test(Predicate::compare(Expr::col("avg_x"), CmpOp::Gt, 48.0), 0.8);
            let mut f = SigFilter::new(
                agg,
                pred,
                SigMode::Coupled { config: cfg, keep_unsure: false },
                200,
                7,
            );
            let mut n = 0;
            while let Some(b) = f.next_batch() {
                n += b.len();
            }
            n
        }
        SigStage::MdTest => {
            // Pair each window output with the previous one in a two-field
            // tuple and run the coupled mdTest between them.
            let pair_schema = Schema::new(vec![
                Column::new("cur", ColumnType::Dist),
                Column::new("prev", ColumnType::Dist),
            ])
            .expect("two columns");
            let md = SigPredicate::md_test(
                Expr::col("cur"),
                Expr::col("prev"),
                Alternative::Greater,
                0.0,
            );
            let mut rng = substream(99, 0x3D);
            let mut agg = agg;
            let mut prev: Option<Field> = None;
            let mut n = 0;
            while let Some(batch) = agg.next_batch() {
                for t in batch {
                    let cur = t.fields[0].clone();
                    if let Some(p) = prev.replace(cur.clone()) {
                        let pair = Tuple::certain(t.ts, vec![cur, p]);
                        if coupled_tests(&md, cfg, &pair, &pair_schema, &mut rng)
                            .map(|o| o == ausdb_engine::SigOutcome::True)
                            .unwrap_or(false)
                        {
                            n += 1;
                        }
                    }
                }
            }
            n
        }
    };
    let elapsed = start.elapsed().as_secs_f64();
    (items.len() as f64 / elapsed, survivors)
}

/// Figure 5(f): throughput with no predicate / mTest / mdTest / pTest.
pub fn fig5f(num_items: usize, window: usize, seed: u64) -> Vec<ThroughputRow> {
    let items = generate_items(num_items, seed);
    [SigStage::None, SigStage::MTest, SigStage::MdTest, SigStage::PTest]
        .into_iter()
        .map(|stage| {
            let (tps, _) = run_sig_pipeline(&items, window, stage);
            ThroughputRow { config: stage.label(), tuples_per_sec: tps }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ausdb_model::AttrDistribution;

    #[test]
    fn learning_source_produces_gaussians() {
        let items = generate_items(10, 5);
        let mut src = LearningSource::new(&items);
        let batch = src.next_batch().expect("items present");
        assert_eq!(batch.len(), 10);
        for t in &batch {
            assert!(matches!(
                t.fields[0].value,
                ausdb_model::Value::Dist(AttrDistribution::Gaussian { .. })
            ));
            assert_eq!(t.fields[0].sample_size, Some(POINTS_PER_ITEM));
        }
        assert!(src.next_batch().is_none());
    }

    #[test]
    fn pipeline_counts_outputs() {
        let items = generate_items(120, 5);
        let (_, outputs) = run_window_pipeline(&items, 100, AccuracyMode::None);
        assert_eq!(outputs, 21, "120 items, window 100 ⇒ 21 outputs");
    }

    #[test]
    fn accuracy_modes_cost_something_but_run() {
        let items = generate_items(400, 5);
        for mode in [
            AccuracyMode::None,
            AccuracyMode::Analytical { level: 0.9 },
            AccuracyMode::Bootstrap { level: 0.9, mc_values: 200 },
        ] {
            let (tps, outputs) = run_window_pipeline(&items, 100, mode);
            assert!(tps > 0.0);
            assert_eq!(outputs, 301);
        }
    }

    #[test]
    fn sig_stages_run_and_filter() {
        let items = generate_items(300, 5);
        for stage in [SigStage::None, SigStage::MTest, SigStage::MdTest, SigStage::PTest] {
            let (tps, survivors) = run_sig_pipeline(&items, 100, stage);
            assert!(tps > 0.0, "{}", stage.label());
            if stage == SigStage::None {
                assert_eq!(survivors, 201);
            } else {
                assert!(survivors <= 201);
            }
        }
        // The mTest against 48 (true window means ≈ 50 ± drift, se tiny)
        // should accept most windows.
        let (_, survivors) = run_sig_pipeline(&items, 100, SigStage::MTest);
        assert!(survivors > 100, "mTest survivors {survivors}");
    }
}
