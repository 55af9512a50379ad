//! Property tests: the retention store's merge-rollup is *exact* —
//! every coarse-tier bucket is bit-identical to re-merging the
//! fine-tier buckets it covers (histogram bucket counts and sums
//! included), and counter deltas sum exactly across tier boundaries and
//! ring wrap-around.

use ausdb_obs::hist::Histogram;
use ausdb_obs::metrics::{Sample, SampleValue};
use ausdb_obs::series::{Bucket, SeriesStore, TierSpec};
use proptest::prelude::*;

/// Re-merges the fine buckets covering coarse bucket `coarse` and
/// asserts bit-identity. Fine coverage is guaranteed while the fine
/// ring still holds the window (the generators below keep runs short
/// enough for tier 0 → 1; tier 1 → 2 holds by the same argument).
fn assert_rollup_exact(fine: &[Bucket], coarse: &[Bucket], step: u64) -> Result<(), TestCaseError> {
    for cb in coarse {
        let start = cb.start();
        let covered: Vec<&Bucket> =
            fine.iter().filter(|b| b.start() >= start && b.start() < start + step).collect();
        prop_assert!(!covered.is_empty(), "coarse bucket {start} with no fine coverage");
        let mut acc = covered[0].clone();
        for b in &covered[1..] {
            acc = match (acc, b) {
                (Bucket::Counter { t, delta }, Bucket::Counter { delta: d2, .. }) => {
                    Bucket::Counter { t, delta: delta + d2 }
                }
                (Bucket::Histogram { t, snap }, Bucket::Histogram { snap: s2, .. }) => {
                    Bucket::Histogram { t, snap: snap.merge(s2).expect("same bounds") }
                }
                (a, b) => panic!("mixed bucket kinds {a:?} vs {b:?}"),
            };
        }
        match (&acc, cb) {
            (Bucket::Counter { delta: a, .. }, Bucket::Counter { delta: c, .. }) => {
                prop_assert_eq!(a, c, "coarse delta differs from fine re-merge");
            }
            (Bucket::Histogram { snap: a, .. }, Bucket::Histogram { snap: c, .. }) => {
                prop_assert_eq!(&a.counts, &c.counts, "coarse counts differ from fine re-merge");
                prop_assert_eq!(
                    a.sum.to_bits(),
                    c.sum.to_bits(),
                    "coarse sum is not bit-identical to the fine fold"
                );
            }
            (a, c) => panic!("mixed bucket kinds {a:?} vs {c:?}"),
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Counters: arbitrary per-tick increments (zeros included — they
    /// exercise sparse storage) over three tiers. Every coarse bucket
    /// equals the exact sum of its fine deltas, and the total of all
    /// tier-0 deltas equals the counter's final value even after the
    /// tier-0 ring has wrapped (checked against the window it retains).
    #[test]
    fn counter_rollup_is_exact(
        increments in prop::collection::vec(0u64..5, 1..220),
        step1 in prop::sample::select(vec![4u64, 8, 12]),
    ) {
        let tiers = vec![
            TierSpec { step: 1, cap: 64 },
            TierSpec { step: step1, cap: 32 },
            TierSpec { step: step1 * 4, cap: 16 },
        ];
        let store = SeriesStore::new(tiers, 8);
        let mut cum = 0u64;
        for (tick, inc) in increments.iter().enumerate() {
            cum += inc;
            store.record_samples(
                tick as u64,
                &[Sample { name: "c".into(), value: SampleValue::Counter(cum) }],
            );
        }
        let fine = store.tier_buckets("c", 0);
        let mid = store.tier_buckets("c", 1);
        let top = store.tier_buckets("c", 2);
        // Exactness across both tier boundaries, wherever fine data
        // still covers the coarse window (ring wrap-around evicts the
        // oldest fine buckets, so only compare covered coarse buckets).
        let oldest_fine = fine.first().map_or(u64::MAX, Bucket::start);
        let covered_mid: Vec<Bucket> =
            mid.iter().filter(|b| b.start() >= oldest_fine).cloned().collect();
        assert_rollup_exact(&fine, &covered_mid, step1)?;
        let oldest_mid = mid.first().map_or(u64::MAX, Bucket::start);
        let covered_top: Vec<Bucket> =
            top.iter().filter(|b| b.start() >= oldest_mid).cloned().collect();
        assert_rollup_exact(&mid, &covered_top, step1 * 4)?;
        // Deltas in the retained fine window sum exactly to the counter
        // movement over that window (no drift through the rollup path).
        let retained: u64 = fine
            .iter()
            .map(|b| match b {
                Bucket::Counter { delta, .. } => *delta,
                other => panic!("unexpected bucket {other:?}"),
            })
            .sum();
        let skipped: u64 = increments
            .iter()
            .enumerate()
            .filter(|&(t, _)| (t as u64) < oldest_fine)
            .map(|(_, inc)| inc)
            .sum();
        prop_assert_eq!(retained + skipped, cum, "fine deltas must sum exactly");
    }

    /// Histograms: per-tick observation batches; coarse buckets must be
    /// bit-identical (counts *and* f64 sum) to folding the fine buckets
    /// oldest → newest, because the rollup *is* that fold.
    #[test]
    fn histogram_rollup_is_bit_identical(
        batches in prop::collection::vec(
            prop::collection::vec(0.001f64..900.0, 0..4),
            1..60,
        ),
    ) {
        let tiers = vec![TierSpec { step: 1, cap: 64 }, TierSpec { step: 8, cap: 16 }];
        let store = SeriesStore::new(tiers, 8);
        let h = Histogram::log_linear(-3, 3);
        for (tick, batch) in batches.iter().enumerate() {
            for &v in batch {
                h.observe(v);
            }
            store.record_samples(
                tick as u64,
                &[Sample { name: "h".into(), value: SampleValue::Histogram(h.snapshot()) }],
            );
        }
        let fine = store.tier_buckets("h", 0);
        let coarse = store.tier_buckets("h", 1);
        assert_rollup_exact(&fine, &coarse, 8)?;
        // The retained fine deltas also reassemble the cumulative counts.
        let total: u64 = fine
            .iter()
            .map(|b| match b {
                Bucket::Histogram { snap, .. } => snap.count(),
                other => panic!("unexpected bucket {other:?}"),
            })
            .sum();
        prop_assert_eq!(total, h.snapshot().count(), "every observation lands in one bucket");
    }
}
