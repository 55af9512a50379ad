//! Property test: histogram snapshot merge is associative and
//! count-preserving — bucket counts are u64 sums so associativity is
//! exact; the f64 value sum is associative up to rounding. Merging with
//! an empty snapshot is the identity.

use ausdb_obs::hist::{Histogram, HistogramSnapshot};
use proptest::prelude::*;

fn snapshot_of(values: &[f64]) -> HistogramSnapshot {
    let h = Histogram::log_linear(-2, 2);
    for &v in values {
        h.observe(v);
    }
    h.snapshot()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn merge_is_associative_and_count_preserving(
        a in prop::collection::vec(0.0005f64..500.0, 0..40),
        b in prop::collection::vec(0.0005f64..500.0, 0..40),
        c in prop::collection::vec(0.0005f64..500.0, 0..40),
    ) {
        let (sa, sb, sc) = (snapshot_of(&a), snapshot_of(&b), snapshot_of(&c));
        let left = sa.merge(&sb).unwrap().merge(&sc).unwrap();
        let right = sa.merge(&sb.merge(&sc).unwrap()).unwrap();
        prop_assert_eq!(&left.counts, &right.counts, "bucket counts must associate exactly");
        prop_assert_eq!(left.count(), (a.len() + b.len() + c.len()) as u64);
        prop_assert_eq!(left.count(), sa.count() + sb.count() + sc.count());
        let tol = 1e-9 * left.sum.abs().max(1.0);
        prop_assert!((left.sum - right.sum).abs() <= tol, "sums {} vs {}", left.sum, right.sum);
        // Merging with an empty snapshot is the identity.
        let merged = sa.merge(&HistogramSnapshot::empty(sa.bounds.clone())).unwrap();
        prop_assert_eq!(&merged.counts, &sa.counts);
        prop_assert_eq!(merged.sum.to_bits(), sa.sum.to_bits());
    }
}
