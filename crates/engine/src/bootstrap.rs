//! Algorithm `BOOTSTRAP-ACCURACY-INFO` (Section III-B).
//!
//! Input: the sequence `v[0..m]` of values of an output random variable
//! (from Monte-Carlo query processing, or sampled from a closed-form result
//! distribution), the de-facto sample size `n`, and the confidence level α.
//!
//! The algorithm groups the `m` values into `r = ⌊m/n⌋` **de-facto
//! resamples** of size `n` each (line 1), computes per-resample statistics
//! — bin heights, sample mean `ȳ[i]`, sample variance `s²[i]` (lines 6–10)
//! — and reports the α percentile interval over each statistic's `r`
//! values (lines 12–15). Lemma 4 / Theorem 2 justify treating the groups
//! as resamples from the `c = Π nᵢ!/(nᵢ−n)!` de-facto samples.

use ausdb_model::accuracy::AccuracyInfo;
use ausdb_stats::ci::percentile_interval;
use ausdb_stats::summary::Summary;

use crate::error::EngineError;

/// Per-resample statistics in a single pass: each value is binned by binary
/// search over the edge array (O(n·log b)) instead of rescanning the
/// resample once per bin (the O(n·b) direct transcription of lines 6–8).
/// Semantics match the rescan exactly: values below `edges[0]` or above the
/// last edge (and NaNs) count toward no bucket, and the final bucket is
/// closed on the right.
fn resample_stats(resample: &[f64], edges: Option<&[f64]>, counts: &mut [usize]) -> (f64, f64) {
    if let Some(edges) = edges {
        counts.fill(0);
        let b = counts.len();
        let top = edges[b];
        for &x in resample {
            if x.is_nan() || x < edges[0] || x > top {
                continue;
            }
            let k = if x == top { b - 1 } else { edges.partition_point(|&e| e <= x) - 1 };
            counts[k] += 1;
        }
    }
    let s = Summary::of(resample);
    (s.mean(), s.variance())
}

/// Runs `BOOTSTRAP-ACCURACY-INFO(v, n, level)`.
///
/// `bin_edges`, when provided (length `b + 1`, strictly increasing), adds
/// per-bin height intervals for a histogram over those buckets; values
/// outside the range count toward no bucket, matching line 7's indicator
/// `o[j] ∈ b_k`. Pass `None` for arbitrary distributions, where only μ and
/// σ² intervals are needed.
///
/// Requires `m ≥ 2n` (at least two d.f. resamples) and `n ≥ 2` (sample
/// variance needs two observations).
pub fn bootstrap_accuracy_info(
    v: &[f64],
    n: usize,
    level: f64,
    bin_edges: Option<&[f64]>,
) -> Result<AccuracyInfo, EngineError> {
    if n < 2 {
        return Err(EngineError::NoAccuracyInfo(format!(
            "d.f. sample size {n} too small for resample statistics"
        )));
    }
    let m = v.len();
    let r = m / n; // line 1: number of d.f. resamples
    if r < 2 {
        return Err(EngineError::NoAccuracyInfo(format!(
            "only {m} Monte-Carlo values for d.f. sample size {n}: need >= {}",
            2 * n
        )));
    }
    if let Some(edges) = bin_edges {
        if edges.len() < 2 || edges.windows(2).any(|w| !(w[0] < w[1])) {
            return Err(EngineError::InvalidQuery(
                "bin edges must be strictly increasing with length >= 2".into(),
            ));
        }
    }
    let b = bin_edges.map(|e| e.len() - 1).unwrap_or(0);

    let mut means = Vec::with_capacity(r);
    let mut variances = Vec::with_capacity(r);
    let mut bin_heights: Vec<Vec<f64>> = vec![Vec::with_capacity(r); b];
    let mut counts = vec![0usize; b];
    // Lines 3–10: the i-th resample is v[i·n .. i·n + n].
    for resample in v.chunks_exact(n) {
        let (mean, var) = resample_stats(resample, bin_edges, &mut counts);
        means.push(mean);
        variances.push(var);
        for (heights, &c) in bin_heights.iter_mut().zip(&counts) {
            heights.push(c as f64 / n as f64);
        }
    }

    // Lines 12–15: α percentile intervals over the r per-resample values.
    let mut info = AccuracyInfo::new(n)
        .with_mean_ci(percentile_interval(&means, level))
        .with_variance_ci(percentile_interval(&variances, level));
    if b > 0 {
        let cis = bin_heights.iter().map(|hs| percentile_interval(hs, level)).collect();
        info = info.with_bin_cis(cis);
    }
    crate::obs::record_bootstrap_resamples(r);
    let telemetry = crate::obs::telemetry::global();
    telemetry.resample_count.observe(r as f64);
    telemetry.record_accuracy(&info);
    Ok(info)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ausdb_stats::dist::{ContinuousDistribution, Exponential, Normal};
    use ausdb_stats::rng::seeded;

    #[test]
    fn example7_grouping() {
        // n = 15, m = 300 ⇒ r = 20 resamples; intervals must exist.
        let d = Normal::new(0.0, 1.0).unwrap();
        let mut rng = seeded(61);
        let v = d.sample_n(&mut rng, 300);
        let info = bootstrap_accuracy_info(&v, 15, 0.9, None).unwrap();
        assert_eq!(info.sample_size, 15);
        let mu = info.mean_ci.unwrap();
        assert!(mu.contains(0.0), "90% interval {mu} should contain the true mean");
        assert!(info.variance_ci.unwrap().contains(1.0));
    }

    #[test]
    fn bin_heights_tracked_per_bucket() {
        let d = Exponential::new(1.0).unwrap();
        let mut rng = seeded(67);
        let v = d.sample_n(&mut rng, 2000);
        let edges = [0.0, 0.5, 1.0, 2.0, 8.0];
        let info = bootstrap_accuracy_info(&v, 20, 0.9, Some(&edges)).unwrap();
        let cis = info.bin_cis.unwrap();
        assert_eq!(cis.len(), 4);
        // True bucket masses of Exp(1).
        let truth: Vec<f64> = edges.windows(2).map(|w| d.cdf(w[1]) - d.cdf(w[0])).collect();
        for (ci, t) in cis.iter().zip(truth) {
            assert!(ci.lo - 0.05 <= t && t <= ci.hi + 0.05, "bucket truth {t} far outside {ci}");
        }
    }

    #[test]
    fn interval_narrows_with_df_n() {
        // Larger d.f. sample size ⇒ narrower intervals (same m).
        let d = Normal::new(0.0, 1.0).unwrap();
        let mut rng = seeded(71);
        let v = d.sample_n(&mut rng, 6000);
        let wide = bootstrap_accuracy_info(&v, 10, 0.9, None).unwrap();
        let narrow = bootstrap_accuracy_info(&v, 100, 0.9, None).unwrap();
        assert!(
            narrow.mean_ci.unwrap().length() < wide.mean_ci.unwrap().length(),
            "df n=100 should beat n=10"
        );
    }

    #[test]
    fn requires_two_resamples() {
        let v = vec![1.0; 25];
        assert!(bootstrap_accuracy_info(&v, 20, 0.9, None).is_err());
        assert!(bootstrap_accuracy_info(&v, 1, 0.9, None).is_err());
        assert!(bootstrap_accuracy_info(&v, 12, 0.9, None).is_ok());
    }

    #[test]
    fn rejects_bad_edges() {
        let v = vec![0.5; 100];
        assert!(bootstrap_accuracy_info(&v, 10, 0.9, Some(&[1.0])).is_err());
        assert!(bootstrap_accuracy_info(&v, 10, 0.9, Some(&[1.0, 0.0])).is_err());
    }

    /// The original O(n·b) transcription of lines 6–8: one rescan of the
    /// resample per bin. Kept as the reference the single-pass binning is
    /// regression-tested against.
    fn bin_cis_by_rescan(
        v: &[f64],
        n: usize,
        level: f64,
        edges: &[f64],
    ) -> Vec<ausdb_stats::ConfidenceInterval> {
        let r = v.len() / n;
        let b = edges.len() - 1;
        let mut bin_heights: Vec<Vec<f64>> = vec![Vec::with_capacity(r); b];
        for i in 0..r {
            let resample = &v[i * n..(i + 1) * n];
            for k in 0..b {
                let (lo, hi) = (edges[k], edges[k + 1]);
                let last = k == b - 1;
                let count =
                    resample.iter().filter(|&&x| x >= lo && (x < hi || (last && x == hi))).count();
                bin_heights[k].push(count as f64 / n as f64);
            }
        }
        bin_heights.iter().map(|hs| percentile_interval(hs, level)).collect()
    }

    #[test]
    fn single_pass_binning_identical_to_rescan() {
        let d = Normal::new(1.0, 2.0).unwrap();
        let mut rng = seeded(83);
        let mut v = d.sample_n(&mut rng, 5000);
        // Plant boundary hits and out-of-range values so the edge cases are
        // actually exercised, not just the generic interior.
        v[0] = -1.0; // == edges[0]
        v[1] = 4.0; // == last edge (right-closed final bucket)
        v[2] = 0.5; // == interior edge
        v[3] = -7.0; // below range
        v[4] = 9.0; // above range
        let edges = [-1.0, 0.5, 1.5, 2.5, 4.0];
        for n in [10, 37, 250] {
            let info = bootstrap_accuracy_info(&v, n, 0.9, Some(&edges)).unwrap();
            let got = info.bin_cis.unwrap();
            let want = bin_cis_by_rescan(&v, n, 0.9, &edges);
            assert_eq!(got.len(), want.len());
            for (k, (g, w)) in got.iter().zip(&want).enumerate() {
                assert_eq!((g.lo, g.hi), (w.lo, w.hi), "bin {k} at n={n}");
            }
        }
    }

    #[test]
    fn nan_values_count_toward_no_bucket() {
        // The rescan's comparisons were all false for NaN; the binary-search
        // path must skip NaN too rather than underflow on partition_point.
        let v = [0.5, f64::NAN, 0.5, 1.5];
        let mut counts = [0usize; 2];
        resample_stats(&v, Some(&[0.0, 1.0, 2.0]), &mut counts);
        assert_eq!(counts, [2, 1]);
    }

    #[test]
    fn robust_to_skew() {
        // The motivation for bootstraps: skewed result distributions. The
        // interval for the mean of Exp(1) must still cover 1.0.
        let d = Exponential::new(1.0).unwrap();
        let mut rng = seeded(73);
        let v = d.sample_n(&mut rng, 3000);
        let info = bootstrap_accuracy_info(&v, 30, 0.9, None).unwrap();
        assert!(info.mean_ci.unwrap().contains(1.0));
    }
}
