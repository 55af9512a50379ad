//! Accuracy of query results: Theorem 1 analytically, and the one place
//! where an operator's result becomes a [`Field`] with its accuracy
//! attached (Theorem 1 or `BOOTSTRAP-ACCURACY-INFO`, per [`AccuracyMode`]).
//!
//! "Let 𝒟 denote the distribution of a probabilistic field Y in a query
//! result tuple … Lemma 1 (Lemma 2) determines its accuracy information,
//! where we use the d.f. sample size of Y as the n value, and use the mean
//! and standard deviation of 𝒟 as ȳ and s. In addition, the accuracy of a
//! result tuple probability is based on Lemma 1 by treating it as a one-bin
//! histogram."

use ausdb_model::accuracy::{AccuracyInfo, TupleProbability};
use ausdb_model::dist::AttrDistribution;
use ausdb_model::tuple::Field;
use ausdb_stats::ci::{mean_interval, proportion_interval, variance_interval};
use rand::rngs::StdRng;

use crate::bootstrap::bootstrap_accuracy_info;
use crate::error::EngineError;
use crate::mc::sample_distribution;
use crate::obs::OpMetrics;
use crate::ops::AccuracyMode;

/// **Theorem 1** for a result field: analytical accuracy of a result
/// distribution `dist` whose de-facto sample size is `df_n`, at confidence
/// `level`.
///
/// Histogram results get Lemma 1 per-bin intervals *and* the generic μ/σ²
/// intervals; any other distribution gets Lemma 2's μ/σ² intervals using
/// the distribution's own mean and standard deviation as `ȳ` and `s`.
pub fn result_accuracy(
    dist: &AttrDistribution,
    df_n: usize,
    level: f64,
) -> Result<AccuracyInfo, EngineError> {
    if df_n < 2 {
        return Err(EngineError::NoAccuracyInfo(format!(
            "de-facto sample size {df_n} is too small for Lemma 2 intervals"
        )));
    }
    let y_bar = dist.mean();
    let s = dist.std_dev();
    let mut info = AccuracyInfo::new(df_n)
        .with_mean_ci(mean_interval(y_bar, s, df_n, level))
        .with_variance_ci(variance_interval(s * s, df_n, level));
    if let AttrDistribution::Histogram(h) = dist {
        let bin_cis =
            h.probs().iter().map(|&p| proportion_interval(p, df_n, level)).collect::<Vec<_>>();
        info = info.with_bin_cis(bin_cis);
    }
    crate::obs::telemetry::global().record_accuracy(&info);
    Ok(info)
}

/// **Theorem 1** for a result tuple's membership probability: treat `p`
/// as a one-bin histogram learned from the boolean r.v.'s d.f. sample of
/// size `df_n` and apply Lemma 1 (Example 5's `0.6 ± 0.18` computation).
pub fn tuple_probability_accuracy(
    p: f64,
    df_n: usize,
    level: f64,
) -> Result<TupleProbability, EngineError> {
    let tp = TupleProbability::new(p).map_err(EngineError::Model)?;
    let ci = proportion_interval(p, df_n, level);
    Ok(tp.with_ci(ci, df_n))
}

/// What an operator computed for one uncertain result field — the two
/// categories of Section III-B.
pub(crate) enum ResultRv {
    /// A distribution obtained directly (closed form).
    ClosedForm(AttrDistribution),
    /// A Monte-Carlo value sequence, at least `2 · df_n` long; it becomes
    /// the field's empirical distribution.
    Drawn(Vec<f64>),
}

/// The Gaussian `N(mu, var)`, or the point `mu` when `var` is not positive.
pub(crate) fn gaussian_or_point(mu: f64, var: f64) -> Result<AttrDistribution, EngineError> {
    Ok(if var > 0.0 { AttrDistribution::gaussian(mu, var)? } else { AttrDistribution::Point(mu) })
}

/// Turns a result with de-facto sample size `df_n` (Lemma 3) into its
/// [`Field`], attaching accuracy as `mode` asks: Theorem 1 over the result
/// distribution, or `BOOTSTRAP-ACCURACY-INFO` over a value sequence — the
/// drawn one, or `mc_values` samples of the closed form from the operator's
/// `rng` (inside a `bootstrap_accuracy` span). Every operator routes
/// through here, so `metrics` gets the accuracy attribution in one place.
pub(crate) fn result_field(
    result: ResultRv,
    df_n: usize,
    mode: AccuracyMode,
    rng: &mut StdRng,
    metrics: &OpMetrics,
) -> Result<Field, EngineError> {
    let (dist, drawn) = match result {
        ResultRv::ClosedForm(dist) => (dist, false),
        ResultRv::Drawn(values) => (AttrDistribution::empirical(values)?, true),
    };
    let info = match mode {
        AccuracyMode::None => return Ok(Field::learned(dist, df_n)),
        AccuracyMode::Analytical { level } => result_accuracy(&dist, df_n, level)?,
        AccuracyMode::Bootstrap { level, mc_values } => {
            let (info, m) = metrics.with_span("bootstrap_accuracy", || {
                let sampled;
                let v = match dist.raw_sample().filter(|_| drawn) {
                    Some(values) => values,
                    None => {
                        sampled = sample_distribution(&dist, mc_values.max(2 * df_n), rng);
                        &sampled
                    }
                };
                bootstrap_accuracy_info(v, df_n, level, None).map(|info| (info, v.len()))
            })?;
            metrics.record_resamples((m / df_n.max(1)) as u64);
            info
        }
    };
    metrics.record_accuracy(&info);
    Ok(Field::learned(dist, df_n).with_accuracy(info))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ausdb_model::dist::Histogram;

    #[test]
    fn example5_tuple_probability() {
        // Pr[C > 80] = 0.6 learned from n=20 ⇒ 90% CI = 0.6 ± 0.18.
        let tp = tuple_probability_accuracy(0.6, 20, 0.9).unwrap();
        let ci = tp.ci.unwrap();
        assert!((ci.lo - 0.42).abs() < 2e-3, "{ci}");
        assert!((ci.hi - 0.78).abs() < 2e-3, "{ci}");
        assert_eq!(tp.sample_size, Some(20));
    }

    #[test]
    fn gaussian_result_gets_lemma2() {
        let d = AttrDistribution::gaussian(15.0, 3.25).unwrap();
        let info = result_accuracy(&d, 10, 0.9).unwrap();
        assert_eq!(info.sample_size, 10);
        let mu = info.mean_ci.unwrap();
        assert!(mu.contains(15.0));
        // t(9) at 90%: 15 ± 1.833·√3.25/√10.
        let half = 1.833 * 3.25_f64.sqrt() / 10.0_f64.sqrt();
        assert!((mu.hi - (15.0 + half)).abs() < 1e-3, "{mu}");
        assert!(info.variance_ci.unwrap().contains(3.25));
        assert!(info.bin_cis.is_none());
    }

    #[test]
    fn histogram_result_gets_lemma1_bins() {
        let h = Histogram::new(vec![0.0, 1.0, 2.0], vec![0.3, 0.7]).unwrap();
        let info = result_accuracy(&AttrDistribution::Histogram(h), 25, 0.9).unwrap();
        let cis = info.bin_cis.unwrap();
        assert_eq!(cis.len(), 2);
        assert!(cis[0].contains(0.3));
        assert!(cis[1].contains(0.7));
        assert!(info.mean_ci.is_some() && info.variance_ci.is_some());
    }

    #[test]
    fn smaller_df_n_gives_wider_intervals() {
        let d = AttrDistribution::gaussian(0.0, 1.0).unwrap();
        let wide = result_accuracy(&d, 5, 0.9).unwrap().mean_ci.unwrap();
        let narrow = result_accuracy(&d, 50, 0.9).unwrap().mean_ci.unwrap();
        assert!(wide.length() > narrow.length());
    }

    #[test]
    fn tiny_df_n_rejected() {
        let d = AttrDistribution::gaussian(0.0, 1.0).unwrap();
        assert!(result_accuracy(&d, 1, 0.9).is_err());
    }

    #[test]
    fn invalid_probability_rejected() {
        assert!(tuple_probability_accuracy(1.5, 20, 0.9).is_err());
    }
}
