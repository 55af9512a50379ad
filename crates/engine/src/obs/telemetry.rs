//! The engine's process-global telemetry registry.
//!
//! One [`Registry`] (from [`ausdb_obs`]) holds the engine-wide accuracy
//! and workload metrics: Monte-Carlo draws, de-facto bootstrap resample
//! counts, coupled-test verdict tallies, and histograms over the CI
//! widths the engine hands back to users — the paper's "how much to
//! trust this answer" signal, itself made observable.
//!
//! Everything here is purely observational: recording reads values that
//! already exist (interval endpoints, sample sizes, counts) and never
//! touches an RNG, a seed, or chunking, so recording never changes a
//! query result.

use std::sync::{Arc, OnceLock};

use ausdb_model::accuracy::AccuracyInfo;
use ausdb_obs::hist::log_linear_bounds;
use ausdb_obs::{Counter, Gauge, Histogram, Registry};

/// Handles into the engine-wide registry. Obtain via [`global`].
#[derive(Debug)]
pub struct EngineTelemetry {
    registry: Registry,
    /// Monte-Carlo values drawn across all evaluation paths.
    pub mc_draws: Arc<Counter>,
    /// De-facto resamples processed by `BOOTSTRAP-ACCURACY-INFO`.
    pub bootstrap_resamples: Arc<Counter>,
    verdict_true: Arc<Counter>,
    verdict_false: Arc<Counter>,
    verdict_unsure: Arc<Counter>,
    /// Absolute width of mean confidence intervals returned to users.
    pub ci_width: Arc<Histogram>,
    /// CI width relative to the interval midpoint's magnitude.
    pub ci_relative_width: Arc<Histogram>,
    /// De-facto sample sizes `n` observed in accuracy computations.
    pub df_sample_size: Arc<Histogram>,
    /// Bootstrap resample counts `r = m / n` per invocation.
    pub resample_count: Arc<Histogram>,
    quantile_cache_hits: Arc<Gauge>,
    quantile_cache_misses: Arc<Gauge>,
}

impl EngineTelemetry {
    fn new() -> Self {
        let registry = Registry::new();
        let verdicts = "Coupled significance-test verdicts by outcome";
        Self {
            mc_draws: registry.counter(
                "ausdb_mc_draws_total",
                "Monte-Carlo values drawn across all evaluation paths",
                &[],
            ),
            bootstrap_resamples: registry.counter(
                "ausdb_bootstrap_resamples_total",
                "De-facto bootstrap resamples processed",
                &[],
            ),
            // Pre-register all three verdict series so the exposition
            // always shows the full family, zeros included.
            verdict_true: registry.counter(
                "ausdb_sig_verdicts_total",
                verdicts,
                &[("verdict", "true")],
            ),
            verdict_false: registry.counter(
                "ausdb_sig_verdicts_total",
                verdicts,
                &[("verdict", "false")],
            ),
            verdict_unsure: registry.counter(
                "ausdb_sig_verdicts_total",
                verdicts,
                &[("verdict", "unsure")],
            ),
            ci_width: registry.histogram(
                "ausdb_ci_width",
                "Absolute width of mean confidence intervals in query results",
                &log_linear_bounds(-4, 3),
                &[],
            ),
            ci_relative_width: registry.histogram(
                "ausdb_ci_relative_width",
                "Mean-CI width relative to the interval midpoint magnitude",
                &log_linear_bounds(-4, 2),
                &[],
            ),
            df_sample_size: registry.histogram(
                "ausdb_df_sample_size",
                "De-facto sample sizes n in accuracy computations",
                &log_linear_bounds(0, 5),
                &[],
            ),
            resample_count: registry.histogram(
                "ausdb_bootstrap_resample_count",
                "Bootstrap resample count r per BOOTSTRAP-ACCURACY-INFO call",
                &log_linear_bounds(0, 4),
                &[],
            ),
            quantile_cache_hits: registry.gauge(
                "ausdb_quantile_cache_hits",
                "Hits in the stats crate's t/chi-square quantile memo",
                &[],
            ),
            quantile_cache_misses: registry.gauge(
                "ausdb_quantile_cache_misses",
                "Misses in the stats crate's t/chi-square quantile memo",
                &[],
            ),
            registry,
        }
    }

    /// The verdict counter for a significance outcome (`None` = UNSURE).
    pub fn verdict(&self, decided: Option<bool>) -> &Counter {
        match decided {
            Some(true) => &self.verdict_true,
            Some(false) => &self.verdict_false,
            None => &self.verdict_unsure,
        }
    }

    /// Observes the accuracy information attached to a result: the mean
    /// CI's absolute and relative width plus the de-facto sample size.
    /// The relative width is skipped when the interval midpoint is zero
    /// or non-finite (the ratio would be meaningless).
    pub fn record_accuracy(&self, info: &AccuracyInfo) {
        self.df_sample_size.observe(info.sample_size as f64);
        if let Some(ci) = &info.mean_ci {
            let width = ci.hi - ci.lo;
            self.ci_width.observe(width);
            let mid = (ci.hi + ci.lo) / 2.0;
            if mid.is_finite() && mid != 0.0 {
                self.ci_relative_width.observe(width / mid.abs());
            }
        }
    }

    /// The engine-wide registry, with the quantile-cache gauges synced
    /// from the stats crate's counters.
    pub fn registry(&self) -> &Registry {
        let (hits, misses) = ausdb_stats::ci::quantile_cache_counters();
        self.quantile_cache_hits.set(hits as f64);
        self.quantile_cache_misses.set(misses as f64);
        &self.registry
    }
}

/// The process-global engine telemetry.
pub fn global() -> &'static EngineTelemetry {
    static GLOBAL: OnceLock<EngineTelemetry> = OnceLock::new();
    GLOBAL.get_or_init(EngineTelemetry::new)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ausdb_stats::ci::ConfidenceInterval;

    #[test]
    fn verdict_counters_tally_by_outcome() {
        let t = global();
        let (before_t, before_f, before_u) =
            (t.verdict(Some(true)).get(), t.verdict(Some(false)).get(), t.verdict(None).get());
        t.verdict(Some(true)).inc();
        t.verdict(Some(true)).inc();
        t.verdict(Some(false)).inc();
        t.verdict(None).inc();
        // Other tests run concurrently against the same process-global
        // counters, so assert lower bounds only.
        assert!(t.verdict(Some(true)).get() >= before_t + 2);
        assert!(t.verdict(Some(false)).get() > before_f);
        assert!(t.verdict(None).get() > before_u);
    }

    #[test]
    fn record_accuracy_observes_widths() {
        // A private instance: exact assertions, no races with concurrent
        // tests hitting the process-global registry.
        let t = EngineTelemetry::new();
        let info = AccuracyInfo::new(25).with_mean_ci(ConfidenceInterval::new(9.0, 11.0, 0.9));
        t.record_accuracy(&info);
        assert_eq!(t.ci_width.count(), 1);
        assert_eq!(t.ci_relative_width.count(), 1);
        assert_eq!(t.df_sample_size.count(), 1);
        // Zero-midpoint interval: absolute width recorded, relative skipped.
        let zero_mid = AccuracyInfo::new(4).with_mean_ci(ConfidenceInterval::new(-1.0, 1.0, 0.9));
        t.record_accuracy(&zero_mid);
        assert_eq!(t.ci_width.count(), 2);
        assert_eq!(t.ci_relative_width.count(), 1);
    }

    #[test]
    fn exposition_includes_required_families() {
        let text = global().registry().render();
        assert!(text.contains("# TYPE ausdb_sig_verdicts_total counter"), "{text}");
        assert!(text.contains("ausdb_sig_verdicts_total{verdict=\"unsure\"}"), "{text}");
        assert!(text.contains("# TYPE ausdb_ci_relative_width histogram"), "{text}");
        assert!(text.contains("ausdb_quantile_cache_hits"), "{text}");
    }
}
