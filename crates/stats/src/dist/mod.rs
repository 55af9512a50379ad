//! Probability distributions with density, CDF, quantile, moments and
//! sampling.
//!
//! The five continuous families (exponential, gamma, normal, uniform,
//! Weibull) are exactly the synthetic workloads of the paper's Section V;
//! Student's t and χ² drive the analytical intervals of Lemma 2; the
//! binomial justifies Lemma 1's proportion intervals.
//!
//! Every distribution implements [`ContinuousDistribution`] (or, for the
//! binomial, its own discrete API) and samples through any [`rand::Rng`],
//! so all randomness stays caller-seeded and reproducible.

mod binomial;
mod chi_squared;
mod exponential;
mod gamma;
mod normal;
mod student_t;
mod uniform;
mod weibull;

pub use binomial::Binomial;
pub use chi_squared::ChiSquared;
pub use exponential::Exponential;
pub use gamma::Gamma;
pub use normal::Normal;
pub use student_t::StudentT;
pub use uniform::Uniform;
pub use weibull::Weibull;

use rand::{Rng, RngExt};

/// Error raised when constructing a distribution with invalid parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DistError {
    what: String,
}

impl DistError {
    pub(crate) fn new(what: impl Into<String>) -> Self {
        Self { what: what.into() }
    }
}

impl std::fmt::Display for DistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid distribution parameter: {}", self.what)
    }
}

impl std::error::Error for DistError {}

/// A univariate continuous probability distribution.
///
/// Implementors guarantee: `cdf` is nondecreasing with limits 0 and 1,
/// `quantile(cdf(x)) ≈ x` on the support, `mean`/`variance` are the exact
/// analytic moments, and `sample` draws are distributed with density `pdf`.
pub trait ContinuousDistribution {
    /// Probability density at `x`.
    fn pdf(&self, x: f64) -> f64;

    /// Cumulative distribution `Pr[X ≤ x]`.
    fn cdf(&self, x: f64) -> f64;

    /// Quantile (inverse CDF) at probability `p ∈ (0, 1)`.
    fn quantile(&self, p: f64) -> f64;

    /// Expected value.
    fn mean(&self) -> f64;

    /// Variance.
    fn variance(&self) -> f64;

    /// Draws one sample.
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64;

    /// Fills `out` with independent samples.
    ///
    /// The default implementation loops over [`Self::sample`]; families
    /// with a cheaper bulk form (paired Box-Muller for the normal, batched
    /// inverse-CDF for the exponential, ...) override it. Bulk kernels may
    /// consume the generator differently than repeated `sample` calls, so
    /// the two paths agree in distribution but not draw-for-draw.
    fn sample_into<R: Rng + ?Sized>(&self, rng: &mut R, out: &mut [f64]) {
        for slot in out {
            *slot = self.sample(rng);
        }
    }

    /// Draws `n` samples into a freshly allocated vector (via the bulk
    /// [`Self::sample_into`] kernel).
    fn sample_n<R: Rng + ?Sized>(&self, rng: &mut R, n: usize) -> Vec<f64> {
        let mut out = vec![0.0; n];
        self.sample_into(rng, &mut out);
        out
    }

    /// Standard deviation (`variance().sqrt()`).
    fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// `Pr[X > x]`, the survival function.
    fn sf(&self, x: f64) -> f64 {
        1.0 - self.cdf(x)
    }
}

/// Draws a uniform variate in the open interval (0, 1).
///
/// Rejects exact zero so that inverse-transform samplers can take logs.
pub(crate) fn open_unit<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u: f64 = rng.random();
        if u > 0.0 {
            return u;
        }
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    //! Shared distribution test helpers: moment checks and CDF round trips.
    use super::ContinuousDistribution;
    use crate::rng::seeded;

    /// Asserts that empirical mean/variance of `n` samples match the
    /// analytic moments within `tol` standard errors.
    pub fn check_moments<D: ContinuousDistribution>(d: &D, n: usize, seed: u64, tol: f64) {
        let mut rng = seeded(seed);
        let xs = d.sample_n(&mut rng, n);
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n as f64 - 1.0);
        let se_mean = (d.variance() / n as f64).sqrt();
        assert!(
            (mean - d.mean()).abs() < tol * se_mean,
            "mean: sample {mean} vs analytic {} (se {se_mean})",
            d.mean()
        );
        assert!(
            (var - d.variance()).abs() < 0.2 * d.variance() + tol * se_mean,
            "variance: sample {var} vs analytic {}",
            d.variance()
        );
    }

    /// Asserts `quantile(cdf(x)) ≈ x` over a probability grid.
    pub fn check_quantile_roundtrip<D: ContinuousDistribution>(d: &D, tol: f64) {
        for &p in &[0.001, 0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999] {
            let x = d.quantile(p);
            let back = d.cdf(x);
            assert!((back - p).abs() < tol, "cdf(quantile({p})) = {back}, expected {p}");
        }
    }

    /// Asserts the CDF is nondecreasing over a sampled grid of the support.
    pub fn check_cdf_monotone<D: ContinuousDistribution>(d: &D) {
        let lo = d.quantile(0.001);
        let hi = d.quantile(0.999);
        let mut prev = 0.0;
        for i in 0..=200 {
            let x = lo + (hi - lo) * i as f64 / 200.0;
            let c = d.cdf(x);
            assert!(c >= prev - 1e-12, "cdf not monotone at {x}: {c} < {prev}");
            assert!((0.0..=1.0).contains(&c));
            prev = c;
        }
    }
}
