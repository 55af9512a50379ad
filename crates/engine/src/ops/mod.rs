//! Streaming operators.
//!
//! Operators implement [`ausdb_model::stream::TupleStream`] and compose
//! into pull-based pipelines. Each operator that produces uncertain output
//! can attach accuracy information in one of three [`AccuracyMode`]s:
//! none, analytical (Theorem 1), or bootstrap (`BOOTSTRAP-ACCURACY-INFO`).

use ausdb_model::tuple::Field;
use rand::rngs::StdRng;

use crate::accuracy::{gaussian_or_point, result_field, ResultRv};
use crate::error::EngineError;
use crate::obs::OpMetrics;

mod filter;
mod groupby;
mod join;
mod project;
mod sigfilter;
mod time_window;
mod union;
mod window;

pub use filter::Filter;
pub use groupby::{GroupAggKind, GroupBy};
pub use join::HashJoin;
pub use project::{Project, Projection};
pub use sigfilter::{SigFilter, SigMode};
pub use time_window::TimeWindowAgg;
pub use union::Union;
pub use window::{WindowAgg, WindowAggKind};

/// How (and whether) operators compute accuracy information for their
/// outputs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AccuracyMode {
    /// Plain accuracy-oblivious processing (the baseline the paper
    /// measures against in Figure 5(c)).
    None,
    /// Analytical accuracy via Theorem 1 (Lemmas 1–3) at this confidence
    /// level.
    Analytical {
        /// Confidence level of the produced intervals.
        level: f64,
    },
    /// Bootstrap accuracy via `BOOTSTRAP-ACCURACY-INFO`.
    Bootstrap {
        /// Confidence level of the produced intervals.
        level: f64,
        /// Number of Monte-Carlo values `m` to generate (the algorithm
        /// groups them into `⌊m/n⌋` de-facto resamples).
        mc_values: usize,
    },
}

impl AccuracyMode {
    /// The confidence level, if accuracy tracking is on.
    pub fn level(&self) -> Option<f64> {
        match self {
            AccuracyMode::None => None,
            AccuracyMode::Analytical { level } | AccuracyMode::Bootstrap { level, .. } => {
                Some(*level)
            }
        }
    }
}

/// The result field of a closed-form aggregate over independent inputs, by
/// moment propagation: `SUM ~ N(Σμᵢ, Σσᵢ²)`, and `AVG` over `k` inputs
/// (`avg_over`) divides the mean by `k` and the variance by `k²`. `min_n`
/// is the de-facto sample size (Lemma 3: the scarcest input); with no
/// sampled input at all the result is exact and carries no accuracy.
pub(crate) fn aggregate_field(
    sum_mu: f64,
    sum_var: f64,
    avg_over: Option<usize>,
    min_n: Option<usize>,
    mode: AccuracyMode,
    rng: &mut StdRng,
    metrics: &OpMetrics,
) -> Result<Field, EngineError> {
    let (mu, var) = match avg_over {
        Some(k) => (sum_mu / k as f64, sum_var / (k as f64 * k as f64)),
        None => (sum_mu, sum_var),
    };
    let dist = gaussian_or_point(mu, var)?;
    match min_n {
        None => Ok(Field::plain(dist)),
        Some(df_n) => result_field(ResultRv::ClosedForm(dist), df_n, mode, rng, metrics),
    }
}
