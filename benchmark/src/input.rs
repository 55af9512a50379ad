//! The shared input: one stream `traffic` over 256 CarTel road segments.
//!
//! Everything here is a function of `--seed` alone. One *cycle* of rows
//! (64 windows) is generated once per key mix and replayed with a growing
//! event-time offset, so a run of any length costs one cycle of set-up.

use ausdb_datagen::CartelSim;
use ausdb_learn::learner::RawObservation;
use ausdb_stats::rng::substream;
use rand::RngExt;

/// Stream every workload writes to and every query reads from.
pub const STREAM: &str = "traffic";
/// Road segments = keys.
pub const KEYS: usize = 256;
/// Window width in event-time units (`ausdb serve --window 60`).
pub const WINDOW: u64 = 60;
/// Mean observations per key per window: the paper's n = 20.
pub const OBS_PER_KEY: usize = 20;
/// Rows between two window closes.
pub const ROWS_PER_WINDOW: usize = KEYS * OBS_PER_KEY;
/// Windows in one generated cycle.
pub const CYCLE_WINDOWS: usize = 64;
/// Rows in one generated cycle (a multiple of both frame sizes).
pub const CYCLE_ROWS: usize = ROWS_PER_WINDOW * CYCLE_WINDOWS;
/// Event time one cycle spans.
pub const CYCLE_SPAN: u64 = WINDOW * CYCLE_WINDOWS as u64;
/// Share of skewed-mix rows that arrive late, and by how much at most.
pub const DELAYED_SHARE: f64 = 0.05;
/// Largest delay of a delayed row, in event-time units (two windows).
pub const MAX_DELAY: i64 = 120;

/// How keys and event times are drawn.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyMix {
    /// Uniform keys, event times in order.
    Uniform,
    /// Zipf(1.0) keys, 5 % of rows delayed by 1–120 event-time units.
    Skewed,
}

/// One generated row; `ts_rel` is relative to the cycle's start and can be
/// negative for a delayed row near the start of the cycle.
#[derive(Debug, Clone, Copy)]
struct CycleRow {
    key: i64,
    ts_rel: i64,
    value: f64,
}

/// The seed-determined input shared by all workloads.
pub struct Input {
    /// The seed everything here was made from.
    pub seed: u64,
    /// `Segment::true_mean()` per key: the ground truth the CI guard uses.
    pub true_means: Vec<f64>,
    /// Filter/test threshold `T`: the median of the true means.
    pub threshold: f64,
    uniform: Vec<CycleRow>,
    skewed: Vec<CycleRow>,
}

impl Input {
    /// Builds both cycles from `seed`.
    pub fn generate(seed: u64) -> Self {
        let sim = CartelSim::new(KEYS, seed);
        let true_means: Vec<f64> = sim.segments().iter().map(|s| s.true_mean()).collect();
        let mut sorted = true_means.clone();
        sorted.sort_by(f64::total_cmp);
        // Three decimals keep the SQL text short; the exact value is irrelevant.
        let threshold = ((sorted[KEYS / 2 - 1] + sorted[KEYS / 2]) / 2.0 * 1000.0).round() / 1000.0;

        // Zipf(1.0) over the keys as a cumulative table.
        let weights: Vec<f64> = (1..=KEYS).map(|rank| 1.0 / rank as f64).collect();
        let total: f64 = weights.iter().sum();
        let mut cdf = Vec::with_capacity(KEYS);
        let mut acc = 0.0;
        for w in &weights {
            acc += w / total;
            cdf.push(acc);
        }

        let cycle = |mix: KeyMix| -> Vec<CycleRow> {
            let mut rng = substream(seed, 0xBE7C ^ mix as u64);
            (0..CYCLE_ROWS)
                .map(|i| {
                    let now = (i as u64 * WINDOW / ROWS_PER_WINDOW as u64) as i64;
                    let (key, ts_rel) = match mix {
                        KeyMix::Uniform => (rng.random_range(0..KEYS), now),
                        KeyMix::Skewed => {
                            let u: f64 = rng.random();
                            let key = cdf.partition_point(|&c| c < u).min(KEYS - 1);
                            let delayed = rng.random_bool(DELAYED_SHARE);
                            let delay = if delayed { rng.random_range(1..=MAX_DELAY) } else { 0 };
                            (key, now - delay)
                        }
                    };
                    let value = sim.segments()[key].observe(&mut rng);
                    CycleRow { key: key as i64, ts_rel, value }
                })
                .collect()
        };
        Self {
            seed,
            true_means,
            threshold,
            uniform: cycle(KeyMix::Uniform),
            skewed: cycle(KeyMix::Skewed),
        }
    }

    /// Fills `out` with rows `[pos, pos + n)` of the endless replay of the
    /// `mix` cycle. Row `i` of cycle `c` carries event time
    /// `c · CYCLE_SPAN + ts_rel(i)`.
    pub fn fill(&self, mix: KeyMix, pos: u64, n: usize, out: &mut Vec<RawObservation>) {
        let cycle = match mix {
            KeyMix::Uniform => &self.uniform,
            KeyMix::Skewed => &self.skewed,
        };
        out.clear();
        out.extend((pos..pos + n as u64).map(|p| {
            let row = cycle[(p % CYCLE_ROWS as u64) as usize];
            let offset = (p / CYCLE_ROWS as u64 * CYCLE_SPAN) as i64;
            RawObservation::new(row.key, (offset + row.ts_rel).max(0) as u64, row.value)
        }));
    }
}

/// Names of the six queries, in the order `paced_query` cycles them.
pub const QUERY_NAMES: [&str; 6] = ["q.star", "q.prob", "q.mtest", "q.linear", "q.boot", "q.mc"];
/// How many of [`QUERY_NAMES`], from the front, form the standing set:
/// all closed-form, no Monte-Carlo, no bootstrap.
pub const STANDING: usize = 4;

/// The SQL text of the query set for threshold `t`.
pub fn query_set(t: f64) -> [String; 6] {
    [
        format!("SELECT * FROM {STREAM}"),
        format!("SELECT key, value FROM {STREAM} WHERE value > {t} PROB 0.5"),
        format!("SELECT key FROM {STREAM} HAVING MTEST(value, '>', {t}, 0.05, 0.05)"),
        format!("SELECT key, value * 2 AS d FROM {STREAM} WITH ACCURACY ANALYTICAL LEVEL 0.9"),
        format!(
            "SELECT key, value * 2 AS d FROM {STREAM} WITH ACCURACY BOOTSTRAP LEVEL 0.9 SAMPLES 200"
        ),
        format!(
            "SELECT key, SQRT(ABS(value - {t})) * SQUARE(value) / 2 AS z FROM {STREAM} \
             WITH ACCURACY ANALYTICAL LEVEL 0.9"
        ),
    ]
}
