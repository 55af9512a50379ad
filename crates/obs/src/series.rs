//! Multi-resolution metric retention: the accuracy-trajectory store.
//!
//! A [`SeriesStore`] keeps a bounded, in-memory history of every scraped
//! metric series (counter deltas, gauge samples, mergeable histogram
//! snapshots) plus event-driven accuracy points appended at window close
//! for each standing query. Retention is tiered: a fine ring (e.g. 1s
//! buckets) feeds coarser rings (e.g. 10s, 1m) by **exact merge-rollup**
//! — a coarse bucket is produced by merging the fine buckets it covers
//! (counter deltas add exactly as `u64`s; histogram buckets merge via
//! [`HistogramSnapshot::merge`], which adds counts exactly), never by
//! re-recording samples, so coarse tiers cannot drift from fine ones.
//!
//! Everything here is observational and RNG-free: the store only ever
//! *reads* values that already exist (counter values, gauge readings,
//! histogram snapshots, already-computed accuracy info), so recording
//! can never change a query result.
//!
//! ## Memory model
//!
//! Each series holds one `VecDeque` ring per tier, capped at the tier's
//! configured capacity; storage is sparse (a tick that changes nothing —
//! zero counter delta, unchanged gauge, empty histogram delta — creates
//! no bucket), and the store refuses to track more than [`MAX_SERIES`]
//! distinct series, so total memory is bounded by
//! `series × Σ tier capacities` regardless of uptime.

use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::sync::Mutex;

use crate::hist::HistogramSnapshot;
use crate::metrics::{Sample, SampleValue};

/// Hard cap on distinct retained series; later names are dropped so a
/// label-cardinality explosion cannot grow the store without bound.
pub const MAX_SERIES: usize = 4096;

/// One retention tier: buckets of `step` ticks, at most `cap` of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TierSpec {
    /// Bucket width in ticks (1 tick = one sampler interval, nominally 1s).
    pub step: u64,
    /// Ring capacity in buckets.
    pub cap: usize,
}

/// Validates a tier layout: non-empty, strictly ascending steps where
/// each coarse step is a multiple of the previous, and every fine ring
/// big enough to still hold all fine buckets of a coarse bucket when it
/// completes (cap ≥ next step / step).
pub fn valid_tiers(tiers: &[TierSpec]) -> bool {
    if tiers.is_empty() || tiers.iter().any(|t| t.step == 0 || t.cap == 0) {
        return false;
    }
    tiers.windows(2).all(|w| {
        w[1].step > w[0].step
            && w[1].step % w[0].step == 0
            && w[0].cap as u64 >= w[1].step / w[0].step
    })
}

/// Accuracy points retained per standing query by the default store.
pub const DEFAULT_EVENTS_CAP: usize = 512;

/// The default tier layout: 1s × 120, 10s × 180 (30 min), 60s × 240 (4 h).
pub fn default_tiers() -> Vec<TierSpec> {
    vec![
        TierSpec { step: 1, cap: 120 },
        TierSpec { step: 10, cap: 180 },
        TierSpec { step: 60, cap: 240 },
    ]
}

/// Parses a duration in ticks: a bare integer is taken as seconds
/// (= ticks at the default 1s cadence); `s`/`m`/`h` suffixes scale.
/// Zero is rejected — an empty window or step is never meaningful.
pub fn parse_ticks(s: &str) -> Option<u64> {
    let s = s.trim();
    let (digits, mult) = match s.as_bytes().last()? {
        b's' => (&s[..s.len() - 1], 1u64),
        b'm' => (&s[..s.len() - 1], 60),
        b'h' => (&s[..s.len() - 1], 3600),
        _ => (s, 1),
    };
    digits.parse::<u64>().ok().and_then(|n| n.checked_mul(mult)).filter(|&n| n > 0)
}

/// One per-window accuracy observation for a standing query, appended at
/// window close. `window_start` is event time, not sampler ticks, so the
/// trajectory is deterministic for a fixed ingest script.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccuracyPoint {
    /// The closed window's start (event time).
    pub window_start: u64,
    /// Widest CI advertised anywhere in the evaluated result set.
    pub ci_width: f64,
    /// Largest de-facto sample size `n` (Lemma 3) across result tuples.
    pub df_n: u64,
    /// Bootstrap resamples spent evaluating this window.
    pub resamples: u64,
    /// Coupled-test TRUE verdicts produced by this evaluation.
    pub verdicts_true: u64,
    /// Coupled-test FALSE verdicts produced by this evaluation.
    pub verdicts_false: u64,
    /// Result rows delivered to the subscriber.
    pub rows: u64,
    /// The stream's cumulative late-row count at close time.
    pub late_rows: u64,
}

/// One retained bucket. All buckets of a series share a variant.
#[derive(Debug, Clone, PartialEq)]
pub enum Bucket {
    /// Counter increments within the bucket interval.
    Counter {
        /// Bucket start tick.
        t: u64,
        /// Counter increments observed in `[t, t + step)`.
        delta: u64,
    },
    /// Gauge samples within the bucket interval.
    Gauge {
        /// Bucket start tick.
        t: u64,
        /// Most recent sampled value.
        last: f64,
        /// Smallest sampled value.
        min: f64,
        /// Largest sampled value.
        max: f64,
        /// Sum of sampled values (folded oldest → newest).
        sum: f64,
        /// Number of samples folded in.
        count: u64,
    },
    /// Histogram observations within the bucket interval.
    Histogram {
        /// Bucket start tick.
        t: u64,
        /// The bucket's delta snapshot (observations in `[t, t + step)`).
        snap: HistogramSnapshot,
    },
}

impl Bucket {
    /// The bucket's start tick.
    pub fn start(&self) -> u64 {
        match self {
            Bucket::Counter { t, .. } | Bucket::Gauge { t, .. } | Bucket::Histogram { t, .. } => *t,
        }
    }

    fn set_start(&mut self, start: u64) {
        match self {
            Bucket::Counter { t, .. } | Bucket::Gauge { t, .. } | Bucket::Histogram { t, .. } => {
                *t = start;
            }
        }
    }

    /// Folds `newer` (a strictly later bucket of the same series) into
    /// `self`. Counter deltas add exactly; histogram buckets merge via
    /// [`HistogramSnapshot::merge`] (count-exact); gauge min/max/count
    /// are exact and `sum`/`last` fold deterministically oldest → newest.
    fn absorb(&mut self, newer: &Bucket) {
        match (self, newer) {
            (Bucket::Counter { delta, .. }, Bucket::Counter { delta: d2, .. }) => {
                *delta += *d2;
            }
            (
                Bucket::Gauge { last, min, max, sum, count, .. },
                Bucket::Gauge { last: l2, min: m2, max: x2, sum: s2, count: c2, .. },
            ) => {
                *last = *l2;
                *min = min.min(*m2);
                *max = max.max(*x2);
                *sum += *s2;
                *count += *c2;
            }
            (Bucket::Histogram { snap, .. }, Bucket::Histogram { snap: s2, .. }) => {
                if let Ok(merged) = snap.merge(s2) {
                    *snap = merged;
                }
            }
            // A series never mixes variants; nothing sensible to do if
            // one somehow did.
            _ => {}
        }
    }
}

/// Merges a run of same-series buckets (oldest → newest) into one bucket
/// starting at `start`. This is *the* rollup operation: coarse tiers and
/// `STEP`-grouped query output are both produced by it, so they are
/// bit-identical to re-merging the underlying fine buckets by
/// construction.
fn merge_run<'a>(buckets: impl IntoIterator<Item = &'a Bucket>, start: u64) -> Option<Bucket> {
    let mut iter = buckets.into_iter();
    let mut acc = iter.next()?.clone();
    for b in iter {
        acc.absorb(b);
    }
    acc.set_start(start);
    Some(acc)
}

#[derive(Debug, Default)]
struct TierRing {
    finalized: VecDeque<Bucket>,
    /// Tier 0 only: the bucket currently accumulating samples.
    open: Option<Bucket>,
    /// Tiers ≥ 1: start of the coarse bucket currently being covered by
    /// fine buckets (not yet rolled up).
    open_start: Option<u64>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Counter,
    Gauge,
    Histogram,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

#[derive(Debug)]
struct SeriesData {
    kind: Kind,
    /// Last cumulative counter value, for delta computation.
    last_counter: u64,
    /// Last sampled gauge bits, for unchanged-sample suppression.
    last_gauge: Option<u64>,
    /// Last cumulative histogram snapshot, for delta computation.
    last_hist: Option<HistogramSnapshot>,
    tiers: Vec<TierRing>,
}

impl SeriesData {
    fn new(kind: Kind, n_tiers: usize) -> Self {
        Self {
            kind,
            last_counter: 0,
            last_gauge: None,
            last_hist: None,
            tiers: (0..n_tiers).map(|_| TierRing::default()).collect(),
        }
    }
}

#[derive(Debug, Default)]
struct Inner {
    /// Largest sampler tick recorded (the store's "now").
    now: u64,
    series: BTreeMap<String, SeriesData>,
    /// Accuracy event rings, keyed by full series name
    /// (`ausdb_accuracy{query="<id>"}`).
    accuracy: BTreeMap<String, VecDeque<AccuracyPoint>>,
}

/// One entry of [`SeriesStore::list`]: name, kind, retained point count
/// in the finest tier (or event count for accuracy series).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeriesInfo {
    /// Full series name, labels included.
    pub name: String,
    /// `counter`, `gauge`, `histogram`, or `accuracy`.
    pub kind: &'static str,
    /// Retained points in the finest tier / event ring.
    pub points: usize,
}

/// One query result: the chosen resolution plus its points.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesSlice {
    /// The queried series name.
    pub name: String,
    /// `counter`, `gauge`, `histogram`, or `accuracy`.
    pub kind: &'static str,
    /// Output bucket width in ticks (0 for event-driven accuracy series,
    /// whose x-axis is event time).
    pub step: u64,
    /// The points, oldest first.
    pub points: Vec<Point>,
}

/// One rendered history point.
#[derive(Debug, Clone, PartialEq)]
pub enum Point {
    /// A retained metric bucket.
    Bucket(Bucket),
    /// A per-window accuracy observation.
    Accuracy(AccuracyPoint),
}

impl Point {
    /// The point's x coordinate (tick for buckets, window start for
    /// accuracy points).
    pub fn t(&self) -> u64 {
        match self {
            Point::Bucket(b) => b.start(),
            Point::Accuracy(p) => p.window_start,
        }
    }

    /// Renders the point as `key=value` pairs, `t=` first — the protocol
    /// (`POINT …`) representation.
    pub fn render_kv(&self) -> String {
        match self {
            Point::Bucket(Bucket::Counter { t, delta }) => format!("t={t} delta={delta}"),
            Point::Bucket(Bucket::Gauge { t, last, min, max, sum, count }) => {
                format!("t={t} last={last} min={min} max={max} sum={sum} count={count}")
            }
            Point::Bucket(Bucket::Histogram { t, snap }) => {
                format!(
                    "t={t} count={} sum={} p50={} p90={} p99={}",
                    snap.count(),
                    snap.sum,
                    quantile(snap, 0.50),
                    quantile(snap, 0.90),
                    quantile(snap, 0.99)
                )
            }
            Point::Accuracy(p) => format!(
                "t={} ci_width={} df_n={} resamples={} verdicts_true={} verdicts_false={} \
                 rows={} late_rows={}",
                p.window_start,
                p.ci_width,
                p.df_n,
                p.resamples,
                p.verdicts_true,
                p.verdicts_false,
                p.rows,
                p.late_rows
            ),
        }
    }

    /// Renders the point as a JSON object with the same keys as
    /// [`Point::render_kv`] (non-finite floats become `null`).
    pub fn render_json(&self) -> String {
        match self {
            Point::Bucket(Bucket::Counter { t, delta }) => {
                format!("{{\"t\":{t},\"delta\":{delta}}}")
            }
            Point::Bucket(Bucket::Gauge { t, last, min, max, sum, count }) => format!(
                "{{\"t\":{t},\"last\":{},\"min\":{},\"max\":{},\"sum\":{},\"count\":{count}}}",
                json_f64(*last),
                json_f64(*min),
                json_f64(*max),
                json_f64(*sum)
            ),
            Point::Bucket(Bucket::Histogram { t, snap }) => format!(
                "{{\"t\":{t},\"count\":{},\"sum\":{},\"p50\":{},\"p90\":{},\"p99\":{}}}",
                snap.count(),
                json_f64(snap.sum),
                json_f64(quantile(snap, 0.50)),
                json_f64(quantile(snap, 0.90)),
                json_f64(quantile(snap, 0.99))
            ),
            Point::Accuracy(p) => format!(
                "{{\"t\":{},\"ci_width\":{},\"df_n\":{},\"resamples\":{},\"verdicts_true\":{},\
                 \"verdicts_false\":{},\"rows\":{},\"late_rows\":{}}}",
                p.window_start,
                json_f64(p.ci_width),
                p.df_n,
                p.resamples,
                p.verdicts_true,
                p.verdicts_false,
                p.rows,
                p.late_rows
            ),
        }
    }
}

impl SeriesSlice {
    /// Renders the slice as one JSON object on a single line.
    pub fn render_json(&self) -> String {
        let points: Vec<String> = self.points.iter().map(Point::render_json).collect();
        format!(
            "{{\"series\":\"{}\",\"kind\":\"{}\",\"step\":{},\"points\":[{}]}}",
            json_escape(&self.name),
            self.kind,
            self.step,
            points.join(",")
        )
    }
}

/// The bounded multi-resolution retention store. Thread-safe: the
/// sampler, window-close appends, and readers all go through one mutex
/// (writes are once per tick / per window close, so contention is nil).
#[derive(Debug)]
pub struct SeriesStore {
    tiers: Vec<TierSpec>,
    events_cap: usize,
    inner: Mutex<Inner>,
}

impl Default for SeriesStore {
    fn default() -> Self {
        Self::with_default_tiers()
    }
}

impl SeriesStore {
    /// A store over the given tier layout (falls back to
    /// [`default_tiers`] when the layout is invalid) retaining up to
    /// `events_cap` accuracy points per standing query.
    pub fn new(tiers: Vec<TierSpec>, events_cap: usize) -> Self {
        let tiers = if valid_tiers(&tiers) { tiers } else { default_tiers() };
        Self { tiers, events_cap: events_cap.max(1), inner: Mutex::new(Inner::default()) }
    }

    /// A store over [`default_tiers`] keeping [`DEFAULT_EVENTS_CAP`]
    /// accuracy points per standing query.
    pub fn with_default_tiers() -> Self {
        Self::new(default_tiers(), DEFAULT_EVENTS_CAP)
    }

    /// The tier layout in effect.
    pub fn tiers(&self) -> &[TierSpec] {
        &self.tiers
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Records one sampler scrape at `tick` (ticks must be
    /// non-decreasing). Counters and histograms are stored as deltas
    /// from the previous scrape; unchanged samples create no bucket.
    pub fn record_samples(&self, tick: u64, samples: &[Sample]) {
        let mut inner = self.lock();
        inner.now = inner.now.max(tick);
        for sample in samples {
            self.record_one(&mut inner, tick, sample);
        }
    }

    fn record_one(&self, inner: &mut Inner, tick: u64, sample: &Sample) {
        let kind = match sample.value {
            SampleValue::Counter(_) => Kind::Counter,
            SampleValue::Gauge(_) => Kind::Gauge,
            SampleValue::Histogram(_) => Kind::Histogram,
        };
        if !inner.series.contains_key(&sample.name) {
            if inner.series.len() >= MAX_SERIES {
                return;
            }
            inner.series.insert(sample.name.clone(), SeriesData::new(kind, self.tiers.len()));
        }
        let data = inner.series.get_mut(&sample.name).expect("series just ensured");
        if data.kind != kind {
            return; // a name can't change kind; ignore the impostor
        }
        let contribution = match &sample.value {
            SampleValue::Counter(cum) => {
                // A restart (cum < last) re-baselines at the new value.
                let delta = if *cum >= data.last_counter { *cum - data.last_counter } else { *cum };
                data.last_counter = *cum;
                if delta == 0 {
                    return;
                }
                Bucket::Counter { t: tick, delta }
            }
            SampleValue::Gauge(v) => {
                if data.last_gauge == Some(v.to_bits()) {
                    return;
                }
                data.last_gauge = Some(v.to_bits());
                Bucket::Gauge { t: tick, last: *v, min: *v, max: *v, sum: *v, count: 1 }
            }
            SampleValue::Histogram(cum) => {
                let delta = match &data.last_hist {
                    Some(prev) if prev.bounds.len() == cum.bounds.len() => HistogramSnapshot {
                        bounds: cum.bounds.clone(),
                        counts: cum
                            .counts
                            .iter()
                            .zip(&prev.counts)
                            .map(|(c, p)| c.saturating_sub(*p))
                            .collect(),
                        sum: cum.sum - prev.sum,
                    },
                    _ => cum.clone(),
                };
                data.last_hist = Some(cum.clone());
                if delta.count() == 0 {
                    return;
                }
                Bucket::Histogram { t: tick, snap: delta }
            }
        };
        record_bucket(data, &self.tiers, tick, contribution);
    }

    /// Appends one window-close accuracy point for standing query `id`.
    pub fn record_accuracy(&self, id: u64, point: AccuracyPoint) {
        let mut inner = self.lock();
        if inner.accuracy.len() >= MAX_SERIES && !inner.accuracy.contains_key(&accuracy_name(id)) {
            return;
        }
        let ring = inner.accuracy.entry(accuracy_name(id)).or_default();
        ring.push_back(point);
        while ring.len() > self.events_cap {
            ring.pop_front();
        }
    }

    /// Every retained series, sorted by name.
    pub fn list(&self) -> Vec<SeriesInfo> {
        let inner = self.lock();
        let mut out: Vec<SeriesInfo> = inner
            .series
            .iter()
            .map(|(name, data)| SeriesInfo {
                name: name.clone(),
                kind: data.kind.name(),
                points: data.tiers[0].finalized.len() + usize::from(data.tiers[0].open.is_some()),
            })
            .chain(inner.accuracy.iter().map(|(name, ring)| SeriesInfo {
                name: name.clone(),
                kind: "accuracy",
                points: ring.len(),
            }))
            .collect();
        out.sort_by(|a, b| a.name.cmp(&b.name));
        out
    }

    /// Queries one series. `last` keeps only points within the trailing
    /// window of that many ticks (event-time units for accuracy series);
    /// `step` regroups buckets to that output resolution via the same
    /// exact merge as the tier rollup. With neither, the finest tier is
    /// returned whole. Tier choice is deterministic: among the tiers
    /// whose step divides the requested one (all of them when `step` is
    /// absent), the finest whose retention covers `last` — falling back
    /// to the coarsest when none reaches that far. The trailing output
    /// group may still be accumulating (it reflects the open bucket).
    pub fn query(
        &self,
        series: &str,
        last: Option<u64>,
        step: Option<u64>,
    ) -> Result<SeriesSlice, String> {
        let inner = self.lock();
        if let Some(ring) = inner.accuracy.get(series) {
            let newest = ring.back().map_or(0, |p| p.window_start);
            let cutoff = last.map_or(0, |l| newest.saturating_sub(l.saturating_sub(1)));
            let points = ring
                .iter()
                .filter(|p| p.window_start >= cutoff)
                .map(|p| Point::Accuracy(*p))
                .collect();
            return Ok(SeriesSlice { name: series.to_string(), kind: "accuracy", step: 0, points });
        }
        let Some(data) = inner.series.get(series) else {
            return Err(format!("unknown series '{series}' (see HISTORY with no arguments)"));
        };
        let tier_idx = self.choose_tier(last, step)?;
        let tier_step = self.tiers[tier_idx].step;
        let out_step = step.unwrap_or(tier_step);
        let ring = &data.tiers[tier_idx];
        let cutoff = last.map(|l| inner.now.saturating_sub(l.saturating_sub(1)));
        let buckets = ring
            .finalized
            .iter()
            .chain(ring.open.iter())
            .filter(|b| cutoff.is_none_or(|c| b.start().saturating_add(tier_step) > c));
        let mut points = Vec::new();
        let mut group: Vec<&Bucket> = Vec::new();
        let mut group_start = None;
        for b in buckets {
            let gs = b.start() - b.start() % out_step;
            if group_start != Some(gs) {
                if let Some(s) = group_start {
                    if let Some(merged) = merge_run(group.drain(..), s) {
                        points.push(Point::Bucket(merged));
                    }
                }
                group_start = Some(gs);
            }
            group.push(b);
        }
        if let Some(s) = group_start {
            if let Some(merged) = merge_run(group.drain(..), s) {
                points.push(Point::Bucket(merged));
            }
        }
        Ok(SeriesSlice { name: series.to_string(), kind: data.kind.name(), step: out_step, points })
    }

    /// Picks the source tier for a query; see [`SeriesStore::query`].
    fn choose_tier(&self, last: Option<u64>, step: Option<u64>) -> Result<usize, String> {
        let candidates: Vec<usize> = match step {
            Some(s) => {
                let c: Vec<usize> = self
                    .tiers
                    .iter()
                    .enumerate()
                    .filter(|(_, t)| t.step <= s && s % t.step == 0)
                    .map(|(i, _)| i)
                    .collect();
                if c.is_empty() {
                    return Err(format!(
                        "bad step {s} (want a multiple of a tier step; finest is {})",
                        self.tiers[0].step
                    ));
                }
                c
            }
            None => (0..self.tiers.len()).collect(),
        };
        Ok(match last {
            // The finest candidate whose retention covers the window
            // (exact rollup makes any candidate equally *correct*, so
            // prefer resolution, fall back to reach).
            Some(l) => candidates
                .iter()
                .copied()
                .find(|&i| self.tiers[i].step.saturating_mul(self.tiers[i].cap as u64) >= l)
                .unwrap_or_else(|| *candidates.last().expect("candidates non-empty")),
            None => candidates[0],
        })
    }

    /// Finalized + open buckets of one tier, oldest first (test and
    /// export introspection; the rollup-exactness proptest compares
    /// these across tiers).
    pub fn tier_buckets(&self, series: &str, tier: usize) -> Vec<Bucket> {
        let inner = self.lock();
        inner.series.get(series).map_or_else(Vec::new, |data| {
            data.tiers.get(tier).map_or_else(Vec::new, |ring| {
                ring.finalized.iter().chain(ring.open.iter()).cloned().collect()
            })
        })
    }

    /// The largest sampler tick recorded so far.
    pub fn now(&self) -> u64 {
        self.lock().now
    }

    /// The consolidated JSON dump behind `HISTORY EXPORT`,
    /// `GET /history` and `ausdb serve --history-export`: every series
    /// at its finest retained resolution, one series object per line —
    /// the seed shape for the roadmap's `BENCH_scenarios.json`
    /// trajectory file.
    pub fn export_json(&self) -> String {
        let names: Vec<(String, bool)> = {
            let inner = self.lock();
            inner
                .series
                .keys()
                .map(|n| (n.clone(), false))
                .chain(inner.accuracy.keys().map(|n| (n.clone(), true)))
                .collect()
        };
        let mut sorted = names;
        sorted.sort();
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"version\": 1,");
        let _ = writeln!(out, "  \"ticks\": {},", self.now());
        let tiers: Vec<String> = self
            .tiers
            .iter()
            .map(|t| format!("{{\"step\":{},\"cap\":{}}}", t.step, t.cap))
            .collect();
        let _ = writeln!(out, "  \"tiers\": [{}],", tiers.join(","));
        out.push_str("  \"series\": [\n");
        for (i, (name, _)) in sorted.iter().enumerate() {
            let Ok(slice) = self.query(name, None, None) else { continue };
            let comma = if i + 1 < sorted.len() { "," } else { "" };
            let _ = writeln!(out, "    {}{comma}", slice.render_json());
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// The accuracy series name for standing query `id`.
pub fn accuracy_name(id: u64) -> String {
    format!("ausdb_accuracy{{query=\"{id}\"}}")
}

/// Feeds one contribution bucket into tier 0, finalizing and cascading
/// rollups as bucket boundaries are crossed.
fn record_bucket(data: &mut SeriesData, tiers: &[TierSpec], tick: u64, contribution: Bucket) {
    let step0 = tiers[0].step;
    let b0 = tick - tick % step0;
    let mut contribution = contribution;
    contribution.set_start(b0);
    match data.tiers[0].open.as_ref().map(Bucket::start) {
        None => data.tiers[0].open = Some(contribution),
        Some(s) if s == b0 => {
            data.tiers[0].open.as_mut().expect("open bucket present").absorb(&contribution);
        }
        Some(s) if s > b0 => {} // out-of-order tick: drop
        Some(_) => {
            let finished = data.tiers[0].open.take().expect("open bucket present");
            finalize(data, tiers, 0, finished);
            data.tiers[0].open = Some(contribution);
        }
    }
}

/// Pushes a finalized bucket into tier `idx`'s ring and rolls completed
/// coarse buckets up into tier `idx + 1` by exact merge.
fn finalize(data: &mut SeriesData, tiers: &[TierSpec], idx: usize, bucket: Bucket) {
    let start = bucket.start();
    data.tiers[idx].finalized.push_back(bucket);
    while data.tiers[idx].finalized.len() > tiers[idx].cap {
        data.tiers[idx].finalized.pop_front();
    }
    let Some(next_spec) = tiers.get(idx + 1) else { return };
    let cs = start - start % next_spec.step;
    match data.tiers[idx + 1].open_start {
        None => data.tiers[idx + 1].open_start = Some(cs),
        Some(o) if cs == o => {}
        Some(o) if cs < o => {}
        Some(o) => {
            // Coarse bucket `o` is complete: merge the fine buckets it
            // covers (all still retained — tier validation guarantees
            // the fine ring outlives one coarse step).
            let end = o + next_spec.step;
            let covered = data.tiers[idx]
                .finalized
                .iter()
                .filter(|b| b.start() >= o && b.start() < end)
                .cloned()
                .collect::<Vec<_>>();
            data.tiers[idx + 1].open_start = Some(cs);
            if let Some(merged) = merge_run(covered.iter(), o) {
                finalize(data, tiers, idx + 1, merged);
            }
        }
    }
}

/// The smallest bucket upper bound at or above the `q`-quantile of a
/// snapshot's observations (`+Inf` when it falls in the overflow
/// bucket). Deterministic, no interpolation.
fn quantile(snap: &HistogramSnapshot, q: f64) -> f64 {
    let total = snap.count();
    if total == 0 {
        return 0.0;
    }
    let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
    let mut cumulative = 0u64;
    for (i, c) in snap.counts.iter().enumerate() {
        cumulative += c;
        if cumulative >= rank {
            return snap.bounds.get(i).copied().unwrap_or(f64::INFINITY);
        }
    }
    f64::INFINITY
}

/// Escapes a string for inclusion in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders an `f64` for JSON (`null` for non-finite values, which JSON
/// cannot represent).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn tiers_1_10() -> Vec<TierSpec> {
        vec![TierSpec { step: 1, cap: 30 }, TierSpec { step: 10, cap: 10 }]
    }

    fn counter_sample(name: &str, cum: u64) -> Sample {
        Sample { name: name.to_string(), value: SampleValue::Counter(cum) }
    }

    #[test]
    fn tier_validation() {
        assert!(valid_tiers(&default_tiers()));
        assert!(!valid_tiers(&[]));
        assert!(!valid_tiers(&[TierSpec { step: 0, cap: 1 }]));
        // Coarse step not a multiple of fine.
        assert!(!valid_tiers(&[TierSpec { step: 2, cap: 10 }, TierSpec { step: 5, cap: 10 }]));
        // Fine ring too small to cover one coarse bucket.
        assert!(!valid_tiers(&[TierSpec { step: 1, cap: 5 }, TierSpec { step: 10, cap: 10 }]));
    }

    #[test]
    fn parse_ticks_forms() {
        assert_eq!(parse_ticks("60"), Some(60));
        assert_eq!(parse_ticks("90s"), Some(90));
        assert_eq!(parse_ticks("5m"), Some(300));
        assert_eq!(parse_ticks("2h"), Some(7200));
        assert_eq!(parse_ticks("0"), None);
        assert_eq!(parse_ticks("x"), None);
        assert_eq!(parse_ticks(""), None);
    }

    #[test]
    fn counter_deltas_are_sparse_and_exact() {
        let store = SeriesStore::new(tiers_1_10(), 16);
        for (tick, cum) in [(1, 5u64), (2, 5), (3, 9), (4, 9), (5, 10)] {
            store.record_samples(tick, &[counter_sample("c", cum)]);
        }
        let slice = store.query("c", None, None).expect("series exists");
        let deltas: Vec<(u64, u64)> = slice
            .points
            .iter()
            .map(|p| match p {
                Point::Bucket(Bucket::Counter { t, delta }) => (*t, *delta),
                other => panic!("unexpected point {other:?}"),
            })
            .collect();
        // Ticks 2 and 4 changed nothing → no buckets.
        assert_eq!(deltas, vec![(1, 5), (3, 4), (5, 1)]);
        assert_eq!(deltas.iter().map(|(_, d)| d).sum::<u64>(), 10, "deltas sum to the counter");
    }

    #[test]
    fn counter_reset_rebaselines() {
        let store = SeriesStore::new(tiers_1_10(), 16);
        store.record_samples(1, &[counter_sample("c", 7)]);
        store.record_samples(2, &[counter_sample("c", 3)]); // restart
        let slice = store.query("c", None, None).expect("series exists");
        assert_eq!(slice.points.len(), 2);
        assert_eq!(slice.points[1].render_kv(), "t=2 delta=3");
    }

    #[test]
    fn rollup_produces_coarse_buckets_by_exact_merge() {
        let store = SeriesStore::new(tiers_1_10(), 16);
        // One increment per tick for 25 ticks: coarse buckets [0,10) and
        // [10,20) complete (the first tick-0 bucket is empty — cum starts
        // at 1 → delta 1 at tick 0).
        for tick in 0..25u64 {
            store.record_samples(tick, &[counter_sample("c", tick + 1)]);
        }
        let coarse = store.tier_buckets("c", 1);
        assert_eq!(coarse.len(), 2, "{coarse:?}");
        assert_eq!(coarse[0], Bucket::Counter { t: 0, delta: 10 });
        assert_eq!(coarse[1], Bucket::Counter { t: 10, delta: 10 });
        // The coarse bucket is bit-identical to re-merging its fine run.
        let fine = store.tier_buckets("c", 0);
        let run: Vec<&Bucket> = fine.iter().filter(|b| b.start() >= 10 && b.start() < 20).collect();
        assert_eq!(merge_run(run.into_iter(), 10), Some(coarse[1].clone()));
    }

    #[test]
    fn gauge_buckets_fold_min_max_last() {
        let store = SeriesStore::new(vec![TierSpec { step: 5, cap: 8 }], 16);
        for (tick, v) in [(0u64, 2.0f64), (1, 7.0), (2, 1.0), (3, 1.0), (9, 4.0)] {
            store
                .record_samples(tick, &[Sample { name: "g".into(), value: SampleValue::Gauge(v) }]);
        }
        let slice = store.query("g", None, None).expect("series exists");
        assert_eq!(slice.points.len(), 2, "{slice:?}");
        assert_eq!(slice.points[0].render_kv(), "t=0 last=1 min=1 max=7 sum=10 count=3");
        assert_eq!(slice.points[1].render_kv(), "t=5 last=4 min=4 max=4 sum=4 count=1");
    }

    #[test]
    fn histogram_deltas_merge_exactly() {
        let bounds: Arc<[f64]> = Arc::from(vec![1.0, 10.0].into_boxed_slice());
        let snap_at = |counts: [u64; 3], sum: f64| HistogramSnapshot {
            bounds: Arc::clone(&bounds),
            counts: counts.to_vec(),
            sum,
        };
        let store = SeriesStore::new(tiers_1_10(), 16);
        let sample =
            |s: HistogramSnapshot| Sample { name: "h".into(), value: SampleValue::Histogram(s) };
        store.record_samples(1, &[sample(snap_at([1, 0, 0], 0.5))]);
        store.record_samples(2, &[sample(snap_at([1, 2, 0], 8.5))]);
        store.record_samples(3, &[sample(snap_at([1, 2, 0], 8.5))]); // unchanged → sparse
        store.record_samples(4, &[sample(snap_at([1, 2, 1], 108.5))]);
        let slice = store.query("h", None, Some(10)).expect("series exists");
        assert_eq!(slice.points.len(), 1, "{slice:?}");
        match &slice.points[0] {
            Point::Bucket(Bucket::Histogram { t, snap }) => {
                assert_eq!(*t, 0);
                assert_eq!(snap.counts, vec![1, 2, 1]);
                assert_eq!(snap.count(), 4);
            }
            other => panic!("unexpected point {other:?}"),
        }
    }

    #[test]
    fn query_last_and_step_filter_and_group() {
        let store = SeriesStore::new(tiers_1_10(), 16);
        for tick in 0..30u64 {
            store.record_samples(tick, &[counter_sample("c", (tick + 1) * 2)]);
        }
        // LAST 5 at now=29 keeps ticks 25..=29.
        let slice = store.query("c", Some(5), None).expect("series exists");
        assert_eq!(slice.points.len(), 5);
        assert_eq!(slice.points[0].t(), 25);
        // STEP 10 groups fine buckets into aligned decades; the trailing
        // group (ticks 20..29, still open as a coarse bucket) is included.
        let slice = store.query("c", None, Some(10)).expect("series exists");
        assert_eq!(slice.step, 10);
        let deltas: Vec<u64> = slice
            .points
            .iter()
            .map(|p| match p {
                Point::Bucket(Bucket::Counter { delta, .. }) => *delta,
                other => panic!("unexpected point {other:?}"),
            })
            .collect();
        assert_eq!(deltas, vec![20, 20, 20]);
        // Grouped output is bit-identical to the finished coarse buckets.
        let coarse = store.tier_buckets("c", 1);
        assert_eq!(
            &coarse[..],
            &slice.points[..2]
                .iter()
                .map(|p| match p {
                    Point::Bucket(b) => b.clone(),
                    other => panic!("unexpected point {other:?}"),
                })
                .collect::<Vec<_>>()[..]
        );
        // A step that no tier divides is rejected.
        assert!(store.query("c", None, Some(0)).is_err());
        // Unknown series is an error.
        assert!(store.query("nope", None, None).is_err());
    }

    #[test]
    fn accuracy_ring_is_bounded_and_ordered() {
        let store = SeriesStore::new(tiers_1_10(), 3);
        for w in 0..5u64 {
            store.record_accuracy(
                7,
                AccuracyPoint {
                    window_start: w * 10,
                    ci_width: 0.5,
                    df_n: 12,
                    resamples: 3,
                    verdicts_true: 1,
                    verdicts_false: 0,
                    rows: 2,
                    late_rows: 0,
                },
            );
        }
        let name = accuracy_name(7);
        let slice = store.query(&name, None, None).expect("accuracy series");
        assert_eq!(slice.kind, "accuracy");
        let ts: Vec<u64> = slice.points.iter().map(Point::t).collect();
        assert_eq!(ts, vec![20, 30, 40], "cap 3 keeps the newest points");
        // LAST filters on event time.
        let slice = store.query(&name, Some(11), None).expect("accuracy series");
        let ts: Vec<u64> = slice.points.iter().map(Point::t).collect();
        assert_eq!(ts, vec![30, 40]);
    }

    #[test]
    fn export_json_is_one_object_per_series_line() {
        let store = SeriesStore::new(tiers_1_10(), 16);
        store.record_samples(1, &[counter_sample("ausdb_rows_total{stream=\"s\"}", 5)]);
        store.record_accuracy(
            1,
            AccuracyPoint {
                window_start: 10,
                ci_width: 0.25,
                df_n: 6,
                resamples: 2,
                verdicts_true: 0,
                verdicts_false: 0,
                rows: 1,
                late_rows: 0,
            },
        );
        let json = store.export_json();
        assert!(json.contains("\"version\": 1"), "{json}");
        assert!(json.contains("\"ticks\": 1"), "{json}");
        assert!(json.contains("{\"series\":\"ausdb_accuracy{query=\\\"1\\\"}\""), "{json}");
        assert!(json.contains("{\"series\":\"ausdb_rows_total{stream=\\\"s\\\"}\""), "{json}");
        assert!(json.contains("\"ci_width\":0.25"), "{json}");
    }

    #[test]
    fn quantiles_walk_cumulative_counts() {
        let bounds: Arc<[f64]> = Arc::from(vec![1.0, 2.0, 4.0].into_boxed_slice());
        let snap = HistogramSnapshot { bounds, counts: vec![5, 3, 1, 1], sum: 12.0 };
        assert_eq!(quantile(&snap, 0.5), 1.0);
        assert_eq!(quantile(&snap, 0.9), 4.0);
        assert_eq!(quantile(&snap, 0.99), f64::INFINITY);
        let empty = HistogramSnapshot::empty(Arc::from(vec![1.0].into_boxed_slice()));
        assert_eq!(quantile(&empty, 0.5), 0.0);
    }
}
