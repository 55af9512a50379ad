//! Labeled counter/gauge/histogram families and the Prometheus text
//! exposition format.
//!
//! A [`Registry`] holds metric *families* (one name + help + type) each
//! with any number of *series* (label sets). Handles ([`Counter`],
//! [`Gauge`], [`crate::Histogram`]) are `Arc`-shared: callers fetch them
//! once (a mutex + map lookup) and record through plain atomics on the
//! hot path.
//!
//! [`Registry::render`] emits the Prometheus text format: `# HELP` and
//! `# TYPE` per family, families sorted by name, series sorted by label
//! set, label values escaped (`\` → `\\`, `"` → `\"`, newline → `\n`),
//! histograms as cumulative `_bucket{le="…"}` plus `_sum`/`_count`. The
//! ordering is deterministic so expositions diff cleanly and golden
//! tests stay stable.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::hist::Histogram;

/// A monotonic counter. Not gated by [`crate::enabled`]: counters are
/// the cheap, always-correct layer that `STATS`-style reporting needs.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A settable instantaneous value (stored as `f64` bits).
#[derive(Debug)]
pub struct Gauge(AtomicU64);

impl Default for Gauge {
    fn default() -> Self {
        Self(AtomicU64::new(0f64.to_bits()))
    }
}

impl Gauge {
    /// A gauge at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the value.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Sorted, owned label pairs — the series key within a family.
type LabelSet = Vec<(String, String)>;

#[derive(Debug)]
enum Instrument {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

impl Instrument {
    fn kind(&self) -> &'static str {
        match self {
            Instrument::Counter(_) => "counter",
            Instrument::Gauge(_) => "gauge",
            Instrument::Histogram(_) => "histogram",
        }
    }
}

#[derive(Debug)]
struct Family {
    help: String,
    kind: &'static str,
    series: BTreeMap<LabelSet, Instrument>,
}

/// A collection of metric families. Cheap handles out, deterministic
/// Prometheus text exposition back.
#[derive(Debug, Default)]
pub struct Registry {
    families: Mutex<BTreeMap<String, Family>>,
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.chars().next().is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
        && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn label_set(labels: &[(&str, &str)]) -> LabelSet {
    let mut set: LabelSet = labels.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect();
    set.sort();
    set
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn get_or_insert(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Instrument,
    ) -> Instrument {
        assert!(valid_name(name), "bad metric name '{name}'");
        assert!(labels.iter().all(|(k, _)| valid_name(k)), "bad label name in {name}");
        let mut families = self.families.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let family = families.entry(name.to_string()).or_insert_with(|| Family {
            help: help.to_string(),
            kind: "",
            series: BTreeMap::new(),
        });
        let instrument = family.series.entry(label_set(labels)).or_insert_with(make);
        if family.kind.is_empty() {
            family.kind = instrument.kind();
        }
        assert_eq!(
            family.kind,
            instrument.kind(),
            "metric family '{name}' registered with two different types"
        );
        match instrument {
            Instrument::Counter(c) => Instrument::Counter(Arc::clone(c)),
            Instrument::Gauge(g) => Instrument::Gauge(Arc::clone(g)),
            Instrument::Histogram(h) => Instrument::Histogram(Arc::clone(h)),
        }
    }

    /// Gets or creates the counter series `name{labels}`.
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        match self.get_or_insert(name, help, labels, || Instrument::Counter(Arc::default())) {
            Instrument::Counter(c) => c,
            other => panic!("metric '{name}' already registered as a {}", other.kind()),
        }
    }

    /// Gets or creates the gauge series `name{labels}`.
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        match self.get_or_insert(name, help, labels, || Instrument::Gauge(Arc::default())) {
            Instrument::Gauge(g) => g,
            other => panic!("metric '{name}' already registered as a {}", other.kind()),
        }
    }

    /// Gets or creates the histogram series `name{labels}` over `bounds`
    /// (used only on first creation; an existing series keeps its own).
    pub fn histogram(
        &self,
        name: &str,
        help: &str,
        bounds: &[f64],
        labels: &[(&str, &str)],
    ) -> Arc<Histogram> {
        let make = || Instrument::Histogram(Arc::new(Histogram::new(bounds.to_vec())));
        match self.get_or_insert(name, help, labels, make) {
            Instrument::Histogram(h) => h,
            other => panic!("metric '{name}' already registered as a {}", other.kind()),
        }
    }

    /// Renders this registry alone; see [`render_merged`].
    pub fn render(&self) -> String {
        render_merged(&[self])
    }
}

/// Escapes a label value for the exposition format.
fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Escapes a HELP text (only `\` and newline are special there).
fn escape_help(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Formats `{k="v",…}` for a label set, with `extra` (e.g. `le`)
/// appended last; empty when there are no labels at all.
fn format_labels(labels: &LabelSet, extra: Option<(&str, &str)>) -> String {
    if labels.is_empty() && extra.is_none() {
        return String::new();
    }
    let mut out = String::from("{");
    let mut first = true;
    for (k, v) in labels.iter().map(|(k, v)| (k.as_str(), v.as_str())).chain(extra) {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "{k}=\"{}\"", escape_label(v));
    }
    out.push('}');
    out
}

/// Renders one histogram series from its (possibly merged) snapshot.
fn render_histogram(
    out: &mut String,
    name: &str,
    labels: &LabelSet,
    snap: &crate::hist::HistogramSnapshot,
) {
    let mut cumulative = 0u64;
    for (bound, count) in snap.bounds.iter().zip(&snap.counts) {
        cumulative += count;
        let le = format!("{bound}");
        let _ =
            writeln!(out, "{name}_bucket{} {cumulative}", format_labels(labels, Some(("le", &le))));
    }
    cumulative += snap.counts.last().copied().unwrap_or(0);
    let _ =
        writeln!(out, "{name}_bucket{} {cumulative}", format_labels(labels, Some(("le", "+Inf"))));
    let _ = writeln!(out, "{name}_sum{} {}", format_labels(labels, None), snap.sum);
    let _ = writeln!(out, "{name}_count{} {cumulative}", format_labels(labels, None));
}

/// Renders several registries as one Prometheus text exposition with
/// globally sorted family names.
///
/// Families and series may repeat across registries (e.g. one registry
/// per engine shard): duplicate **counter** and **gauge** series are
/// *summed*, duplicate **histogram** series are merged bucket-by-bucket
/// (via [`crate::hist::HistogramSnapshot::merge`]; series with mismatched
/// bounds fall back to the first registry's buckets). The first
/// registry's `HELP` text and type win for a shared family name, and a
/// series whose instrument kind disagrees with the family's is skipped.
pub fn render_merged(registries: &[&Registry]) -> String {
    struct MergedFamily<'a> {
        help: &'a str,
        kind: &'static str,
        series: BTreeMap<&'a LabelSet, Vec<&'a Instrument>>,
    }
    let mut out = String::new();
    let guards: Vec<_> = registries
        .iter()
        .map(|r| r.families.lock().unwrap_or_else(std::sync::PoisonError::into_inner))
        .collect();
    let mut families: BTreeMap<&str, MergedFamily<'_>> = BTreeMap::new();
    for guard in &guards {
        for (name, family) in guard.iter() {
            let merged = families.entry(name.as_str()).or_insert_with(|| MergedFamily {
                help: &family.help,
                kind: family.kind,
                series: BTreeMap::new(),
            });
            for (labels, instrument) in &family.series {
                merged.series.entry(labels).or_default().push(instrument);
            }
        }
    }
    for (name, family) in families {
        let _ = writeln!(out, "# HELP {name} {}", escape_help(family.help));
        let _ = writeln!(out, "# TYPE {name} {}", family.kind);
        for (labels, instruments) in &family.series {
            match family.kind {
                "counter" => {
                    let total: u64 = instruments
                        .iter()
                        .filter_map(|i| match i {
                            Instrument::Counter(c) => Some(c.get()),
                            _ => None,
                        })
                        .sum();
                    let _ = writeln!(out, "{name}{} {total}", format_labels(labels, None));
                }
                "gauge" => {
                    let total: f64 = instruments
                        .iter()
                        .filter_map(|i| match i {
                            Instrument::Gauge(g) => Some(g.get()),
                            _ => None,
                        })
                        .sum();
                    let _ = writeln!(out, "{name}{} {total}", format_labels(labels, None));
                }
                _ => {
                    let mut snaps = instruments.iter().filter_map(|i| match i {
                        Instrument::Histogram(h) => Some(h.snapshot()),
                        _ => None,
                    });
                    let Some(first) = snaps.next() else { continue };
                    let merged = snaps.fold(first, |acc, s| acc.merge(&s).unwrap_or(acc));
                    render_histogram(&mut out, name, labels, &merged);
                }
            }
        }
    }
    out
}

/// One scraped series value; see [`collect_merged`].
#[derive(Debug, Clone, PartialEq)]
pub enum SampleValue {
    /// Cumulative counter value.
    Counter(u64),
    /// Instantaneous gauge value.
    Gauge(f64),
    /// Cumulative histogram snapshot.
    Histogram(crate::hist::HistogramSnapshot),
}

/// One scraped series: the full name (labels rendered `{k="v",…}`) plus
/// its merged value. The programmatic twin of one exposition line group.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// `family{label="value",…}` — unique and stable across scrapes.
    pub name: String,
    /// The merged value.
    pub value: SampleValue,
}

/// Scrapes several registries into typed samples with the same merge
/// semantics as [`render_merged`] (duplicate counter/gauge series sum,
/// duplicate histogram series merge bucket-by-bucket) and the same
/// deterministic ordering (family name, then label set). This is the
/// feed for [`crate::series::SeriesStore`] retention.
pub fn collect_merged(registries: &[&Registry]) -> Vec<Sample> {
    let guards: Vec<_> = registries
        .iter()
        .map(|r| r.families.lock().unwrap_or_else(std::sync::PoisonError::into_inner))
        .collect();
    let mut families: BTreeMap<&str, (&'static str, BTreeMap<&LabelSet, Vec<&Instrument>>)> =
        BTreeMap::new();
    for guard in &guards {
        for (name, family) in guard.iter() {
            let merged =
                families.entry(name.as_str()).or_insert_with(|| (family.kind, BTreeMap::new()));
            for (labels, instrument) in &family.series {
                merged.1.entry(labels).or_default().push(instrument);
            }
        }
    }
    let mut out = Vec::new();
    for (name, (kind, series)) in families {
        for (labels, instruments) in series {
            let value = match kind {
                "counter" => SampleValue::Counter(
                    instruments
                        .iter()
                        .filter_map(|i| match i {
                            Instrument::Counter(c) => Some(c.get()),
                            _ => None,
                        })
                        .sum(),
                ),
                "gauge" => SampleValue::Gauge(
                    instruments
                        .iter()
                        .filter_map(|i| match i {
                            Instrument::Gauge(g) => Some(g.get()),
                            _ => None,
                        })
                        .sum(),
                ),
                _ => {
                    let mut snaps = instruments.iter().filter_map(|i| match i {
                        Instrument::Histogram(h) => Some(h.snapshot()),
                        _ => None,
                    });
                    let Some(first) = snaps.next() else { continue };
                    SampleValue::Histogram(snaps.fold(first, |acc, s| acc.merge(&s).unwrap_or(acc)))
                }
            };
            out.push(Sample { name: format!("{name}{}", format_labels(labels, None)), value });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_handles_are_shared() {
        let r = Registry::new();
        let a = r.counter("ausdb_test_total", "a test counter", &[("stream", "s1")]);
        let b = r.counter("ausdb_test_total", "a test counter", &[("stream", "s1")]);
        a.add(2);
        b.inc();
        assert_eq!(a.get(), 3, "same series, same handle");
        let g = r.gauge("ausdb_test_depth", "a test gauge", &[]);
        g.set(1.5);
        assert_eq!(r.gauge("ausdb_test_depth", "a test gauge", &[]).get(), 1.5);
    }

    #[test]
    #[should_panic(expected = "registered as a")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        let _ = r.counter("ausdb_x", "x", &[]);
        let _ = r.gauge("ausdb_x", "x", &[]);
    }

    #[test]
    fn label_order_is_canonical() {
        let r = Registry::new();
        let a = r.counter("ausdb_y_total", "y", &[("b", "2"), ("a", "1")]);
        let b = r.counter("ausdb_y_total", "y", &[("a", "1"), ("b", "2")]);
        a.inc();
        assert_eq!(b.get(), 1, "label order must not split the series");
        assert!(r.render().contains("ausdb_y_total{a=\"1\",b=\"2\"} 1"));
    }

    #[test]
    fn escaping_covers_backslash_quote_newline() {
        assert_eq!(escape_label(r#"a\b"c"#), r#"a\\b\"c"#);
        assert_eq!(escape_label("a\nb"), "a\\nb");
        assert_eq!(escape_help("h\\i\nj"), "h\\\\i\\nj");
    }

    #[test]
    fn render_is_sorted_and_typed() {
        let r = Registry::new();
        r.counter("ausdb_zz_total", "last", &[]).inc();
        r.gauge("ausdb_aa_depth", "first", &[]).set(2.0);
        let text = r.render();
        let aa = text.find("ausdb_aa_depth").unwrap();
        let zz = text.find("ausdb_zz_total").unwrap();
        assert!(aa < zz, "families sorted by name:\n{text}");
        assert!(text.contains("# TYPE ausdb_aa_depth gauge"));
        assert!(text.contains("# TYPE ausdb_zz_total counter"));
        assert!(text.contains("# HELP ausdb_aa_depth first"));
    }

    #[test]
    fn histogram_renders_cumulative_buckets() {
        let r = Registry::new();
        let h = r.histogram("ausdb_lat_seconds", "latency", &[0.1, 1.0], &[]);
        h.observe(0.05);
        h.observe(0.5);
        h.observe(0.5);
        h.observe(5.0);
        let text = r.render();
        assert!(text.contains("ausdb_lat_seconds_bucket{le=\"0.1\"} 1"), "{text}");
        assert!(text.contains("ausdb_lat_seconds_bucket{le=\"1\"} 3"), "{text}");
        assert!(text.contains("ausdb_lat_seconds_bucket{le=\"+Inf\"} 4"), "{text}");
        assert!(text.contains("ausdb_lat_seconds_count 4"), "{text}");
        let sum: f64 = text
            .lines()
            .find_map(|l| l.strip_prefix("ausdb_lat_seconds_sum "))
            .expect("sum line")
            .parse()
            .expect("sum parses");
        assert!((sum - 6.05).abs() < 1e-9, "{text}");
    }

    #[test]
    fn merged_render_sums_duplicate_series() {
        // One registry per "shard": the exposition must sum counter and
        // gauge series and merge histogram buckets across registries.
        let r1 = Registry::new();
        let r2 = Registry::new();
        r1.counter("ausdb_rows_total", "rows", &[("stream", "s")]).add(3);
        r2.counter("ausdb_rows_total", "rows", &[("stream", "s")]).add(4);
        r2.counter("ausdb_rows_total", "rows", &[("stream", "other")]).add(9);
        r1.gauge("ausdb_depth", "depth", &[]).set(1.5);
        r2.gauge("ausdb_depth", "depth", &[]).set(2.0);
        let h1 = r1.histogram("ausdb_lat_seconds", "latency", &[0.1, 1.0], &[]);
        let h2 = r2.histogram("ausdb_lat_seconds", "latency", &[0.1, 1.0], &[]);
        h1.observe(0.05);
        h2.observe(0.5);
        h2.observe(5.0);
        let text = render_merged(&[&r1, &r2]);
        assert!(text.contains("ausdb_rows_total{stream=\"s\"} 7"), "{text}");
        assert!(text.contains("ausdb_rows_total{stream=\"other\"} 9"), "{text}");
        assert!(text.contains("ausdb_depth 3.5"), "{text}");
        assert!(text.contains("ausdb_lat_seconds_bucket{le=\"0.1\"} 1"), "{text}");
        assert!(text.contains("ausdb_lat_seconds_bucket{le=\"1\"} 2"), "{text}");
        assert!(text.contains("ausdb_lat_seconds_count 3"), "{text}");
        // Exactly one exposition line (and one HELP/TYPE pair) per series.
        assert_eq!(text.matches("ausdb_rows_total{stream=\"s\"}").count(), 1, "{text}");
        assert_eq!(text.matches("# TYPE ausdb_rows_total").count(), 1, "{text}");
    }

    #[test]
    fn collect_merged_mirrors_render_semantics() {
        let r1 = Registry::new();
        let r2 = Registry::new();
        r1.counter("ausdb_rows_total", "rows", &[("stream", "s")]).add(3);
        r2.counter("ausdb_rows_total", "rows", &[("stream", "s")]).add(4);
        r1.gauge("ausdb_depth", "depth", &[]).set(1.5);
        r2.gauge("ausdb_depth", "depth", &[]).set(2.0);
        let h1 = r1.histogram("ausdb_lat_seconds", "latency", &[0.1, 1.0], &[]);
        h1.observe(0.05);
        h1.observe(0.5);
        let samples = collect_merged(&[&r1, &r2]);
        let names: Vec<&str> = samples.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            vec!["ausdb_depth", "ausdb_lat_seconds", "ausdb_rows_total{stream=\"s\"}"],
            "sorted by family then labels"
        );
        assert_eq!(samples[0].value, SampleValue::Gauge(3.5));
        match &samples[1].value {
            SampleValue::Histogram(snap) => assert_eq!(snap.count(), 2),
            other => panic!("unexpected value {other:?}"),
        }
        assert_eq!(samples[2].value, SampleValue::Counter(7));
    }

    #[test]
    fn merged_render_interleaves_sorted() {
        let r1 = Registry::new();
        let r2 = Registry::new();
        r1.counter("ausdb_m_total", "m", &[]).inc();
        r2.counter("ausdb_b_total", "b", &[]).inc();
        r2.counter("ausdb_z_total", "z", &[]).inc();
        let text = render_merged(&[&r1, &r2]);
        let b = text.find("ausdb_b_total").unwrap();
        let m = text.find("ausdb_m_total").unwrap();
        let z = text.find("ausdb_z_total").unwrap();
        assert!(b < m && m < z, "global sort across registries:\n{text}");
    }
}
