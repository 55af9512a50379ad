//! Golden-file test for the Prometheus text exposition: stable family
//! and series ordering, `# HELP`/`# TYPE` lines, cumulative histogram
//! buckets, and escaping of `"`, `\`, and newline in label values and
//! help texts. Observed values are binary-exact (0.125 + 0.5 + 2.0) so
//! the `_sum` line formats identically on every run.

use ausdb_obs::metrics::Registry;

#[test]
fn exposition_matches_golden_file() {
    let r = Registry::new();
    r.counter("ausdb_demo_events_total", "Events by kind", &[("kind", "plain")]).add(3);
    r.counter("ausdb_demo_events_total", "Events by kind", &[("kind", "qu\"ote\\back\nline")])
        .inc();
    let h = r.histogram("ausdb_demo_latency_seconds", "Query latency", &[0.25, 0.5, 1.0], &[]);
    h.observe(0.125);
    h.observe(0.5);
    h.observe(2.0);
    r.gauge("ausdb_demo_queue_depth", "Depth with \\ and\nnewline", &[]).set(2.5);
    let expected = include_str!("golden/exposition.txt");
    assert_eq!(r.render(), expected, "exposition drifted from the golden file");
}

#[test]
fn rendering_twice_is_stable() {
    let r = Registry::new();
    // Registration order is scrambled relative to name order on purpose.
    r.counter("ausdb_demo_z_total", "z", &[("b", "2"), ("a", "1")]).inc();
    r.gauge("ausdb_demo_a_depth", "a", &[]).set(1.0);
    r.counter("ausdb_demo_z_total", "z", &[("a", "1"), ("b", "1")]).inc();
    let first = r.render();
    assert_eq!(first, r.render(), "rendering must be deterministic");
    let a = first.find("ausdb_demo_a_depth").expect("gauge rendered");
    let z = first.find("ausdb_demo_z_total").expect("counter rendered");
    assert!(a < z, "families sorted by name:\n{first}");
    let b1 = first.find("{a=\"1\",b=\"1\"}").expect("series b=1 rendered");
    let b2 = first.find("{a=\"1\",b=\"2\"}").expect("series b=2 rendered");
    assert!(b1 < b2, "series sorted by label set:\n{first}");
}
