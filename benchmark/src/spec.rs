//! The benchmark's contract: workloads, metrics, units, directions and
//! bounds. `BENCHMARK.json` at the repository root is rendered from these
//! tables (`run.sh --write-manifest`) and every run checks that the file
//! still matches them, so a renamed or missing metric fails fast.

/// One named workload and the one-line reason it exists.
pub struct WorkloadSpec {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Why the workload was chosen.
    pub why: &'static str,
}

/// The four workloads, in run order.
pub const WORKLOADS: [WorkloadSpec; 4] = [
    WorkloadSpec {
        name: "flood_durable",
        why: "closed-loop 16384-row frames, WAL on, no readers: decode, WAL, route, buffer, close \
              and learn do all the work; sql, engine and render do none",
    },
    WorkloadSpec {
        name: "flood_standing",
        why: "same flood, no WAL, four standing queries live: per-close parse/plan, evaluation, \
              Theorem 1 accuracy, render and fan-out dominate; the WAL is bypassed",
    },
    WorkloadSpec {
        name: "paced_standing",
        why: "open loop at 400k rows/s, Zipf keys, 5% late rows, WAL and standing set: the whole \
              path at part load, where a subscriber sees latency, not throughput",
    },
    WorkloadSpec {
        name: "paced_query",
        why: "open loop at 200k rows/s beside a closed loop of six ad-hoc queries: reads share \
              the core lock with writes; only here Monte-Carlo and bootstrap do most of the work",
    },
];

/// Which way a metric improves.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The manifest's spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric a user of the system would see.
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd { name, unit, better, bound }
}

/// The end-to-end metrics; every workload reports every one.
///
/// The bounds of everything timed are the contract's maximum, 0.25: on the
/// shared 2-core sizing machine the same commit's runs differ by 3-15 %
/// (quartile distance over ten seeds) depending on the hour, and a bound
/// below the noise would reject the benchmark itself. The two interval
/// metrics are functions of the seed's rows and spread 4 % and 1.7 % over
/// seeds.
pub const END_TO_END: [EndToEnd; 11] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("ingest_rows_per_s", "rows/s", Better::Higher, 0.25),
    e2e("recovery_rows_per_s", "rows/s", Better::Higher, 0.25),
    e2e("notice_ms_p50", "ms", Better::Lower, 0.25),
    e2e("notice_ms_p90", "ms", Better::Lower, 0.25),
    e2e("query_analytic_ms_p50", "ms", Better::Lower, 0.25),
    e2e("query_bootstrap_ms_p50", "ms", Better::Lower, 0.25),
    e2e("query_mc_ms_p50", "ms", Better::Lower, 0.25),
    e2e("ci_miss_rate", "share", Better::Lower, 0.15),
    e2e("ci_rel_width_p50", "ratio", Better::Lower, 0.06),
    e2e("server_rss_mb", "MB", Better::Lower, 0.25),
];

/// A metric of one layer (crate or module); no bound.
pub struct PerLayer {
    /// `<layer>.<metric>`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

/// The per-layer metrics; the traced run reports every one.
pub const PER_LAYER: [PerLayer; 52] = [
    layer("client.gen_late_ms_max", "ms", Better::Lower),
    layer("client.ack_ms_p50", "ms", Better::Lower),
    layer("client.ack_ms_p99", "ms", Better::Lower),
    layer("client.notice_ms_p99", "ms", Better::Lower),
    layer("client.query_analytic_ms_p99", "ms", Better::Lower),
    layer("client.query_bootstrap_ms_p99", "ms", Better::Lower),
    layer("client.query_mc_ms_p99", "ms", Better::Lower),
    layer("client.encode_ns_per_row", "ns", Better::Lower),
    layer("client.failed_ops_share", "share", Better::Lower),
    layer("server.conn.ping_us_p50", "us", Better::Lower),
    layer("server.conn.tcp_vs_inproc_ratio", "ratio", Better::Higher),
    layer("server.protocol.parse_request_ns", "ns", Better::Lower),
    layer("model.codec.decode_ns_per_row", "ns", Better::Lower),
    layer("model.codec.encode_ns_per_row", "ns", Better::Lower),
    layer("model.codec.crc32_mb_per_s", "MB/s", Better::Higher),
    layer("model.codec.snapshot_encode_us", "us", Better::Lower),
    layer("model.codec.snapshot_decode_us", "us", Better::Lower),
    layer("model.codec.snapshot_bytes", "count", Better::Lower),
    layer("wal.append_ns_per_row", "ns", Better::Lower),
    layer("wal.bytes_per_row", "count", Better::Lower),
    layer("wal.fsyncs", "count", Better::Lower),
    layer("wal.flush_ms", "ms", Better::Lower),
    layer("wal.replay_rows_per_s", "rows/s", Better::Higher),
    layer("server.shard.ingest_ns_per_row", "ns", Better::Lower),
    layer("server.shard.close_us", "us", Better::Lower),
    layer("server.shard.rows_ingested", "count", Better::Higher),
    layer("server.shard.late_rows", "count", Better::Lower),
    layer("server.shard.windows_emitted", "count", Better::Higher),
    layer("server.shard.events", "count", Better::Higher),
    layer("learn.observe_ns_per_row", "ns", Better::Lower),
    layer("learn.emit_window_us", "us", Better::Lower),
    layer("sql.parse_us", "us", Better::Lower),
    layer("sql.plan_us", "us", Better::Lower),
    layer("engine.exec_us.star", "us", Better::Lower),
    layer("engine.exec_us.prob", "us", Better::Lower),
    layer("engine.exec_us.mtest", "us", Better::Lower),
    layer("engine.exec_us.linear", "us", Better::Lower),
    layer("engine.exec_us.boot", "us", Better::Lower),
    layer("engine.exec_us.mc", "us", Better::Lower),
    layer("engine.mc.draws_per_s", "1/s", Better::Higher),
    layer("engine.mc.draws", "count", Better::Lower),
    layer("engine.bootstrap.resamples_per_s", "1/s", Better::Higher),
    layer("engine.bootstrap.resamples", "count", Better::Lower),
    layer("stats.ci_mean_ns", "ns", Better::Lower),
    layer("server.render.ns_per_row", "ns", Better::Lower),
    layer("server.subscriber.push_drain_ns_per_line", "ns", Better::Lower),
    layer("server.subscriber.dropped", "count", Better::Lower),
    layer("obs.hist_observe_ns", "ns", Better::Lower),
    layer("obs.metrics_render_us", "us", Better::Lower),
    layer("budget.closure_ratio", "ratio", Better::Lower),
    layer("trace.overhead_pct", "%", Better::Lower),
    layer("trace.spans", "count", Better::Lower),
];

/// How long one contract run measures, as recorded in the manifest.
pub const RUN_SECONDS: u64 = 20;

/// Renders `BENCHMARK.json`.
pub fn manifest() -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    out.push_str(&format!("  \"workloads\": [\n{}\n  ],\n", workloads.join(",\n")));
    let e2e: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.bound
            )
        })
        .collect();
    out.push_str(&format!("  \"end_to_end\": [\n{}\n  ],\n", e2e.join(",\n")));
    let layers: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.as_str()
            )
        })
        .collect();
    out.push_str(&format!("  \"per_layer\": [\n{}\n  ]\n}}\n", layers.join(",\n")));
    out
}
