//! Std-only telemetry core shared by every ausdb crate.
//!
//! The build environment has no registry access, so this is a hand-rolled
//! stand-in for the usual metrics stack, scoped to exactly what the
//! system needs:
//!
//! * [`hist`] — log-linear (HDR-style) fixed-bucket [`hist::Histogram`]s
//!   with lock-free atomic recording and mergeable snapshots.
//! * [`metrics`] — labeled counter/gauge/histogram families in a
//!   [`metrics::Registry`] that renders the Prometheus text exposition
//!   format (`# HELP`/`# TYPE`, label escaping, stable ordering).
//! * [`journal`] — a bounded ring-buffer trace [`journal::Journal`] with
//!   severity filtering (`AUSDB_LOG`), drainable over the wire.
//! * [`knobs`] — centralized environment-knob parsing that warns **once**
//!   per knob on invalid values instead of silently ignoring them.
//! * [`span`] — hierarchical per-query [`span::Tracer`] spans with typed
//!   accuracy attributes, a bounded finished-trace ring, and a Chrome
//!   trace-event JSON exporter.
//! * [`health`] — liveness/readiness probe aggregation behind the
//!   server's `/healthz` + `/readyz` endpoints.
//! * [`series`] — the bounded multi-resolution retention store
//!   ([`series::SeriesStore`]) keeping counter-delta / gauge / histogram
//!   history plus per-query accuracy trajectories, with coarse tiers
//!   built by exact merge-rollup of fine buckets.
//!
//! ## One mode, and determinism
//!
//! Telemetry is observational by construction: recording never touches an
//! RNG, a seed, or any value that flows into a query result. It is also
//! unconditional — there is no switch, so there is one configuration to
//! test and to benchmark. Every ring is sized by a constant
//! ([`TRACE_CAP`], [`series::default_tiers`], [`series::DEFAULT_EVENTS_CAP`]);
//! only the journal's severity cutoff (`AUSDB_LOG`) filters what is kept.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod health;
pub mod hist;
pub mod journal;
pub mod knobs;
pub mod metrics;
pub mod series;
pub mod span;

pub use health::{HealthRegistry, HealthReport, ProbeKind, ProbeResult};
pub use hist::{Histogram, HistogramSnapshot};
pub use journal::{Journal, Level};
pub use metrics::{Counter, Gauge, Registry, Sample, SampleValue};
pub use series::{AccuracyPoint, Point, SeriesSlice, SeriesStore, TierSpec};
pub use span::{AttrValue, Span, SpanId, Trace, Tracer};

/// Capacity, in entries, of the bounded telemetry rings: the trace
/// journal and the finished-trace ring.
pub const TRACE_CAP: usize = 512;
