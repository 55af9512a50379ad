//! `ausdb-serve` — the continuous-query server the paper's premise implies.
//!
//! "Accuracy-Aware Uncertain Stream Databases" (Ge & Liu, ICDE 2012)
//! describes a *stream database*: raw observations arrive continuously,
//! per-key distributions are learned per time window **with accuracy
//! information**, and queries run against the resulting probabilistic
//! relations. The rest of this repository implements the learning and
//! query layers as one-shot pipelines; this crate turns them into a
//! long-running service:
//!
//! * [`protocol`] — the line-oriented text protocol (`INGEST`, `INGESTB`,
//!   `QUERY`, `SUBSCRIBE`, `STATS`, `METRICS`, `TRACE`, `TRACEX`,
//!   `SNAPSHOT`, `RESTORE`, `WALSTAT`, `REPLICATE`, `PROMOTE`, `HEALTH`,
//!   `SLO`, `HISTORY`, `HELP`, `SHUTDOWN`, `PING`). `INGESTB` is the binary batch-ingest frame: a
//!   length-prefixed `AUSB` envelope carrying up to 2²⁰ `(key, ts, value)`
//!   rows, CRC-checked, answered by one `OK` line per frame instead of
//!   one per row.
//! * [`shard`] — the engine, [`shard::ShardSet`]: `--shards N` learner
//!   buffers (per stream, one [`ausdb_learn`] learner per shard holding the
//!   keys that hash there), one window cursor per stream, and one
//!   window-close path for every `N` — queries, stats, subscriber blocks
//!   and snapshots are **bit-identical** at any shard count.
//! * [`state`] — what the engine is made of and speaks: the configuration,
//!   outcome and reply types, the snapshot model, and the query core (the
//!   [`ausdb_engine`] session holding each stream's last closed window,
//!   the subscription registry, SLO targets, accuracy history).
//! * [`http`] — the std-only GET router behind the HTTP listener:
//!   request-line parsing with percent-decoded query parameters, exact
//!   path dispatch, and shared `404`/`405` behaviour for every endpoint.
//! * [`client`] — a small blocking client helper that speaks the binary
//!   batch protocol with single-syscall frame writes.
//! * [`subscriber`] — bounded per-subscriber queues: slow consumers get
//!   `DROPPED <n>` notices, never unbounded memory.
//! * [`render`] — injective text rendering of result rows, so bit-identical
//!   results render to byte-identical protocol lines; its numbers come from
//!   the crate-private `numtext` kernel (shortest round-trip decimals,
//!   DESIGN.md §5), not from `core::fmt`.
//! * [`snapshot`] — fsync-safe atomic snapshot files over the hand-rolled
//!   versioned binary codec in [`ausdb_model::codec`].
//! * [`repl`] — the pull-based replication wire format: a follower started
//!   with [`server::ServerConfig::replicate_from`] polls
//!   `REPLICATE <from_seq>`, bootstraps from a snapshot when it is behind
//!   the primary's truncation horizon, and applies raw [`ausdb_wal`]
//!   records so its log mirrors the primary's sequence numbers; `PROMOTE`
//!   turns it into a writable primary. With
//!   [`server::ServerConfig::wal_dir`] set, every accepted ingest batch is
//!   logged **before** apply and startup replays records past the
//!   snapshot's watermark — `kill -9` recovery is byte-identical
//!   (DESIGN.md §9).
//! * [`server`] — the std-only, thread-per-connection TCP transport with
//!   graceful (join-everything) shutdown.
//! * [`signal`] — a minimal Ctrl-C hook for the `ausdb serve` binary.
//!
//! Telemetry rides along on every path: each [`shard::ShardSet`] owns
//! an [`ausdb_obs`] metric registry (latency histograms, per-stream
//! labeled counters, subscriber queue depth) that `METRICS` renders as a
//! Prometheus text exposition — merged with the engine-wide accuracy
//! registry — and `TRACE <n>` drains the bounded trace journal
//! (`AUSDB_LOG` sets its severity cutoff). The same exposition is
//! additionally scrape-able over plain HTTP (`GET /metrics`) when
//! [`server::ServerConfig::http_addr`] is set — which also serves
//! liveness/readiness probes at `GET /healthz` / `GET /readyz` (a
//! bootstrapping follower answers `503` until its first applied
//! replication reply) — and `TRACEX` exports the span trees of recently
//! traced queries as Chrome trace-event JSON. `HEALTH` reports the same
//! probe state plus per-stream watermarks over the line protocol, and
//! `SLO SET <query-id> <max-ci-width>` arms an accuracy-SLO watchdog on
//! a subscription: every window close whose widest confidence interval
//! exceeds the target pushes an `ACCURACY` notice to the subscriber and
//! bumps `ausdb_accuracy_slo_violations_total` (DESIGN.md §10).
//! `QUERY` accepts `EXPLAIN` / `EXPLAIN ANALYZE` statements, answering
//! with `PLAN` lines instead of rows.
//!
//! The server also *retains* its telemetry: a background sampler scrapes
//! the merged registries into a bounded multi-resolution
//! [`ausdb_obs::SeriesStore`] (1s/10s/1m tiers), and every window close
//! appends an accuracy point per standing query — widest CI, de-facto `n`, resample
//! spend, coupled-test verdicts, late rows. `HISTORY <series>` queries
//! the trajectory over the line protocol, `GET /history` serves it as
//! JSON, and `HISTORY EXPORT` / `ausdb serve --history-export` dump the
//! whole store (DESIGN.md §11). Retention is strictly observational:
//! scraping it never changes a query or subscription byte.
//!
//! Determinism carries through: a server-side `QUERY` runs the exact same
//! `run_sql` path as the CLI, so with the same seed it returns
//! bit-identical results — the loopback integration test proves it.
//!
//! ```no_run
//! use ausdb_serve::server::{Server, ServerConfig};
//!
//! let handle = Server::start(ServerConfig::default()).unwrap();
//! println!("listening on {}", handle.addr());
//! handle.stop(); // graceful: drains subscribers, joins threads
//! ```

#![warn(missing_docs)]
// Overridden only in `signal::imp`, for `signal(2)`, and in `numtext`, for
// the unchecked append of the ASCII it has just written.
#![deny(unsafe_code)]

pub mod client;
pub mod http;
mod numtext;
pub mod protocol;
pub mod render;
pub mod repl;
pub mod server;
pub mod shard;
pub mod signal;
pub mod snapshot;
pub mod state;
pub mod subscriber;

pub use client::BatchClient;
pub use protocol::{help_lines, parse_request, Request};
pub use render::{render_row, render_rows, render_schema};
pub use server::{Server, ServerConfig, ServerHandle};
pub use shard::{shard_of, ShardSet};
pub use state::{BatchOutcome, EngineConfig, QueryReply, ServerSnapshot};
pub use subscriber::SubscriberQueue;
