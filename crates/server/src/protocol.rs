//! The line-oriented text protocol.
//!
//! Every request is one line; every response is one or more lines. The
//! grammar (also documented in DESIGN.md §5):
//!
//! ```text
//! request   := INGEST <stream> <csv-row>
//!            | INGESTB <stream> <nbytes>       (followed by <nbytes> of frame)
//!            | QUERY <sql>
//!            | SUBSCRIBE <sql>
//!            | UNSUBSCRIBE <id>
//!            | STATS
//!            | METRICS
//!            | TRACE [<n>]
//!            | TRACEX
//!            | SNAPSHOT
//!            | RESTORE
//!            | WALSTAT
//!            | REPLICATE <from_seq>
//!            | PROMOTE
//!            | HEALTH
//!            | SLO SET <query-id> <max-ci-width>
//!            | SLO LIST
//!            | HISTORY [EXPORT | <series> [LAST <dur>] [STEP <dur>]]
//!            | HELP
//!            | SHUTDOWN
//!            | PING
//! csv-row   := <key> ',' <ts> ',' <value>      (ts: integer or H:MM[:SS])
//! ```
//!
//! Responses start with `OK` or `ERR`; `QUERY` answers with a `SCHEMA`
//! line, `ROW` lines, and a final `END <n>` — or, for `EXPLAIN` /
//! `EXPLAIN ANALYZE` statements, `PLAN` lines and `END <n>`. `TRACEX`
//! answers with the Chrome trace-event JSON of recently traced queries
//! (load it in `chrome://tracing` or Perfetto). Subscribers additionally
//! receive unsolicited `EVENT`/`ROW`/`DROPPED` lines when windows close.
//!
//! `INGESTB` is the one request that is not a single line: its line
//! announces `<nbytes>` of binary payload that follow immediately — an
//! `AUSB` frame (see [`ausdb_model::codec::encode_ingest_frame`]) holding
//! up to 2²⁰ `(key, ts, value)` rows, CRC-32 checked. The server answers
//! one `OK INGESTED <stream> rows=<n> late=<l> windows_emitted=<w>` per
//! frame, which is what turns the per-row request/reply round-trip of
//! line ingest into a single round-trip per batch.

/// A parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// `INGEST <stream> <key,ts,value>` — feed one raw observation.
    Ingest {
        /// Target stream name.
        stream: String,
        /// The raw CSV cells after the stream name.
        row: String,
    },
    /// `INGESTB <stream> <nbytes>` — announce a binary batch-ingest frame
    /// of `nbytes` bytes following this line on the wire.
    IngestBatch {
        /// Target stream name.
        stream: String,
        /// Size of the binary frame that follows, in bytes.
        nbytes: usize,
    },
    /// `QUERY <sql>` — one-shot query over current stream contents.
    Query(String),
    /// `SUBSCRIBE <sql>` — standing query re-evaluated per closed window.
    Subscribe(String),
    /// `UNSUBSCRIBE <id>` — cancel a subscription owned by this connection.
    Unsubscribe(u64),
    /// `STATS` — server counters plus the last query's operator stats.
    Stats,
    /// `METRICS` — Prometheus text exposition of all metric families.
    Metrics,
    /// `TRACE [<n>]` — the last `n` trace-journal entries (default 20).
    Trace(usize),
    /// `TRACEX` — Chrome trace-event JSON of recently traced queries.
    TraceExport,
    /// `HELP` — one usage line per protocol verb.
    Help,
    /// `SNAPSHOT` — persist engine state to the configured snapshot path.
    Snapshot,
    /// `RESTORE` — reload engine state from the configured snapshot path.
    Restore,
    /// `WALSTAT` — durability status: role, WAL segments/bytes/sequence
    /// numbers, fsync policy, replication lag.
    WalStat,
    /// `REPLICATE <from_seq>` — stream the snapshot (if needed) and WAL
    /// records after `from_seq` to a catching-up follower. The reply is
    /// partially binary; see `repl` module docs for the wire format.
    Replicate(u64),
    /// `PROMOTE` — turn a read-only follower into a writable primary.
    Promote,
    /// `HEALTH` — role, readiness, uptime, per-stream watermark age, WAL
    /// unsynced count, follower apply lag, subscriber backlog high-water.
    Health,
    /// `SLO SET <query-id> <max-ci-width>` — register an accuracy SLO on
    /// a standing query: every window-close evaluation whose widest CI
    /// exceeds the target counts a violation and pushes an `ACCURACY`
    /// notice on the subscriber channel.
    SloSet {
        /// The standing query (subscription) id the target applies to.
        id: u64,
        /// Maximum acceptable CI width.
        width: f64,
    },
    /// `SLO LIST` — one line per registered accuracy SLO.
    SloList,
    /// `HISTORY [<series> [LAST <dur>] [STEP <dur>]]` — the retention
    /// store: with no arguments, one `SERIES` line per retained series;
    /// with a series name, `POINT` lines from the finest tier that
    /// covers the request (durations like `90s`, `5m`, `2h`, or bare
    /// ticks). `STEP` regroups fine buckets by exact merge-rollup.
    History {
        /// Series name (`None` lists all retained series).
        series: Option<String>,
        /// `LAST <dur>` — only points newer than this many ticks.
        last: Option<u64>,
        /// `STEP <dur>` — regroup buckets to this step (ticks).
        step: Option<u64>,
    },
    /// `HISTORY EXPORT` — one consolidated JSON document of every
    /// retained series (same shape as `GET /history`).
    HistoryExport,
    /// `SHUTDOWN` — gracefully stop the server.
    Shutdown,
    /// `PING` — liveness check.
    Ping,
}

/// Parses one request line. Keywords are case-insensitive; payloads are
/// passed through verbatim.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let line = line.trim();
    let (verb, rest) = match line.split_once(char::is_whitespace) {
        Some((v, r)) => (v, r.trim()),
        None => (line, ""),
    };
    let need = |what: &str| -> Result<(), String> {
        if rest.is_empty() {
            Err(format!("{what} expects an argument"))
        } else {
            Ok(())
        }
    };
    let bare = |req: Request| -> Result<Request, String> {
        if rest.is_empty() {
            Ok(req)
        } else {
            Err(format!("{verb} takes no arguments"))
        }
    };
    match verb.to_ascii_uppercase().as_str() {
        "INGEST" => {
            need("INGEST")?;
            let (stream, row) = rest
                .split_once(char::is_whitespace)
                .ok_or_else(|| "INGEST expects <stream> <key,ts,value>".to_string())?;
            Ok(Request::Ingest { stream: stream.to_string(), row: row.trim().to_string() })
        }
        "INGESTB" => {
            need("INGESTB")?;
            let (stream, nbytes) = rest
                .split_once(char::is_whitespace)
                .ok_or_else(|| "INGESTB expects <stream> <nbytes>".to_string())?;
            let nbytes = nbytes
                .trim()
                .parse::<usize>()
                .map_err(|_| format!("bad frame size '{}'", nbytes.trim()))?;
            Ok(Request::IngestBatch { stream: stream.to_string(), nbytes })
        }
        "QUERY" => {
            need("QUERY")?;
            Ok(Request::Query(rest.to_string()))
        }
        "SUBSCRIBE" => {
            need("SUBSCRIBE")?;
            Ok(Request::Subscribe(rest.to_string()))
        }
        "UNSUBSCRIBE" => {
            need("UNSUBSCRIBE")?;
            rest.parse::<u64>()
                .map(Request::Unsubscribe)
                .map_err(|_| format!("bad subscription id '{rest}'"))
        }
        "STATS" => bare(Request::Stats),
        "METRICS" => bare(Request::Metrics),
        "TRACE" => {
            if rest.is_empty() {
                Ok(Request::Trace(20))
            } else {
                rest.parse::<usize>()
                    .map(Request::Trace)
                    .map_err(|_| format!("bad trace entry count '{rest}'"))
            }
        }
        "TRACEX" => bare(Request::TraceExport),
        "SNAPSHOT" => bare(Request::Snapshot),
        "RESTORE" => bare(Request::Restore),
        "WALSTAT" => bare(Request::WalStat),
        "REPLICATE" => {
            need("REPLICATE")?;
            rest.parse::<u64>()
                .map(Request::Replicate)
                .map_err(|_| format!("bad replication start sequence '{rest}'"))
        }
        "PROMOTE" => bare(Request::Promote),
        "HEALTH" => bare(Request::Health),
        "SLO" => {
            need("SLO")?;
            let (sub, args) = match rest.split_once(char::is_whitespace) {
                Some((s, a)) => (s, a.trim()),
                None => (rest, ""),
            };
            match sub.to_ascii_uppercase().as_str() {
                "SET" => {
                    let (id, width) = args
                        .split_once(char::is_whitespace)
                        .ok_or_else(|| "SLO SET expects <query-id> <max-ci-width>".to_string())?;
                    let id = id
                        .trim()
                        .parse::<u64>()
                        .map_err(|_| format!("bad query id '{}'", id.trim()))?;
                    let width = width
                        .trim()
                        .parse::<f64>()
                        .map_err(|_| format!("bad CI width '{}'", width.trim()))?;
                    Ok(Request::SloSet { id, width })
                }
                "LIST" => {
                    if args.is_empty() {
                        Ok(Request::SloList)
                    } else {
                        Err("SLO LIST takes no arguments".to_string())
                    }
                }
                other => Err(format!("unknown SLO subcommand '{other}' (try SET or LIST)")),
            }
        }
        "HISTORY" => {
            if rest.is_empty() {
                return Ok(Request::History { series: None, last: None, step: None });
            }
            let mut parts = rest.split_whitespace();
            let series = parts.next().expect("rest is non-empty").to_string();
            if series.eq_ignore_ascii_case("EXPORT") {
                return if parts.next().is_none() {
                    Ok(Request::HistoryExport)
                } else {
                    Err("HISTORY EXPORT takes no arguments".to_string())
                };
            }
            let mut last = None;
            let mut step = None;
            while let Some(kw) = parts.next() {
                let slot = match kw.to_ascii_uppercase().as_str() {
                    "LAST" => &mut last,
                    "STEP" => &mut step,
                    other => {
                        return Err(format!("unknown HISTORY clause '{other}' (try LAST or STEP)"))
                    }
                };
                if slot.is_some() {
                    return Err(format!("duplicate HISTORY clause '{}'", kw.to_ascii_uppercase()));
                }
                let dur = parts.next().ok_or_else(|| format!("{kw} expects a duration"))?;
                *slot = Some(
                    ausdb_obs::series::parse_ticks(dur)
                        .ok_or_else(|| format!("bad duration '{dur}' (try 90s, 5m, 2h)"))?,
                );
            }
            Ok(Request::History { series: Some(series), last, step })
        }
        "HELP" => bare(Request::Help),
        "SHUTDOWN" => bare(Request::Shutdown),
        "PING" => bare(Request::Ping),
        "" => Err("empty request".to_string()),
        other => {
            let names: Vec<&str> = VERBS.iter().map(|(name, _)| *name).collect();
            Err(format!("unknown command '{other}' (try HELP, or: {})", names.join(", ")))
        }
    }
}

/// Every verb [`parse_request`] accepts, with its usage line: the one list
/// behind `HELP` and the unknown-command hint.
const VERBS: &[(&str, &str)] = &[
    (
        "INGEST",
        "INGEST <stream> <key,ts,value> — feed one raw observation (ts: integer or H:MM[:SS])",
    ),
    (
        "INGESTB",
        "INGESTB <stream> <nbytes> — binary batch ingest: an AUSB frame of nbytes follows; \
         one OK per frame",
    ),
    (
        "QUERY",
        "QUERY <sql> — one-shot query (SCHEMA/ROW/END); EXPLAIN [ANALYZE] <sql> returns PLAN lines",
    ),
    (
        "SUBSCRIBE",
        "SUBSCRIBE <sql> — standing query re-evaluated per closed window (EVENT/ROW lines)",
    ),
    ("UNSUBSCRIBE", "UNSUBSCRIBE <id> — cancel a subscription owned by this connection"),
    ("STATS", "STATS — server counters plus the last query's operator stats"),
    ("METRICS", "METRICS — Prometheus text exposition of all metric families"),
    ("TRACE", "TRACE [<n>] — the last n trace-journal entries (default 20)"),
    ("TRACEX", "TRACEX — Chrome trace-event JSON of recently traced queries (chrome://tracing)"),
    ("SNAPSHOT", "SNAPSHOT — persist engine state to the configured snapshot path"),
    ("RESTORE", "RESTORE — reload engine state from the configured snapshot path"),
    (
        "WALSTAT",
        "WALSTAT — durability status: role, WAL segments/bytes/unsynced/seqs, fsync policy, lag",
    ),
    (
        "REPLICATE",
        "REPLICATE <from_seq> — stream snapshot + WAL records after from_seq (follower catch-up)",
    ),
    ("PROMOTE", "PROMOTE — turn a read-only follower into a writable primary"),
    (
        "HEALTH",
        "HEALTH — role, readiness, uptime, per-stream watermark age, WAL/replication lag, backlog",
    ),
    (
        "SLO",
        "SLO SET <query-id> <max-ci-width> | SLO LIST — accuracy-SLO watchdog on standing queries",
    ),
    (
        "HISTORY",
        "HISTORY [EXPORT | <series> [LAST <dur>] [STEP <dur>]] — retained metric/accuracy history \
         (SERIES or POINT lines; EXPORT dumps consolidated JSON)",
    ),
    ("HELP", "HELP — this listing"),
    ("PING", "PING — liveness check"),
    ("SHUTDOWN", "SHUTDOWN — gracefully stop the server"),
];

/// One usage line per protocol verb, served by `HELP`.
pub fn help_lines() -> impl Iterator<Item = &'static str> {
    VERBS.iter().map(|(_, usage)| *usage)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_verb() {
        assert_eq!(
            parse_request("INGEST traffic 19,530,56"),
            Ok(Request::Ingest { stream: "traffic".into(), row: "19,530,56".into() })
        );
        assert_eq!(
            parse_request("INGESTB traffic 1024"),
            Ok(Request::IngestBatch { stream: "traffic".into(), nbytes: 1024 })
        );
        assert_eq!(
            parse_request("query SELECT * FROM traffic"),
            Ok(Request::Query("SELECT * FROM traffic".into()))
        );
        assert_eq!(
            parse_request("SUBSCRIBE SELECT * FROM traffic"),
            Ok(Request::Subscribe("SELECT * FROM traffic".into()))
        );
        assert_eq!(parse_request("UNSUBSCRIBE 3"), Ok(Request::Unsubscribe(3)));
        assert_eq!(parse_request("stats"), Ok(Request::Stats));
        assert_eq!(parse_request("METRICS"), Ok(Request::Metrics));
        assert_eq!(parse_request("TRACE"), Ok(Request::Trace(20)));
        assert_eq!(parse_request("trace 5"), Ok(Request::Trace(5)));
        assert_eq!(parse_request("tracex"), Ok(Request::TraceExport));
        assert_eq!(parse_request("SNAPSHOT"), Ok(Request::Snapshot));
        assert_eq!(parse_request("RESTORE"), Ok(Request::Restore));
        assert_eq!(parse_request("WALSTAT"), Ok(Request::WalStat));
        assert_eq!(parse_request("walstat"), Ok(Request::WalStat));
        assert_eq!(parse_request("REPLICATE 0"), Ok(Request::Replicate(0)));
        assert_eq!(parse_request("replicate 1234"), Ok(Request::Replicate(1234)));
        assert_eq!(parse_request("PROMOTE"), Ok(Request::Promote));
        assert_eq!(parse_request("HEALTH"), Ok(Request::Health));
        assert_eq!(parse_request("health"), Ok(Request::Health));
        assert_eq!(parse_request("SLO SET 3 0.05"), Ok(Request::SloSet { id: 3, width: 0.05 }));
        assert_eq!(parse_request("slo set 12 1e-3"), Ok(Request::SloSet { id: 12, width: 1e-3 }));
        assert_eq!(parse_request("SLO LIST"), Ok(Request::SloList));
        assert_eq!(parse_request("slo list"), Ok(Request::SloList));
        assert_eq!(
            parse_request("HISTORY"),
            Ok(Request::History { series: None, last: None, step: None })
        );
        assert_eq!(
            parse_request("history ausdb_rows_ingested_total"),
            Ok(Request::History {
                series: Some("ausdb_rows_ingested_total".into()),
                last: None,
                step: None
            })
        );
        assert_eq!(
            parse_request("HISTORY s LAST 90s STEP 10s"),
            Ok(Request::History { series: Some("s".into()), last: Some(90), step: Some(10) })
        );
        assert_eq!(
            parse_request("HISTORY s step 5m"),
            Ok(Request::History { series: Some("s".into()), last: None, step: Some(300) })
        );
        assert_eq!(parse_request("HISTORY EXPORT"), Ok(Request::HistoryExport));
        assert_eq!(parse_request("history export"), Ok(Request::HistoryExport));
        assert_eq!(parse_request("help"), Ok(Request::Help));
        assert_eq!(parse_request("shutdown"), Ok(Request::Shutdown));
        assert_eq!(parse_request("PING"), Ok(Request::Ping));
    }

    #[test]
    fn help_covers_every_verb() {
        // HELP and the unknown-command hint are the table; the parser must
        // know every name in it, and each usage line must lead with its verb.
        assert_eq!(VERBS.len(), 20);
        for (verb, usage) in VERBS {
            assert_eq!(usage.split(' ').next(), Some(*verb), "usage line of {verb}");
            if let Err(e) = parse_request(verb) {
                assert!(!e.starts_with("unknown command"), "{verb} is not parsed: {e}");
            }
        }
        let hint = parse_request("FROBNICATE").unwrap_err();
        assert!(hint.starts_with("unknown command 'FROBNICATE' (try HELP, or: INGEST, INGESTB, "));
        assert!(hint.ends_with(", HELP, PING, SHUTDOWN)"), "{hint}");
    }

    #[test]
    fn rejects_malformed_requests() {
        assert!(parse_request("").is_err());
        assert!(parse_request("FROBNICATE").is_err());
        assert!(parse_request("INGEST").is_err());
        assert!(parse_request("INGEST onlystream").is_err());
        assert!(parse_request("INGESTB").is_err());
        assert!(parse_request("INGESTB onlystream").is_err());
        assert!(parse_request("INGESTB s notanumber").is_err());
        assert!(parse_request("INGESTB s -4").is_err());
        assert!(parse_request("QUERY").is_err());
        assert!(parse_request("UNSUBSCRIBE x").is_err());
        assert!(parse_request("STATS now").is_err());
        assert!(parse_request("METRICS all").is_err());
        assert!(parse_request("TRACE many").is_err());
        assert!(parse_request("TRACE -1").is_err());
        assert!(parse_request("TRACEX all").is_err());
        assert!(parse_request("WALSTAT verbose").is_err());
        assert!(parse_request("REPLICATE").is_err());
        assert!(parse_request("REPLICATE notanumber").is_err());
        assert!(parse_request("REPLICATE -1").is_err());
        assert!(parse_request("PROMOTE now").is_err());
        assert!(parse_request("HEALTH now").is_err());
        assert!(parse_request("SLO").is_err());
        assert!(parse_request("SLO SET").is_err());
        assert!(parse_request("SLO SET 1").is_err());
        assert!(parse_request("SLO SET x 0.1").is_err());
        assert!(parse_request("SLO SET 1 notanumber").is_err());
        assert!(parse_request("SLO LIST extra").is_err());
        assert!(parse_request("SLO FROB").is_err());
        assert!(parse_request("HISTORY EXPORT extra").is_err());
        assert!(parse_request("HISTORY s LAST").is_err());
        assert!(parse_request("HISTORY s LAST soon").is_err());
        assert!(parse_request("HISTORY s STEP 0").is_err());
        assert!(parse_request("HISTORY s LAST 10s LAST 20s").is_err());
        assert!(parse_request("HISTORY s FROB 10s").is_err());
        assert!(parse_request("HELP me").is_err());
        assert!(parse_request("PING pong").is_err());
    }

    #[test]
    fn whitespace_and_case_tolerant() {
        assert_eq!(
            parse_request("  iNgEsT   s   1,2,3  "),
            Ok(Request::Ingest { stream: "s".into(), row: "1,2,3".into() })
        );
    }
}
