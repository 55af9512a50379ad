//! `ausdb` — the interactive shell and server launcher.
//!
//! Two subcommands:
//!
//! ```text
//! $ cargo run --bin ausdb                       # shell, empty session
//! $ cargo run --bin ausdb -- --demo             # shell with a simulated network
//! $ cargo run --bin ausdb -- serve --addr 127.0.0.1:7878 \
//!       --snapshot-path state.snap              # continuous-query server
//! ausdb> \load traffic.csv roads Segment_ID Time Delay
//! ausdb> SELECT road_id FROM roads HAVING PTEST(delay > 50, 0.66, 0.05);
//! ausdb> EXPLAIN SELECT * FROM roads WHERE delay > 50 PROB 0.66;
//! ausdb> \streams
//! ausdb> \quit
//! ```
//!
//! In the shell, meta-commands start with `\`; anything else is parsed as
//! extended SQL. `EXPLAIN <query>` prints the physical plan instead of
//! running it, and `EXPLAIN ANALYZE <query>` runs the query and annotates
//! each operator with timing, row counts, and accuracy attributes.
//! `serve` starts `ausdb-serve` (see `DESIGN.md` §5 for the wire
//! protocol) and runs until `SHUTDOWN` or Ctrl-C; `--http-addr` exposes
//! `GET /metrics` (plus `/healthz`, `/readyz`, and `/history`) over
//! plain HTTP, `--trace-json FILE` writes the recently traced query
//! spans as Chrome trace-event JSON on shutdown (load it in
//! `chrome://tracing` or Perfetto), and `--history-export FILE` writes
//! the retained metric/accuracy trajectory (the `HISTORY EXPORT` dump)
//! on shutdown.

use std::io::{BufRead, Write};

use ausdb::datagen::cartel::CartelSim;
use ausdb::prelude::*;
use ausdb::serve::server::{Server, ServerConfig};
use ausdb::serve::signal::{install_sigint_handler, interrupted};
use ausdb::serve::state::EngineConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("serve") => run_serve(&args[1..]),
        Some("ingest") => run_ingest(&args[1..]),
        Some("shell") => run_shell(&args[1..]),
        None => run_shell(&[]),
        // Back-compat: bare flags (e.g. `ausdb --demo`) mean the shell.
        Some(flag) if flag.starts_with("--") => run_shell(&args),
        Some(other) => {
            eprintln!("error: unknown subcommand '{other}'\n");
            print_usage();
            std::process::exit(2);
        }
    }
}

fn print_usage() {
    eprintln!("usage: ausdb [shell] [--demo]");
    eprintln!("       ausdb serve [--addr HOST:PORT] [--snapshot-path FILE] [--wal-dir DIR]");
    eprintln!("                   [--replicate-from HOST:PORT] [--max-subscribers N]");
    eprintln!("                   [--queue-cap N] [--window SECONDS] [--shards N] [--metrics]");
    eprintln!("                   [--http-addr HOST:PORT] [--trace-json FILE]");
    eprintln!("                   [--history-export FILE]");
    eprintln!("       ausdb ingest [--addr HOST:PORT] [--stream NAME] [--batch N]");
    eprintln!();
    eprintln!("  shell   interactive SQL shell (default); --demo preloads a simulated network");
    eprintln!("  serve   continuous-query TCP server (INGEST/INGESTB/QUERY/SUBSCRIBE/STATS/");
    eprintln!("          METRICS/TRACE/TRACEX/SNAPSHOT/RESTORE/HEALTH/SLO/HELP/SHUTDOWN;");
    eprintln!("          DESIGN.md §5);");
    eprintln!("          --shards N splits ingest across N key-sharded engine states;");
    eprintln!("          --wal-dir logs every accepted batch before apply and replays it");
    eprintln!("          after a crash (AUSDB_FSYNC=always|batch|never sets the sync policy);");
    eprintln!("          --replicate-from starts a read-only follower of that primary");
    eprintln!("          (requires --wal-dir and --snapshot-path; PROMOTE makes it writable);");
    eprintln!("          --metrics dumps the final Prometheus exposition on shutdown;");
    eprintln!("          --http-addr serves the same exposition at GET /metrics plus");
    eprintln!("          liveness/readiness probes at GET /healthz and GET /readyz;");
    eprintln!("          --trace-json writes queued query spans as Chrome trace JSON on exit;");
    eprintln!("          --history-export writes the retained metric/accuracy trajectory");
    eprintln!("          (HISTORY EXPORT JSON) on exit;");
    eprintln!("          AUSDB_LOG_JSON=stderr|FILE mirrors the journal as JSON lines");
    eprintln!("  ingest  read key,ts,value lines from stdin and push them to a server as");
    eprintln!("          binary INGESTB frames of --batch rows (default 4096)");
}

fn run_serve(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let mut config = ServerConfig { addr: "127.0.0.1:7878".to_string(), ..Default::default() };
    let mut engine = EngineConfig::default();
    let mut dump_metrics = false;
    let mut trace_json: Option<std::path::PathBuf> = None;
    let mut history_export: Option<std::path::PathBuf> = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{what} expects a value"))
        };
        match flag.as_str() {
            "--addr" => config.addr = value("--addr")?.clone(),
            "--snapshot-path" => {
                config.snapshot_path = Some(std::path::PathBuf::from(value("--snapshot-path")?))
            }
            "--wal-dir" => config.wal_dir = Some(std::path::PathBuf::from(value("--wal-dir")?)),
            "--replicate-from" => config.replicate_from = Some(value("--replicate-from")?.clone()),
            "--max-subscribers" => {
                engine.max_subscribers = value("--max-subscribers")?
                    .parse()
                    .map_err(|_| "bad --max-subscribers value")?
            }
            "--queue-cap" => {
                engine.queue_cap =
                    value("--queue-cap")?.parse().map_err(|_| "bad --queue-cap value")?
            }
            "--window" => {
                let width: u64 = value("--window")?.parse().map_err(|_| "bad --window value")?;
                if width == 0 {
                    return Err("--window must be positive".into());
                }
                engine.learner.window_width = width;
            }
            "--shards" => {
                let shards: usize = value("--shards")?.parse().map_err(|_| "bad --shards value")?;
                if shards == 0 {
                    return Err("--shards must be positive".into());
                }
                engine.shards = shards;
            }
            "--metrics" => dump_metrics = true,
            "--http-addr" => config.http_addr = Some(value("--http-addr")?.clone()),
            "--trace-json" => trace_json = Some(std::path::PathBuf::from(value("--trace-json")?)),
            "--history-export" => {
                history_export = Some(std::path::PathBuf::from(value("--history-export")?))
            }
            other => {
                eprintln!("error: unknown serve flag '{other}'\n");
                print_usage();
                std::process::exit(2);
            }
        }
    }
    config.engine = engine;
    let handle = Server::start(config)?;
    if handle.restored_streams() > 0 {
        eprintln!("restored {} streams from snapshot", handle.restored_streams());
    }
    if handle.replayed_records() > 0 {
        eprintln!("replayed {} WAL records past the snapshot watermark", handle.replayed_records());
    }
    if handle.is_follower() {
        eprintln!("running as read-only follower (send PROMOTE to accept writes)");
    }
    // The smoke test and users scrape this exact line for the bound port.
    println!("listening on {}", handle.addr());
    if let Some(http) = handle.http_addr() {
        println!("metrics listening on {http}");
    }
    std::io::stdout().flush()?;
    install_sigint_handler();
    while !handle.is_finished() && !interrupted() {
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    // Ctrl-C and client SHUTDOWN land in the same place: drain subscriber
    // queues, join every connection thread, write the final snapshot.
    let final_metrics = dump_metrics.then(|| handle.metrics_text());
    let final_history = history_export.as_ref().map(|_| handle.history_json());
    handle.stop();
    eprintln!("server stopped");
    if let Some(text) = final_metrics {
        print!("{text}");
    }
    if let Some(path) = trace_json {
        let traces = ausdb::obs::span::ring().snapshot();
        let json = ausdb::obs::span::chrome_trace_json(&traces);
        std::fs::write(&path, json)?;
        eprintln!("wrote {} traced queries to {}", traces.len(), path.display());
    }
    if let (Some(path), Some(json)) = (history_export, final_history) {
        std::fs::write(&path, &json)?;
        eprintln!("wrote retained history to {}", path.display());
    }
    Ok(())
}

/// `ausdb ingest`: stream `key,ts,value` lines from stdin to a server as
/// binary `INGESTB` frames.
fn run_ingest(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let mut addr = "127.0.0.1:7878".to_string();
    let mut stream = "traffic".to_string();
    let mut batch: usize = 4096;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{what} expects a value"))
        };
        match flag.as_str() {
            "--addr" => addr = value("--addr")?.clone(),
            "--stream" => stream = value("--stream")?.clone(),
            "--batch" => {
                batch = value("--batch")?.parse().map_err(|_| "bad --batch value")?;
                if batch == 0 {
                    return Err("--batch must be positive".into());
                }
            }
            other => {
                eprintln!("error: unknown ingest flag '{other}'\n");
                print_usage();
                std::process::exit(2);
            }
        }
    }
    let mut client = ausdb::serve::BatchClient::connect(&addr)?;
    let mut rows: Vec<RawObservation> = Vec::with_capacity(batch);
    let mut total_rows = 0u64;
    let mut total_late = 0u64;
    let mut total_windows = 0u64;
    let mut bad_lines = 0u64;
    let stdin = std::io::stdin();
    let mut flush = |rows: &mut Vec<RawObservation>| -> Result<(), Box<dyn std::error::Error>> {
        if rows.is_empty() {
            return Ok(());
        }
        let out = client.ingest_batch(&stream, rows)?;
        total_rows += out.accepted;
        total_late += out.late;
        total_windows += out.windows_emitted;
        rows.clear();
        Ok(())
    };
    for line in stdin.lock().lines() {
        let line = line?;
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        match parse_ingest_line(line) {
            Some(obs) => {
                rows.push(obs);
                if rows.len() >= batch {
                    flush(&mut rows)?;
                }
            }
            None => {
                bad_lines += 1;
                eprintln!("skipping malformed line: {line}");
            }
        }
    }
    flush(&mut rows)?;
    println!(
        "ingested {total_rows} rows into '{stream}' \
         (late={total_late} windows_emitted={total_windows} skipped={bad_lines})"
    );
    Ok(())
}

/// Parses a `key,ts,value` stdin line for `ausdb ingest`.
fn parse_ingest_line(line: &str) -> Option<RawObservation> {
    let cells: Vec<&str> = line.split(',').map(str::trim).collect();
    if cells.len() != 3 {
        return None;
    }
    let key: i64 = cells[0].parse().ok()?;
    let ts: u64 = cells[1].parse().ok()?;
    let value: f64 = cells[2].parse().ok()?;
    value.is_finite().then(|| RawObservation::new(key, ts, value))
}

fn run_shell(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let mut session = Session::new();
    if args.iter().any(|a| a == "--demo") {
        load_demo(&mut session)?;
        eprintln!("demo session: stream 'roads' registered (simulated CarTel network)");
    }
    eprintln!("ausdb shell — \\help for commands, \\quit to exit");

    let stdin = std::io::stdin();
    let mut out = std::io::stdout();
    let mut buffer = String::new();
    loop {
        if buffer.is_empty() {
            write!(out, "ausdb> ")?;
        } else {
            write!(out, "   ...> ")?;
        }
        out.flush()?;
        let mut line = String::new();
        if stdin.lock().read_line(&mut line)? == 0 {
            break; // EOF
        }
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if buffer.is_empty() && line.starts_with('\\') {
            match run_meta(&mut session, line) {
                MetaResult::Continue => continue,
                MetaResult::Quit => break,
            }
        }
        buffer.push_str(line);
        buffer.push(' ');
        // Statements end with ';' (or a meta-command interrupted us above).
        if line.ends_with(';') {
            let stmt = std::mem::take(&mut buffer);
            run_statement(&session, stmt.trim());
        }
    }
    Ok(())
}

enum MetaResult {
    Continue,
    Quit,
}

fn run_meta(session: &mut Session, line: &str) -> MetaResult {
    let parts: Vec<&str> = line.split_whitespace().collect();
    match parts[0] {
        "\\quit" | "\\q" => return MetaResult::Quit,
        "\\help" | "\\h" => {
            println!("meta-commands:");
            println!("  \\streams                          list registered streams");
            println!("  \\drop NAME                        unregister a stream");
            println!("  \\load FILE STREAM KEY TS VALUE    ingest a CSV of raw observations,");
            println!("                                    learn per-key distributions, register");
            println!("  \\help, \\quit");
            println!("anything else: extended SQL terminated by ';'");
            println!("  EXPLAIN SELECT ...;               show the physical plan");
            println!("  EXPLAIN ANALYZE SELECT ...;       run it, annotate per-operator timing,");
            println!("                                    rows, and accuracy attributes");
        }
        "\\streams" => {
            for (name, n) in session.streams() {
                println!("  {name}: {n} tuples");
            }
        }
        "\\drop" => match parts.get(1) {
            Some(name) => {
                if session.drop_stream(name) {
                    println!("dropped '{name}'");
                } else {
                    println!("no stream named '{name}'");
                }
            }
            None => println!("usage: \\drop NAME"),
        },
        "\\load" => {
            if parts.len() != 6 {
                println!("usage: \\load FILE STREAM KEY_COL TS_COL VALUE_COL");
            } else if let Err(e) =
                load_csv(session, parts[1], parts[2], parts[3], parts[4], parts[5])
            {
                println!("load failed: {e}");
            }
        }
        other => println!("unknown meta-command {other}; try \\help"),
    }
    MetaResult::Continue
}

fn load_csv(
    session: &mut Session,
    file: &str,
    stream: &str,
    key: &str,
    ts: &str,
    value: &str,
) -> Result<(), Box<dyn std::error::Error>> {
    let obs = read_csv_observations(file, &CsvColumns::new(key, ts, value), ',')?;
    let count = obs.len();
    let mut learner = StreamLearner::with_column_names(
        LearnerConfig {
            kind: DistKind::Empirical,
            level: 0.9,
            window_width: u64::MAX,
            min_observations: 2,
        },
        key,
        value,
    );
    learner.observe_all(obs);
    let schema = learner.schema().clone();
    let tuples = learner.emit_window(0)?;
    println!(
        "loaded {count} observations -> {} probabilistic tuples into '{stream}'",
        tuples.len()
    );
    session.register(stream, schema, tuples);
    Ok(())
}

fn run_statement(session: &Session, stmt: &str) {
    match ausdb::sql::run_statement(session, stmt) {
        Ok(ausdb::sql::SqlOutput::Rows { schema, tuples }) => print_rows(&schema, &tuples),
        Ok(ausdb::sql::SqlOutput::Plan(plan)) => println!("{plan}"),
        Err(e) => println!("error: {e}"),
    }
}

fn print_rows(schema: &Schema, rows: &[Tuple]) {
    let names: Vec<&str> = schema.columns().iter().map(|c| c.name.as_str()).collect();
    println!("{}", names.join(" | "));
    for row in rows.iter().take(40) {
        let mut cells: Vec<String> = Vec::with_capacity(row.fields.len());
        for f in &row.fields {
            let mut s = f.value.to_string();
            if let Some(info) = &f.accuracy {
                if let Some(mu) = info.mean_ci {
                    s.push_str(&format!("  mu in {mu} (n={})", info.sample_size));
                }
            }
            cells.push(s);
        }
        let memb = if row.membership.is_certain() {
            String::new()
        } else {
            format!("  [p = {:.3}]", row.membership.p)
        };
        println!("{}{}", cells.join(" | "), memb);
    }
    match rows.len() {
        0 => println!("(no rows)"),
        n if n > 40 => println!("... {n} rows total"),
        n => println!("({n} rows)"),
    }
}

fn load_demo(session: &mut Session) -> Result<(), Box<dyn std::error::Error>> {
    let sim = CartelSim::new(40, 2012);
    let obs = sim.fleet_observations(600, 4.0, 1);
    // Gaussian (not empirical) so windowed aggregates work in the demo.
    let mut learner = StreamLearner::with_column_names(
        LearnerConfig {
            kind: DistKind::Gaussian,
            level: 0.9,
            window_width: 600,
            min_observations: 3,
        },
        "road_id",
        "delay",
    );
    learner.observe_all(obs);
    let schema = learner.schema().clone();
    let tuples = learner.emit_window(0)?;
    session.register("roads", schema, tuples);
    Ok(())
}
