//! `ausdb-benchmark`: the one end-to-end benchmark of ausdb.
//!
//! Run through `benchmark/run.sh`, which builds `ausdb` and this harness
//! first. See `benchmark/README.md`.

mod child;
mod input;
mod load;
mod measure;
mod oracle;
mod run;
mod spec;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

use run::{Invalid, Measured, RunOutcome};
use spec::{Better, END_TO_END, PER_LAYER, WORKLOADS};

/// A run that has not finished after this long has hung: the watchdog ends
/// the child server and the harness, inside the contract's 180 s.
const RUN_LIMIT: Duration = Duration::from_secs(170);

/// When the current run must be over.
static DEADLINE: Mutex<Option<Instant>> = Mutex::new(None);

/// Seconds per workload with `--quick`.
const QUICK_SECONDS: f64 = 2.0;

struct Args {
    server_bin: PathBuf,
    workload: Option<usize>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: usize,
    write_manifest: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        server_bin: PathBuf::new(),
        workload: None,
        seed: 1,
        seconds: spec::RUN_SECONDS as f64,
        trace: false,
        repeat: 1,
        write_manifest: false,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{what} expects a value"));
        match flag.as_str() {
            "--server-bin" => args.server_bin = PathBuf::from(value("--server-bin")?),
            "--workload" => {
                let name = value("--workload")?;
                let index = WORKLOADS.iter().position(|w| w.name == name);
                args.workload = Some(index.ok_or(format!("unknown workload '{name}'"))?);
            }
            "--seed" => args.seed = value("--seed")?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => {
                args.seconds = value("--seconds")?.parse().map_err(|_| "bad --seconds")?;
                if !(args.seconds >= 1.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be between 1 and 60".into());
                }
            }
            "--quick" => args.seconds = QUICK_SECONDS,
            "--repeat" => args.repeat = value("--repeat")?.parse().map_err(|_| "bad --repeat")?,
            "--write-manifest" => args.write_manifest = true,
            // `--trace 0|1` for the driver, bare `--trace` by hand.
            "--trace" => args.trace = it.next_if(|v| v == "0" || v == "1").is_none_or(|v| v == "1"),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(args)
}

/// The contract's result line.
fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, &str, f64)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        // `{value}` prints every digit measured and never an exponent.
        .map(|(name, unit, value)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// One workload, one time: the untraced run against the child server and,
/// with `--trace`, the in-process traced replay. Prints the tables and
/// returns the outcome plus the result line.
fn run_once(args: &Args, index: usize) -> Result<(RunOutcome, String), Invalid> {
    let name = WORKLOADS[index].name;
    let workload =
        run::WORKLOADS.iter().find(|w| w.name == name).expect("every workload is defined");
    println!(
        "== {name}: seed {}, {} s timed, {} ==",
        args.seed,
        args.seconds,
        if args.trace { "per-layer (traced) report" } else { "end-to-end report" }
    );
    *DEADLINE.lock().unwrap_or_else(PoisonError::into_inner) = Some(Instant::now() + RUN_LIMIT);
    let outcome = run::run(&args.server_bin, workload, args.seed, args.seconds, args.trace)?;
    for note in &outcome.notes {
        println!("  {note}");
    }
    println!("  {:<28} {:>16} {:<7} {:>8}", "end-to-end metric", "value", "unit", "samples");
    for (spec, (name, Measured { value, samples })) in END_TO_END.iter().zip(&outcome.end_to_end) {
        assert_eq!(spec.name, *name, "metrics are produced in manifest order");
        println!("  {name:<28} {value:>16.4} {:<7} {samples:>8}", spec.unit);
    }
    println!(
        "  attempted {} failed {} (share {:.6}) correct {}",
        outcome.attempted,
        outcome.failed,
        outcome.failed as f64 / outcome.attempted as f64,
        outcome.correct
    );
    if let Some((name, m)) = outcome.end_to_end.iter().find(|(_, m)| !m.value.is_finite()) {
        return Err(Invalid(format!("{name} has no value ({} samples)", m.samples)));
    }
    let line = if args.trace {
        let mut layers = outcome.layers.clone();
        layers.extend(trace::traced_report(workload, name, args.seed, &outcome)?);
        println!("  {:<44} {:>16} unit", "per-layer metric", "value");
        let mut metrics = Vec::new();
        for spec in &PER_LAYER {
            let value =
                layers.iter().find(|(name, _)| *name == spec.name).map(|&(_, v)| v).ok_or_else(
                    || Invalid(format!("per-layer metric {} was not measured", spec.name)),
                )?;
            println!("  {:<44} {value:>16.4} {}", spec.name, spec.unit);
            metrics.push((spec.name, spec.unit, value));
        }
        result_line(outcome.correct, outcome.attempted, outcome.failed, &metrics)
    } else {
        let metrics: Vec<(&str, &str, f64)> = END_TO_END
            .iter()
            .zip(&outcome.end_to_end)
            .map(|(spec, (_, m))| (spec.name, spec.unit, m.value))
            .collect();
        result_line(outcome.correct, outcome.attempted, outcome.failed, &metrics)
    };
    Ok((outcome, line))
}

/// `--repeat K`: per end-to-end metric and workload, every value, the
/// largest relative difference between two of them, and the bound.
fn print_repeat_table(runs: &[Vec<RunOutcome>], indices: &[usize]) {
    println!("== repeatability over {} sets ==", runs.len());
    println!("  {:<16} {:<26} {:>10} {:>7}  values", "workload", "metric", "rel.diff", "bound");
    for (slot, &index) in indices.iter().enumerate() {
        for (m, spec) in END_TO_END.iter().enumerate() {
            let values: Vec<f64> = runs.iter().map(|set| set[slot].end_to_end[m].1.value).collect();
            let (lo, hi) =
                values.iter().fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
            let base = match spec.better {
                Better::Lower => lo,
                Better::Higher => hi,
            };
            let diff = (hi - lo) / base;
            let shown: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
            println!(
                "  {:<16} {:<26} {:>9.2}% {:>6.0}%  {}{}",
                WORKLOADS[index].name,
                spec.name,
                diff * 100.0,
                spec.bound * 100.0,
                shown.join(" "),
                if diff > spec.bound { "  unresolved" } else { "" }
            );
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if args.write_manifest {
        return match std::fs::write("BENCHMARK.json", spec::manifest()) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: cannot write BENCHMARK.json: {e}");
                ExitCode::FAILURE
            }
        };
    }
    // The names printed below are the tables in spec.rs; the manifest must
    // be the same tables, or a later PR would compare different metrics.
    match std::fs::read_to_string("BENCHMARK.json") {
        Ok(text) if text == spec::manifest() => {}
        Ok(_) => {
            eprintln!(
                "error: BENCHMARK.json does not match benchmark/src/spec.rs \
                 (run benchmark/run.sh --write-manifest)"
            );
            return ExitCode::FAILURE;
        }
        Err(e) => {
            eprintln!("error: cannot read BENCHMARK.json from the checkout root: {e}");
            return ExitCode::FAILURE;
        }
    }
    // Detached on purpose: it only ever acts by ending the whole process.
    std::thread::spawn(|| loop {
        std::thread::sleep(Duration::from_millis(500));
        let deadline = *DEADLINE.lock().unwrap_or_else(PoisonError::into_inner);
        if deadline.is_some_and(|at| Instant::now() > at) {
            child::kill_all();
            eprintln!("error: run exceeded {} s; child server killed", RUN_LIMIT.as_secs());
            std::process::exit(3);
        }
    });
    let indices: Vec<usize> =
        args.workload.map_or_else(|| (0..WORKLOADS.len()).collect(), |w| vec![w]);
    let mut sets: Vec<Vec<RunOutcome>> = Vec::new();
    let mut all_correct = true;
    for _ in 0..args.repeat {
        let mut set = Vec::new();
        for &index in &indices {
            match run_once(&args, index) {
                Ok((outcome, line)) => {
                    all_correct &= outcome.correct;
                    set.push(outcome);
                    // Last on stdout for this workload: the contract's result line.
                    println!("{line}");
                }
                Err(Invalid(why)) => {
                    eprintln!("error: run of {} is invalid: {why}", WORKLOADS[index].name);
                    return ExitCode::FAILURE;
                }
            }
        }
        sets.push(set);
    }
    if args.repeat > 1 {
        print_repeat_table(&sets, &indices);
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("error: an oracle check failed (see the notes above)");
        ExitCode::FAILURE
    }
}
