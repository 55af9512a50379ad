//! Centralized environment-knob parsing with warn-once diagnostics.
//!
//! Every execution knob the system reads from the environment goes
//! through one [`Knob`] per variable, so an invalid value produces
//! exactly one `warning:` line on stderr (then the fallback applies)
//! instead of being silently ignored — a typo in `AUSDB_TRACE_CAP=8x`
//! should be visible, not mysterious.
//!
//! | Variable          | Meaning                                   | Default |
//! |-------------------|-------------------------------------------|---------|
//! | `AUSDB_OBS_TIMING`| per-operator wall-clock timing            | off |
//! | `AUSDB_LOG`       | trace-journal severity cutoff             | `info` |
//! | `AUSDB_TELEMETRY` | optional telemetry recording master switch| on |
//! | `AUSDB_TRACE_CAP` | journal / trace-ring capacity (entries)   | 512 |
//! | `AUSDB_SLOW_QUERY_MS` | slow-query log threshold in ms        | off |
//! | `AUSDB_SHARDS`    | key-sharded engine states in the server   | 1 |
//! | `AUSDB_FSYNC`     | WAL sync policy (`always`/`batch`/`never`)| `batch` |
//! | `AUSDB_LOG_JSON`  | structured JSON log sink (`stderr`/path)  | off |
//! | `AUSDB_HISTORY`   | metric/accuracy history retention switch  | on |
//! | `AUSDB_HISTORY_TIERS` | retention tiers as `step:cap,…`       | `1s:120,10s:180,1m:240` |
//! | `AUSDB_HISTORY_SAMPLE_MS` | sampler cadence in ms (0 = off)   | 1000 |
//! | `AUSDB_HISTORY_EVENTS` | accuracy points kept per standing query | 512 |

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

use crate::journal::Level;

/// One environment knob: a name plus its warn-once state.
#[derive(Debug)]
pub struct Knob {
    name: &'static str,
    warned: AtomicBool,
}

impl Knob {
    /// A knob for the environment variable `name`.
    pub const fn new(name: &'static str) -> Self {
        Self { name, warned: AtomicBool::new(false) }
    }

    /// Parses `raw` with `parse`; unset ⇒ `fallback`, invalid ⇒ one
    /// warning on stderr (per knob, ever) and then `fallback`.
    pub fn parse<T>(&self, raw: Option<&str>, parse: impl Fn(&str) -> Option<T>, fallback: T) -> T {
        match raw {
            None => fallback,
            Some(s) => match parse(s) {
                Some(v) => v,
                None => {
                    if !self.warned.swap(true, Ordering::Relaxed) {
                        eprintln!(
                            "warning: ignoring invalid {}='{}' (falling back to the default)",
                            self.name, s
                        );
                    }
                    fallback
                }
            },
        }
    }

    /// Reads the knob's environment variable and parses it.
    pub fn from_env<T>(&self, parse: impl Fn(&str) -> Option<T>, fallback: T) -> T {
        self.parse(std::env::var(self.name).ok().as_deref(), parse, fallback)
    }

    /// Whether this knob has already warned about an invalid value.
    pub fn warned(&self) -> bool {
        self.warned.load(Ordering::Relaxed)
    }
}

/// Parses an on/off flag value: anything but empty / `0` / `false` /
/// `off` (case-insensitive) is on. Never fails, so flag knobs never warn.
pub fn parse_flag(value: Option<&str>) -> bool {
    match value {
        None => false,
        Some(v) => !matches!(v.trim().to_ascii_lowercase().as_str(), "" | "0" | "false" | "off"),
    }
}

/// `AUSDB_OBS_TIMING`: per-operator wall-clock timing (off by default;
/// an `Instant::now()` pair per batch is not free). Read once and cached.
pub fn timing_enabled() -> bool {
    static ENABLED: OnceLock<bool> = OnceLock::new();
    *ENABLED.get_or_init(|| parse_flag(std::env::var("AUSDB_OBS_TIMING").ok().as_deref()))
}

/// `AUSDB_LOG`: the trace journal's severity cutoff (`error`, `warn`,
/// `info`, `debug`, `trace`; default `info`). Read once at journal
/// creation; use [`crate::Journal::set_level`] to change it later.
pub fn log_level() -> Level {
    static KNOB: Knob = Knob::new("AUSDB_LOG");
    KNOB.from_env(Level::parse, Level::Info)
}

/// `AUSDB_TRACE_CAP`: capacity (in entries) of the bounded telemetry
/// rings — the trace journal and the finished-span trace ring. Read once
/// at ring creation; invalid or zero values warn once and fall back to
/// 512.
pub fn trace_cap() -> usize {
    static KNOB: Knob = Knob::new("AUSDB_TRACE_CAP");
    KNOB.from_env(|s| s.trim().parse::<usize>().ok().filter(|&n| n > 0), 512)
}

/// `AUSDB_SLOW_QUERY_MS`: root-span duration threshold above which a
/// finished query trace is journaled at WARN with its rendered tree.
/// Unset ⇒ `None` (the slow-query log is off). Re-read on every call so
/// long-running processes can be tuned live.
pub fn slow_query_ms() -> Option<u64> {
    static KNOB: Knob = Knob::new("AUSDB_SLOW_QUERY_MS");
    KNOB.from_env(|s| s.trim().parse::<u64>().ok().map(Some), None)
}

/// `AUSDB_SHARDS`: how many key-sharded engine states the server runs
/// (rows are routed by a stable hash of their key; 1 = the classic
/// single-engine layout). Re-read on every call; invalid or zero values
/// warn once and fall back to 1.
pub fn shards() -> usize {
    static KNOB: Knob = Knob::new("AUSDB_SHARDS");
    KNOB.from_env(|s| s.trim().parse::<usize>().ok().filter(|&n| n > 0), 1)
}

/// `AUSDB_LOG_JSON`: target of the structured JSON log sink mirroring
/// every journal entry as one JSON object per line — `stderr`, or a file
/// path opened in append mode. Unset or empty ⇒ `None` (sink off). Read
/// once at global-journal creation.
pub fn log_json() -> Option<String> {
    std::env::var("AUSDB_LOG_JSON").ok().filter(|v| !v.trim().is_empty())
}

/// `AUSDB_TELEMETRY`: the initial value of the [`crate::enabled`] master
/// switch — on unless explicitly `0`/`false`/`off`.
pub(crate) fn telemetry_env_default() -> bool {
    match std::env::var("AUSDB_TELEMETRY").ok() {
        None => true,
        some => parse_flag(some.as_deref()),
    }
}

/// `AUSDB_HISTORY`: whether the metric/accuracy history retention layer
/// records at all — on unless explicitly `0`/`false`/`off`. Re-read on
/// every call (store construction), never warns.
pub fn history_enabled() -> bool {
    match std::env::var("AUSDB_HISTORY").ok() {
        None => true,
        some => parse_flag(some.as_deref()),
    }
}

/// `AUSDB_HISTORY_TIERS`: the retention tier layout as a comma list of
/// `step:cap` pairs (step is a duration — `1s`, `10s`, `1m` — cap a
/// bucket count), e.g. `1s:120,10s:180,1m:240`. Steps must ascend, each
/// a multiple of the previous, with every fine ring able to cover one
/// coarse bucket; invalid layouts warn once and fall back to the
/// default ([`crate::series::default_tiers`]).
pub fn history_tiers() -> Vec<crate::series::TierSpec> {
    static KNOB: Knob = Knob::new("AUSDB_HISTORY_TIERS");
    KNOB.from_env(
        |s| {
            let tiers: Option<Vec<crate::series::TierSpec>> = s
                .split(',')
                .map(|pair| {
                    let (step, cap) = pair.trim().split_once(':')?;
                    Some(crate::series::TierSpec {
                        step: crate::series::parse_ticks(step)?,
                        cap: cap.trim().parse::<usize>().ok().filter(|&c| c > 0)?,
                    })
                })
                .collect();
            tiers.filter(|t| crate::series::valid_tiers(t))
        },
        crate::series::default_tiers(),
    )
}

/// `AUSDB_HISTORY_SAMPLE_MS`: the server-side sampler cadence in
/// milliseconds (one store tick per scrape). `0` disables the sampler
/// while keeping event-driven accuracy points. Invalid values warn once
/// and fall back to 1000.
pub fn history_sample_ms() -> u64 {
    static KNOB: Knob = Knob::new("AUSDB_HISTORY_SAMPLE_MS");
    KNOB.from_env(|s| s.trim().parse::<u64>().ok(), 1000)
}

/// `AUSDB_HISTORY_EVENTS`: accuracy points retained per standing query.
/// Invalid or zero values warn once and fall back to 512.
pub fn history_events_cap() -> usize {
    static KNOB: Knob = Knob::new("AUSDB_HISTORY_EVENTS");
    KNOB.from_env(|s| s.trim().parse::<usize>().ok().filter(|&n| n > 0), 512)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unset_uses_fallback_without_warning() {
        let knob = Knob::new("AUSDB_TEST_UNSET");
        assert_eq!(knob.parse(None, |s| s.parse::<u32>().ok(), 7), 7);
        assert!(!knob.warned());
    }

    #[test]
    fn valid_values_parse_without_warning() {
        let knob = Knob::new("AUSDB_TEST_VALID");
        assert_eq!(knob.parse(Some("42"), |s| s.parse::<u32>().ok(), 7), 42);
        assert!(!knob.warned());
    }

    #[test]
    fn invalid_values_warn_once_then_fall_back() {
        let knob = Knob::new("AUSDB_TEST_INVALID");
        assert_eq!(knob.parse(Some("8x"), |s| s.parse::<u32>().ok(), 7), 7);
        assert!(knob.warned(), "first invalid value flips the warn state");
        // A second (even different) invalid value falls back silently.
        assert_eq!(knob.parse(Some("-3"), |s| s.parse::<u32>().ok(), 7), 7);
        assert!(knob.warned());
        // Valid values still work after a warning.
        assert_eq!(knob.parse(Some("9"), |s| s.parse::<u32>().ok(), 7), 9);
    }

    #[test]
    fn flag_parsing() {
        assert!(!parse_flag(None));
        assert!(!parse_flag(Some("")));
        assert!(!parse_flag(Some("0")));
        assert!(!parse_flag(Some("false")));
        assert!(!parse_flag(Some("OFF")));
        assert!(parse_flag(Some("1")));
        assert!(parse_flag(Some("true")));
        assert!(parse_flag(Some("nanos")));
    }

    #[test]
    fn trace_cap_is_positive() {
        assert!(trace_cap() >= 1);
    }

    #[test]
    fn shards_is_positive() {
        assert!(shards() >= 1);
    }
}
