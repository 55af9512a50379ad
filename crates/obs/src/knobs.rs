//! Centralized environment-knob parsing with warn-once diagnostics.
//!
//! Every execution knob the system reads from the environment goes
//! through one [`Knob`] per variable, so an invalid value produces
//! exactly one `warning:` line on stderr (then the fallback applies)
//! instead of being silently ignored — a typo in `AUSDB_SLOW_QUERY_MS=8x`
//! should be visible, not mysterious.
//!
//! | Variable          | Meaning                                   | Default |
//! |-------------------|-------------------------------------------|---------|
//! | `AUSDB_LOG`       | trace-journal severity cutoff             | `info` |
//! | `AUSDB_SLOW_QUERY_MS` | slow-query log threshold in ms        | off |
//! | `AUSDB_FSYNC`     | WAL sync policy (`always`/`batch`/`never`)| `batch` |
//! | `AUSDB_LOG_JSON`  | structured JSON log sink (`stderr`/path)  | off |
//! | `AUSDB_HISTORY_SAMPLE_MS` | sampler cadence in ms (0 = off)   | 1000 |

use std::sync::atomic::{AtomicBool, Ordering};

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

/// `AUSDB_LOG`: the trace journal's severity cutoff (`error`, `warn`,
/// `info`, `debug`, `trace`; default `info`). Read once at journal
/// creation; use [`crate::Journal::set_level`] to change it later.
pub fn log_level() -> Level {
    static KNOB: Knob = Knob::new("AUSDB_LOG");
    KNOB.from_env(Level::parse, Level::Info)
}

/// `AUSDB_SLOW_QUERY_MS`: root-span duration threshold above which a
/// finished query trace is journaled at WARN with its rendered tree.
/// Unset ⇒ `None` (the slow-query log is off). Re-read on every call so
/// long-running processes can be tuned live.
pub fn slow_query_ms() -> Option<u64> {
    static KNOB: Knob = Knob::new("AUSDB_SLOW_QUERY_MS");
    KNOB.from_env(|s| s.trim().parse::<u64>().ok().map(Some), None)
}

/// `AUSDB_LOG_JSON`: target of the structured JSON log sink mirroring
/// every journal entry as one JSON object per line — `stderr`, or a file
/// path opened in append mode. Unset or empty ⇒ `None` (sink off). Read
/// once at global-journal creation.
pub fn log_json() -> Option<String> {
    std::env::var("AUSDB_LOG_JSON").ok().filter(|v| !v.trim().is_empty())
}

/// `AUSDB_HISTORY_SAMPLE_MS`: the server-side sampler cadence in
/// milliseconds (one store tick per scrape). `0` disables the sampler
/// while keeping event-driven accuracy points. Invalid values warn once
/// and fall back to 1000.
pub fn history_sample_ms() -> u64 {
    static KNOB: Knob = Knob::new("AUSDB_HISTORY_SAMPLE_MS");
    KNOB.from_env(|s| s.trim().parse::<u64>().ok(), 1000)
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
}
