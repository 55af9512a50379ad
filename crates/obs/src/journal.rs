//! A bounded ring-buffer trace journal.
//!
//! Spans (query, window close, re-learn, snapshot, fan-out, …) record one
//! [`Entry`] each: a monotonic sequence number, microseconds since
//! process start, a severity [`Level`], a static span name, and a lazily
//! formatted message. The ring keeps the last `capacity` entries; older
//! ones fall off — this is a flight recorder, not a log file.
//!
//! Severity filtering follows the `AUSDB_LOG` knob (default `info`):
//! entries *more verbose* than the configured level are skipped before
//! their message closure ever runs. Entries never contain newlines
//! (messages are sanitized), so one entry is always one protocol line
//! when drained over the wire (`TRACE <n>`).
//!
//! Because the ring is a flight recorder, evictions are normal — but
//! they should never be *silent*. [`Journal::dropped`] counts entries
//! that fell off the ring, and the optional structured sink
//! (`AUSDB_LOG_JSON=stderr|<path>`) mirrors every recorded entry as one
//! JSON object per line for log shippers, so nothing is lost even when
//! the ring wraps.

use std::collections::VecDeque;
use std::fs::File;
use std::io::Write;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::span::json_escape;

/// Entry severity, most severe first. Filtering keeps entries with
/// `level <= max_level` (e.g. `Info` keeps `Error`/`Warn`/`Info`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Something failed.
    Error,
    /// Something looks wrong but the system continues.
    Warn,
    /// Normal operational landmarks (default cutoff).
    Info,
    /// Per-window / per-operation detail.
    Debug,
    /// Maximum verbosity.
    Trace,
}

impl Level {
    const ALL: [Level; 5] = [Level::Error, Level::Warn, Level::Info, Level::Debug, Level::Trace];

    /// Parses a level name (case-insensitive): `error`, `warn`, `info`,
    /// `debug`, `trace`.
    pub fn parse(s: &str) -> Option<Level> {
        match s.trim().to_ascii_lowercase().as_str() {
            "error" => Some(Level::Error),
            "warn" | "warning" => Some(Level::Warn),
            "info" => Some(Level::Info),
            "debug" => Some(Level::Debug),
            "trace" => Some(Level::Trace),
            _ => None,
        }
    }

    /// The lowercase name.
    pub fn name(&self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
            Level::Trace => "trace",
        }
    }

    fn rank(self) -> u8 {
        self as u8
    }

    fn from_rank(rank: u8) -> Level {
        Self::ALL[usize::from(rank).min(Self::ALL.len() - 1)]
    }
}

impl std::fmt::Display for Level {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One recorded span event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry {
    /// Monotonic per-journal sequence number (gaps reveal ring evictions).
    pub seq: u64,
    /// Microseconds since the journal was created.
    pub micros: u64,
    /// Severity.
    pub level: Level,
    /// Static span name (`query`, `window_close`, `relearn`, `snapshot`,
    /// `fanout`, …).
    pub span: &'static str,
    /// Free-form detail; never contains newlines.
    pub message: String,
}

impl std::fmt::Display for Entry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "#{} +{}us {} {}: {}", self.seq, self.micros, self.level, self.span, self.message)
    }
}

impl Entry {
    /// Renders the entry as one JSON object (no trailing newline), the
    /// line format of the `AUSDB_LOG_JSON` structured sink.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"seq\":{},\"micros\":{},\"level\":\"{}\",\"span\":\"{}\",\"message\":\"{}\"}}",
            self.seq,
            self.micros,
            self.level.name(),
            json_escape(self.span),
            json_escape(&self.message)
        )
    }
}

/// Where the structured JSON log sink writes, if anywhere.
enum JsonSink {
    Stderr,
    File(Mutex<File>),
}

impl JsonSink {
    /// Best-effort write of one line; sink errors never disturb the
    /// recording path.
    fn write_line(&self, line: &str) {
        match self {
            JsonSink::Stderr => {
                let mut err = std::io::stderr().lock();
                let _ = writeln!(err, "{line}");
            }
            JsonSink::File(file) => {
                let mut file = file.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
                let _ = writeln!(file, "{line}");
            }
        }
    }
}

struct Inner {
    entries: VecDeque<Entry>,
    next_seq: u64,
}

/// The bounded trace ring. See the module docs.
pub struct Journal {
    capacity: usize,
    epoch: Instant,
    max_level: AtomicU8,
    dropped: AtomicU64,
    json_sink: Option<JsonSink>,
    inner: Mutex<Inner>,
}

impl Journal {
    /// A journal holding at most `capacity` entries, filtering at `max`.
    pub fn new(capacity: usize, max: Level) -> Self {
        Self {
            capacity: capacity.max(1),
            epoch: Instant::now(),
            max_level: AtomicU8::new(max.rank()),
            dropped: AtomicU64::new(0),
            json_sink: None,
            inner: Mutex::new(Inner { entries: VecDeque::new(), next_seq: 1 }),
        }
    }

    /// Attaches the structured JSON sink: `"stderr"` mirrors entries to
    /// stderr, any other value is treated as a file path opened in
    /// append mode. An unopenable path warns on stderr and leaves the
    /// sink off (recording must never fail because logging does).
    pub fn with_json_target(mut self, target: &str) -> Self {
        self.json_sink = match target {
            "stderr" => Some(JsonSink::Stderr),
            path => match std::fs::OpenOptions::new().create(true).append(true).open(path) {
                Ok(file) => Some(JsonSink::File(Mutex::new(file))),
                Err(err) => {
                    eprintln!("warning: AUSDB_LOG_JSON: cannot open '{path}': {err}");
                    None
                }
            },
        };
        self
    }

    /// The configured severity cutoff.
    pub fn level(&self) -> Level {
        Level::from_rank(self.max_level.load(Ordering::Relaxed))
    }

    /// Changes the severity cutoff at runtime.
    pub fn set_level(&self, max: Level) {
        self.max_level.store(max.rank(), Ordering::Relaxed);
    }

    /// Whether an entry at `level` would currently be recorded.
    pub fn enabled_at(&self, level: Level) -> bool {
        level.rank() <= self.max_level.load(Ordering::Relaxed)
    }

    /// Records one entry; `message` runs only if the entry passes the
    /// severity filter.
    pub fn record(&self, level: Level, span: &'static str, message: impl FnOnce() -> String) {
        if !self.enabled_at(level) {
            return;
        }
        let micros = self.epoch.elapsed().as_micros() as u64;
        let message = message().replace(['\n', '\r'], " ");
        let mut inner = self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let entry = Entry { seq: inner.next_seq, micros, level, span, message };
        inner.next_seq += 1;
        if inner.entries.len() == self.capacity {
            inner.entries.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        if let Some(sink) = &self.json_sink {
            sink.write_line(&entry.to_json());
        }
        inner.entries.push_back(entry);
    }

    /// How many entries have fallen off the ring since creation. Gaps in
    /// `TRACE` output are expected once this is nonzero.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// The last `n` entries, oldest first.
    pub fn last(&self, n: usize) -> Vec<Entry> {
        let inner = self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        inner.entries.iter().rev().take(n).rev().cloned().collect()
    }

    /// Entries currently retained.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner).entries.len()
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The process-wide journal: capacity [`crate::TRACE_CAP`], severity from
/// `AUSDB_LOG`, structured sink from `AUSDB_LOG_JSON` (unset ⇒ no sink).
pub fn global() -> &'static Journal {
    static GLOBAL: OnceLock<Journal> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        let journal = Journal::new(crate::TRACE_CAP, crate::knobs::log_level());
        match crate::knobs::log_json() {
            Some(target) => journal.with_json_target(&target),
            None => journal,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_is_bounded_and_seq_monotonic() {
        let j = Journal::new(3, Level::Trace);
        for i in 0..5 {
            j.record(Level::Info, "t", || format!("msg {i}"));
        }
        assert_eq!(j.len(), 3);
        let last = j.last(10);
        assert_eq!(last.len(), 3);
        assert_eq!(
            last.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![3, 4, 5],
            "oldest evicted, sequence numbers reveal the gap"
        );
        assert_eq!(j.last(2).len(), 2);
        assert_eq!(last[2].message, "msg 4");
    }

    #[test]
    fn severity_filter_skips_verbose_entries() {
        let j = Journal::new(8, Level::Warn);
        let mut ran = false;
        j.record(Level::Debug, "t", || {
            ran = true;
            String::new()
        });
        assert!(!ran, "filtered message closures never run");
        assert!(j.is_empty());
        j.record(Level::Error, "t", || "boom".to_string());
        assert_eq!(j.len(), 1);
        j.set_level(Level::Debug);
        assert!(j.enabled_at(Level::Debug));
        j.record(Level::Debug, "t", || "now kept".to_string());
        assert_eq!(j.len(), 2);
    }

    #[test]
    fn entries_render_on_one_line() {
        let j = Journal::new(2, Level::Info);
        j.record(Level::Info, "query", || "evil\nmulti\rline".to_string());
        let e = &j.last(1)[0];
        let line = e.to_string();
        assert!(!line.contains('\n') && !line.contains('\r'), "{line}");
        assert!(line.starts_with(&format!("#{} +", e.seq)), "{line}");
        assert!(line.contains(" info query: evil multi line"), "{line}");
    }

    #[test]
    fn dropped_counts_ring_evictions() {
        let j = Journal::new(2, Level::Trace);
        assert_eq!(j.dropped(), 0);
        for i in 0..5 {
            j.record(Level::Info, "t", || format!("msg {i}"));
        }
        assert_eq!(j.dropped(), 3, "5 recorded into a 2-slot ring drops 3");
        assert_eq!(j.len(), 2);
    }

    #[test]
    fn entry_renders_as_escaped_json() {
        let j = Journal::new(2, Level::Info);
        j.record(Level::Warn, "slo", || "width=\"0.5\" \\ over".to_string());
        let e = &j.last(1)[0];
        assert_eq!(
            e.to_json(),
            format!(
                "{{\"seq\":1,\"micros\":{},\"level\":\"warn\",\"span\":\"slo\",\
                 \"message\":\"width=\\\"0.5\\\" \\\\ over\"}}",
                e.micros
            )
        );
    }

    #[test]
    fn json_file_sink_appends_one_object_per_line() {
        let path = std::env::temp_dir().join(format!("ausdb_jsonlog_{}.jsonl", std::process::id()));
        std::fs::remove_file(&path).ok();
        let j = Journal::new(4, Level::Info).with_json_target(path.to_str().unwrap());
        j.record(Level::Info, "a", || "first".to_string());
        j.record(Level::Error, "b", || "second".to_string());
        j.record(Level::Debug, "c", || "filtered — must not reach the sink".to_string());
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "{text}");
        assert!(lines[0].contains("\"span\":\"a\"") && lines[0].contains("\"message\":\"first\""));
        assert!(lines[1].contains("\"level\":\"error\""), "{}", lines[1]);
        for line in &lines {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
    }

    #[test]
    fn unopenable_json_target_disables_the_sink() {
        let j = Journal::new(2, Level::Info)
            .with_json_target("/nonexistent-dir-ausdb/notwritable.jsonl");
        j.record(Level::Info, "t", || "still records".to_string());
        assert_eq!(j.len(), 1, "a broken sink never blocks the ring");
    }

    #[test]
    fn level_parse_round_trips() {
        for level in Level::ALL {
            assert_eq!(Level::parse(level.name()), Some(level));
        }
        assert_eq!(Level::parse(" WARN "), Some(Level::Warn));
        assert_eq!(Level::parse("verbose"), None);
    }
}
