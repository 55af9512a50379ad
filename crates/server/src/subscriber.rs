//! Bounded per-subscriber event queues (backpressure).
//!
//! Window-close events are pushed by whichever connection thread ingested
//! the closing observation; each subscriber's own connection thread drains
//! its queue on its next tick. A slow (or stalled) consumer must never
//! grow server memory without bound, so the queue has a hard capacity:
//! once full, new lines are **dropped, newest first**, and a counter
//! records how many. The next successful drain prepends a single
//! `DROPPED <n>` notice so the client knows its view has gaps — the same
//! contract as `pg` replication slots or Redis client-output-buffer
//! limits, chosen over disconnecting because continuous accuracy-aware
//! results are re-derivable from later windows.
//!
//! The queue stores newline-terminated **blocks**: an `EVENT` (header,
//! rows, optional `ACCURACY` notice) is rendered into one string and
//! enqueued under one lock acquisition, so a drain sees all of it or none
//! of it, and draining is one copy per block. Capacity still counts lines.

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::Mutex;

/// A bounded FIFO of protocol lines for one subscriber.
#[derive(Debug)]
pub struct SubscriberQueue {
    inner: Mutex<QueueInner>,
    capacity: usize,
}

#[derive(Debug, Default)]
struct QueueInner {
    /// Each block is one or more lines, every line terminated by `\n`.
    blocks: VecDeque<String>,
    /// Lines held by `blocks` in total.
    lines: usize,
    dropped: u64,
}

impl SubscriberQueue {
    /// Creates a queue holding at most `capacity` lines (minimum 1).
    pub fn new(capacity: usize) -> Self {
        Self { inner: Mutex::new(QueueInner::default()), capacity: capacity.max(1) }
    }

    /// The queue's capacity in lines.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Enqueues one (newline-free) line, dropping it (and counting the
    /// drop) if the queue is full. Returns whether the line was accepted.
    pub fn push(&self, mut line: String) -> bool {
        line.push('\n');
        // Not `push_block(line, 1)`: a single line is never cut, and the
        // extra call measured 4 ns on a 36 ns push + drain.
        let mut inner = self.inner.lock().expect("subscriber queue poisoned");
        if inner.lines >= self.capacity {
            inner.dropped += 1;
            false
        } else {
            inner.blocks.push_back(line);
            inner.lines += 1;
            true
        }
    }

    /// Enqueues a batch of lines one by one; stops counting-in once full.
    pub fn push_all(&self, lines: impl IntoIterator<Item = String>) {
        for line in lines {
            self.push(line);
        }
    }

    /// Enqueues `text` — exactly `lines` lines, each terminated by `\n` —
    /// atomically: a concurrent drain takes the whole block or nothing.
    /// When only `k < lines` lines fit, the block is cut after its `k`-th
    /// line and the rest counted as dropped (all of it when the queue is
    /// full). Returns the number of lines accepted.
    pub fn push_block(&self, mut text: String, lines: usize) -> usize {
        debug_assert!(text.ends_with('\n') || lines == 0, "block must be newline-terminated");
        debug_assert_eq!(text.matches('\n').count(), lines, "block line count");
        let mut inner = self.inner.lock().expect("subscriber queue poisoned");
        let fit = lines.min(self.capacity - inner.lines);
        inner.dropped += (lines - fit) as u64;
        if fit == 0 {
            return 0;
        }
        if fit < lines {
            let (cut, _) =
                text.match_indices('\n').nth(fit - 1).expect("block has `lines` newlines");
            text.truncate(cut + 1);
        }
        inner.blocks.push_back(text);
        inner.lines += fit;
        fit
    }

    /// Takes every queued line. If drops occurred since the last drain, the
    /// first returned line is `DROPPED <n>` and the counter resets.
    pub fn drain(&self) -> Vec<String> {
        let mut text = String::new();
        self.drain_into(&mut text);
        text.split_terminator('\n').map(str::to_owned).collect()
    }

    /// Drains like [`SubscriberQueue::drain`] but appends the lines (each
    /// with its trailing `\n`) to `out` instead of allocating a vector —
    /// the fan-out path batches every queue's blocks into one buffer and
    /// flushes it with a single write syscall per tick. Returns the
    /// number of lines appended. The `DROPPED <n>` gap notice keeps its
    /// exact semantics: emitted first, counter reset.
    pub fn drain_into(&self, out: &mut String) -> usize {
        let mut inner = self.inner.lock().expect("subscriber queue poisoned");
        let mut n = std::mem::take(&mut inner.lines);
        if inner.dropped > 0 {
            let _ = writeln!(out, "DROPPED {}", inner.dropped);
            inner.dropped = 0;
            n += 1;
        }
        for block in inner.blocks.drain(..) {
            out.push_str(&block);
        }
        n
    }

    /// Lines currently queued (for stats and tests).
    pub fn len(&self) -> usize {
        self.inner.lock().expect("subscriber queue poisoned").lines
    }

    /// Whether the queue holds no lines.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops recorded since the last drain (for stats and tests).
    pub fn dropped(&self) -> u64 {
        self.inner.lock().expect("subscriber queue poisoned").dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn bounded_with_drop_notice() {
        let q = SubscriberQueue::new(3);
        for i in 0..10 {
            q.push(format!("line {i}"));
        }
        assert_eq!(q.len(), 3, "capacity is a hard bound");
        assert_eq!(q.dropped(), 7);
        let drained = q.drain();
        assert_eq!(drained[0], "DROPPED 7");
        assert_eq!(drained[1..], ["line 0", "line 1", "line 2"]);
        // Counter reset after the notice.
        assert_eq!(q.dropped(), 0);
        assert!(q.drain().is_empty());
    }

    #[test]
    fn drain_into_matches_drain_semantics() {
        let q = SubscriberQueue::new(3);
        for i in 0..10 {
            q.push(format!("line {i}"));
        }
        let mut buf = String::from("EVENT 1 WINDOW 0 ROWS 0\n");
        let n = q.drain_into(&mut buf);
        assert_eq!(n, 4, "DROPPED notice plus three lines");
        assert_eq!(buf, "EVENT 1 WINDOW 0 ROWS 0\nDROPPED 7\nline 0\nline 1\nline 2\n");
        assert_eq!(q.dropped(), 0, "gap counter reset exactly like drain()");
        let mut empty = String::new();
        assert_eq!(q.drain_into(&mut empty), 0);
        assert!(empty.is_empty(), "no output when nothing is queued");
    }

    #[test]
    fn drain_preserves_fifo_order() {
        let q = SubscriberQueue::new(16);
        q.push_all(["a".to_string(), "b".to_string(), "c".to_string()]);
        assert_eq!(q.drain(), ["a", "b", "c"]);
    }

    #[test]
    fn zero_capacity_clamped_to_one() {
        let q = SubscriberQueue::new(0);
        assert_eq!(q.capacity(), 1);
        assert!(q.push("x".into()));
        assert!(!q.push("y".into()));
    }

    #[test]
    fn block_is_cut_at_the_line_that_fits() {
        let q = SubscriberQueue::new(3);
        assert_eq!(q.push_block("h\nr1\nr2\nr3\nr4\n".into(), 5), 3);
        assert_eq!((q.len(), q.dropped()), (3, 2));
        assert_eq!(q.drain(), ["DROPPED 2", "h", "r1", "r2"]);
        assert_eq!((q.len(), q.dropped()), (0, 0));
    }

    #[test]
    fn block_at_a_full_queue_is_dropped_whole() {
        let q = SubscriberQueue::new(2);
        assert_eq!(q.push_block("a\nb\n".into(), 2), 2);
        assert_eq!(q.push_block("c\nd\ne\n".into(), 3), 0);
        assert_eq!((q.len(), q.dropped()), (2, 3));
        let mut buf = String::new();
        assert_eq!(q.drain_into(&mut buf), 3);
        assert_eq!(buf, "DROPPED 3\na\nb\n");
        // Drained, so the next block fits again.
        assert_eq!(q.push_block("c\nd\n".into(), 2), 2);
        assert_eq!(q.drain(), ["c", "d"]);
    }

    /// The queue before blocks: one `String` per line, one push at a time.
    struct LineModel {
        lines: VecDeque<String>,
        dropped: u64,
        capacity: usize,
    }

    impl LineModel {
        fn push(&mut self, line: String) {
            if self.lines.len() >= self.capacity {
                self.dropped += 1;
            } else {
                self.lines.push_back(line);
            }
        }

        fn drain(&mut self) -> Vec<String> {
            let mut out = Vec::new();
            if self.dropped > 0 {
                out.push(format!("DROPPED {}", self.dropped));
                self.dropped = 0;
            }
            out.extend(self.lines.drain(..));
            out
        }
    }

    proptest! {
        /// Any interleaving of the five entry points agrees, line for
        /// line and count for count, with the line-at-a-time model.
        #[test]
        fn blocks_agree_with_the_line_model(
            capacity in 1usize..12,
            ops in prop::collection::vec((0u8..5, 0usize..7), 0..40),
        ) {
            let q = SubscriberQueue::new(capacity);
            let mut model = LineModel { lines: VecDeque::new(), dropped: 0, capacity };
            let mut next = 0usize;
            let mut fresh = |n: usize| -> Vec<String> {
                (0..n).map(|_| { next += 1; format!("line {next}") }).collect()
            };
            for (op, n) in ops {
                match op {
                    0 => {
                        let line = fresh(1).remove(0);
                        let accepted = q.push(line.clone());
                        prop_assert_eq!(accepted, model.lines.len() < capacity);
                        model.push(line);
                    }
                    1 => {
                        let lines = fresh(n);
                        q.push_all(lines.clone());
                        lines.into_iter().for_each(|l| model.push(l));
                    }
                    2 => {
                        let lines = fresh(n);
                        let text: String = lines.iter().map(|l| format!("{l}\n")).collect();
                        let fit = n.min(capacity - model.lines.len());
                        prop_assert_eq!(q.push_block(text, n), fit);
                        lines.into_iter().for_each(|l| model.push(l));
                    }
                    3 => prop_assert_eq!(q.drain(), model.drain()),
                    _ => {
                        let mut buf = String::from("BEFORE\n");
                        let expect = model.drain();
                        prop_assert_eq!(q.drain_into(&mut buf), expect.len());
                        let joined: String = expect.iter().map(|l| format!("{l}\n")).collect();
                        prop_assert_eq!(buf, format!("BEFORE\n{joined}"));
                    }
                }
                prop_assert_eq!(q.len(), model.lines.len());
                prop_assert_eq!(q.dropped(), model.dropped);
            }
        }
    }
}
