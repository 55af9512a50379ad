//! Bounded per-subscriber event queues (backpressure).
//!
//! Window-close events are pushed by whichever connection thread ingested
//! the closing observation; a push signals the subscriber connection's
//! [`Wakeup`], and that connection's writer thread drains the queue and
//! writes the socket as soon as it runs. A slow (or stalled) consumer must
//! never grow server memory without bound, so the queue has a hard capacity:
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
//! A drain swaps the blocks out under the lock and copies them after
//! releasing it, so an ingesting thread never waits behind the copy.

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Instant;

/// A connection's wake-up: every queue of the connection signals it on a
/// push, the connection's writer thread blocks on it. It is a flag, not a
/// counter — pushes that arrive while a wake-up is already pending find
/// the flag set and return without touching the condvar, so a flood pays
/// for one futex wake per writer pass, not one per block.
#[derive(Debug, Default)]
pub struct Wakeup {
    state: Mutex<WakeState>,
    cond: Condvar,
}

#[derive(Debug, Default)]
struct WakeState {
    pending: bool,
    /// Idle→pending transitions so far, i.e. condvar notifications.
    signals: u64,
}

impl Wakeup {
    /// Marks the wake-up pending and, if it was idle, wakes the waiter.
    pub fn notify(&self) {
        let mut state = self.state.lock().expect("wake-up poisoned");
        if !state.pending {
            state.pending = true;
            state.signals += 1;
            self.cond.notify_one();
        }
    }

    /// Blocks until the wake-up is pending, then clears it. A `notify`
    /// that came before the call is not lost: the flag is still set.
    pub fn wait(&self) {
        let mut state = self.state.lock().expect("wake-up poisoned");
        while !state.pending {
            state = self.cond.wait(state).expect("wake-up poisoned");
        }
        state.pending = false;
    }

    /// Condvar notifications issued so far (for tests).
    pub fn signals(&self) -> u64 {
        self.state.lock().expect("wake-up poisoned").signals
    }
}

/// A bounded FIFO of protocol lines for one subscriber.
#[derive(Debug)]
pub struct SubscriberQueue {
    inner: Mutex<QueueInner>,
    capacity: usize,
    /// The owning connection's wake-up, attached once after `SUBSCRIBE`.
    wake: OnceLock<Arc<Wakeup>>,
}

#[derive(Debug, Default)]
struct QueueInner {
    /// Each block is one or more lines, every line terminated by `\n`.
    blocks: VecDeque<String>,
    /// Lines held by `blocks` in total.
    lines: usize,
    dropped: u64,
    /// When the oldest queued block was pushed (feeds
    /// `ausdb_fanout_delay_seconds`); `None` while the queue is empty.
    oldest: Option<Instant>,
}

impl QueueInner {
    fn enqueue(&mut self, block: String, lines: usize) {
        if self.blocks.is_empty() {
            self.oldest = Some(Instant::now());
        }
        self.blocks.push_back(block);
        self.lines += lines;
    }
}

impl SubscriberQueue {
    /// Creates a queue holding at most `capacity` lines (minimum 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(QueueInner::default()),
            capacity: capacity.max(1),
            wake: OnceLock::new(),
        }
    }

    /// Attaches the wake-up every later accepted push signals. The caller
    /// notifies it once afterwards, for pushes that came before the
    /// attachment. A queue belongs to one connection: a second call is
    /// ignored.
    pub fn attach_wakeup(&self, wake: Arc<Wakeup>) {
        let _ = self.wake.set(wake);
    }

    /// Signals the attached wake-up, after the queue lock is released.
    fn signal(&self) {
        if let Some(wake) = self.wake.get() {
            wake.notify();
        }
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
            return false;
        }
        inner.enqueue(line, 1);
        drop(inner);
        self.signal();
        true
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
        inner.enqueue(text, fit);
        drop(inner);
        self.signal();
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
    /// flushes it with a single write syscall. Returns the number of lines
    /// appended. The `DROPPED <n>` gap notice keeps its exact semantics:
    /// emitted first, counter reset.
    pub fn drain_into(&self, out: &mut String) -> usize {
        self.drain_stamped(out).0
    }

    /// [`SubscriberQueue::drain_into`], plus when the oldest drained block
    /// was pushed (`None` when nothing was queued or telemetry is off).
    pub(crate) fn drain_stamped(&self, out: &mut String) -> (usize, Option<Instant>) {
        let (mut blocks, mut n, dropped, oldest) = {
            let mut inner = self.inner.lock().expect("subscriber queue poisoned");
            (
                std::mem::take(&mut inner.blocks),
                std::mem::take(&mut inner.lines),
                std::mem::take(&mut inner.dropped),
                inner.oldest.take(),
            )
        };
        if dropped > 0 {
            let _ = writeln!(out, "DROPPED {dropped}");
            n += 1;
        }
        for block in blocks.drain(..) {
            out.push_str(&block);
        }
        // Hand the emptied deque back unless pushes already started a new
        // one: the next burst then finds its capacity instead of regrowing.
        let mut inner = self.inner.lock().expect("subscriber queue poisoned");
        if inner.blocks.capacity() == 0 {
            inner.blocks = blocks;
        }
        drop(inner);
        (n, oldest)
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

    /// Runs `wait` on another thread, so a lost wake-up fails the test
    /// instead of hanging it.
    fn wait_returns(wake: &Arc<Wakeup>) -> bool {
        let (tx, rx) = std::sync::mpsc::channel();
        let waiter = Arc::clone(wake);
        let handle = std::thread::spawn(move || {
            waiter.wait();
            let _ = tx.send(());
        });
        let returned = rx.recv_timeout(std::time::Duration::from_secs(5)).is_ok();
        if returned {
            handle.join().expect("waiter panicked");
        }
        returned
    }

    #[test]
    fn push_before_wait_is_not_lost_and_pending_pushes_share_one_signal() {
        let q = SubscriberQueue::new(64);
        q.push("before attach".into());
        let wake = Arc::new(Wakeup::default());
        q.attach_wakeup(Arc::clone(&wake));
        assert_eq!(wake.signals(), 0, "nothing attached when that line was pushed");
        // What the SUBSCRIBE arm does after attaching.
        wake.notify();
        for i in 0..5 {
            q.push(format!("line {i}"));
        }
        q.push_block("h\nr\n".into(), 2);
        assert_eq!(wake.signals(), 1, "pushes while pending do not notify again");
        assert!(wait_returns(&wake), "a notify before the wait must end it");
        assert_eq!(q.drain().len(), 8);

        // The wait cleared the flag: the next accepted push is a fresh
        // transition, a rejected one (queue full) is not.
        let full = SubscriberQueue::new(1);
        full.attach_wakeup(Arc::clone(&wake));
        assert!(full.push("a".into()));
        assert!(!full.push("b".into()));
        assert_eq!(wake.signals(), 2);
    }

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
