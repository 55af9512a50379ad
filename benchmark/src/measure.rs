//! Turning the load generator's raw records into numbers.

use crate::load::FrameRec;

/// Linear-interpolated percentile (`p` in 0..=1) of unsorted `values`;
/// `NaN` when there are none.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p * (sorted.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Frames whose due time lies in the timed part.
pub fn timed(frames: &[FrameRec], warmup_s: f64) -> &[FrameRec] {
    &frames[frames.partition_point(|f| f.due < warmup_s)..]
}

/// Acked rows per second over consecutive slices of at least one second,
/// each delimited by ack times so its duration is exact.
pub fn slice_rates(frames: &[FrameRec], warmup_s: f64, frame_rows: usize) -> Vec<f64> {
    let frames = timed(frames, warmup_s);
    let mut rates = Vec::new();
    let Some(first) = frames.first() else { return rates };
    let (mut start, mut count) = (first.acked, 0u64);
    for f in &frames[1..] {
        count += 1;
        if f.acked - start >= 1.0 {
            rates.push((count * frame_rows as u64) as f64 / (f.acked - start));
            (start, count) = (f.acked, 0);
        }
    }
    rates
}

/// Ack latency in ms of every timed frame: from when it was due (open
/// loop) or sent (closed loop) to its ack.
pub fn ack_ms(frames: &[FrameRec], warmup_s: f64) -> Vec<f64> {
    timed(frames, warmup_s).iter().map(|f| (f.acked - f.due) * 1e3).collect()
}

/// Notice latency in ms for one subscription: its `k`-th event belongs to
/// the `k`-th window the acks reported closed, and is timed from the due
/// time of the frame whose row closed that window. Returns the latencies of
/// windows closed by timed frames, and how many of those never arrived.
pub fn notice_ms(frames: &[FrameRec], arrivals: &[f64], warmup_s: f64) -> (Vec<f64>, u64) {
    let (mut latencies, mut missing, mut k) = (Vec::new(), 0u64, 0usize);
    for f in frames {
        for _ in 0..f.windows {
            if f.due >= warmup_s {
                match arrivals.get(k) {
                    Some(at) => latencies.push((at - f.due) * 1e3),
                    None => missing += 1,
                }
            }
            k += 1;
        }
    }
    (latencies, missing)
}
