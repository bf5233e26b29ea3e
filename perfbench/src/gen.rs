//! The open-loop load generator: one thread sending on a fixed schedule.
//!
//! Command `k` is due at `start + k / rate`. The generator never waits
//! for a reply: when it falls behind (it was descheduled, or a send
//! blocked) it sends everything already due at once, and every latency is
//! measured from the command's *intended* send time, so a stall is
//! charged to each request that was due during it rather than omitted
//! (coordinated omission). How late each send actually went out is kept
//! and reported.

use std::time::{Duration, Instant};

/// When each command was due and how late it went out.
#[derive(Debug, Clone)]
pub struct Sent {
    /// Intended send instant of each command, in the caller's timeline.
    pub due: Vec<u64>,
    /// Actual send minus intended send, nanoseconds.
    pub late_ns: Vec<u64>,
    /// Total time spent inside `send`, nanoseconds.
    pub send_ns: u64,
}

/// Sends `n` commands at `rate` per second from the calling thread,
/// calling `send(k)` for each in order. `now` maps an instant onto the caller's timeline (the one
/// completions are stamped in). `between` runs whenever the generator
/// is about to sleep, for cheap periodic sampling.
pub fn open_loop(
    n: usize,
    rate: f64,
    now: impl Fn(Instant) -> u64,
    mut send: impl FnMut(usize),
    mut between: impl FnMut(),
) -> Sent {
    crate::sys::tight_timer_slack();
    let period = 1e9 / rate;
    let start = Instant::now();
    let due_at = |k: usize| start + Duration::from_nanos((k as f64 * period) as u64);
    let mut out = Sent {
        due: Vec::with_capacity(n),
        late_ns: Vec::with_capacity(n),
        send_ns: 0,
    };
    let mut k = 0;
    while k < n {
        let due = due_at(k);
        let t = Instant::now();
        if due > t {
            between();
            let t = Instant::now();
            if due > t {
                std::thread::sleep(due - t);
            }
            continue;
        }
        let before = Instant::now();
        send(k);
        out.send_ns += before.elapsed().as_nanos() as u64;
        out.due.push(now(due));
        out.late_ns
            .push(before.saturating_duration_since(due).as_nanos() as u64);
        k += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A sink that completes every command the instant it is sent but
    /// stalls for `STALL` inside one send: the commands due during the
    /// stall must carry it in their latency, and the generator must
    /// report itself late.
    #[test]
    fn a_stall_is_charged_to_every_request_due_during_it() {
        const STALL: Duration = Duration::from_millis(60);
        let (rate, n, stall_at) = (10_000.0, 2_000, 500);
        let epoch = Instant::now();
        let ts = |t: Instant| t.duration_since(epoch).as_nanos() as u64;
        let mut done = vec![0u64; n];
        let sent = open_loop(
            n,
            rate,
            ts,
            |k| {
                if k == stall_at {
                    std::thread::sleep(STALL);
                }
                done[k] = ts(Instant::now());
            },
            || {},
        );
        let lat_ms = |k: usize| (done[k] - sent.due[k]) as f64 / 1e6;
        // The stalled command and the next one due (0.1 ms later) both
        // waited out (nearly) the whole stall.
        assert!(lat_ms(stall_at) >= 59.0, "{}", lat_ms(stall_at));
        assert!(lat_ms(stall_at + 1) >= 55.0, "{}", lat_ms(stall_at + 1));
        // A command due halfway through the stall carries the remaining
        // half; the schedule, not the sink, sets its start.
        let mid = stall_at + 300;
        assert!(lat_ms(mid) >= 25.0, "{}", lat_ms(mid));
        // Every command due during the stall was sent late, and the
        // lateness is reported.
        let max_late = *sent.late_ns.iter().max().unwrap() as f64 / 1e6;
        assert!(max_late >= 55.0, "max lateness {max_late} ms");
        assert!(sent.late_ns[stall_at + 1..stall_at + 550]
            .iter()
            .all(|&l| l > 1_000_000));
        // Well after the stall the generator has caught up again.
        assert!(lat_ms(n - 1) < 20.0, "{}", lat_ms(n - 1));
    }
}
