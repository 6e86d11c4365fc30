//! Open-loop load generation on a fixed schedule.
//!
//! Request `i` is *due* at `start + i · interval`, whether or not earlier
//! requests have finished. The generator sleeps until the next due time,
//! then sends every request that is due — a generator that fell behind
//! (a stall, an oversleep, a blocked submit) sends the overdue ones back to
//! back. Each request carries its due time, and consumers measure latency
//! from that due time, never from the moment it was sent: a stall therefore
//! shows up in the latency of every request it delayed. How late the
//! generator itself ran (`send − due`) is recorded separately.

use std::time::{Duration, Instant};

/// Time source of the generator; a fake one drives the self-tests.
pub trait Clock {
    /// Nanoseconds since the clock's origin.
    fn now_ns(&self) -> u64;
    /// Blocks until [`Clock::now_ns`] reaches at least `ns` (may overshoot).
    fn sleep_until(&self, ns: u64);
}

/// Wall clock counted from a fixed origin.
#[derive(Clone, Copy, Debug)]
pub struct RealClock {
    origin: Instant,
}

impl RealClock {
    /// A clock whose zero is `origin`.
    pub fn new(origin: Instant) -> Self {
        RealClock { origin }
    }
}

impl Clock for RealClock {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn sleep_until(&self, ns: u64) {
        let now = self.now_ns();
        if ns > now {
            std::thread::sleep(Duration::from_nanos(ns - now));
        }
    }
}

/// A fixed-rate schedule of `count` requests.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Schedule {
    /// Due time of request 0, clock ns.
    pub start_ns: u64,
    /// Gap between consecutive due times, ns.
    pub interval_ns: f64,
    /// Requests in the schedule.
    pub count: usize,
}

impl Schedule {
    /// `rate` requests per second for `seconds`, starting at `start_ns`.
    pub fn at_rate(start_ns: u64, rate: f64, seconds: f64) -> Self {
        Schedule {
            start_ns,
            interval_ns: 1e9 / rate,
            count: (rate * seconds).round().max(1.0) as usize,
        }
    }

    /// Due time of request `i`.
    pub fn due(&self, i: usize) -> u64 {
        self.start_ns + (i as f64 * self.interval_ns) as u64
    }
}

/// Drives `send(i, due_ns)` through `schedule` and returns the generator's
/// lateness (`send time − due time`, ns) for every request. `send` returns
/// `false` to stop early.
pub fn generate<C: Clock>(
    clock: &C,
    schedule: &Schedule,
    mut send: impl FnMut(usize, u64) -> bool,
) -> Vec<u64> {
    let mut lateness = Vec::with_capacity(schedule.count);
    for i in 0..schedule.count {
        let due = schedule.due(i);
        let mut now = clock.now_ns();
        if now < due {
            clock.sleep_until(due);
            now = clock.now_ns();
        }
        lateness.push(now.saturating_sub(due));
        if !send(i, due) {
            break;
        }
    }
    lateness
}

/// Latency of one request, from its due time to `done_ns`.
#[inline]
pub fn latency_ns(due_ns: u64, done_ns: u64) -> u64 {
    done_ns.saturating_sub(due_ns)
}
