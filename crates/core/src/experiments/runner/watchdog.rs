//! The hung-cell watchdog: flags cells whose wall time blows past a
//! budget derived from the sweep's own running latency histogram.
//!
//! The budget for attempt `a` is `max(p99 × multiplier, floor) × 2^(a-1)`
//! (capped): attempt-indexed deterministic backoff, never clock-seeded.
//! An over-budget cell gets its cancel token set and is journaled
//! `stalled`; cancellation is cooperative — simulation code never polls
//! wall-clock, so only cooperative points (the `fault` feature's
//! injected hangs, and any future runner-level yield points) observe the
//! token and unwind with [`STALL_PANIC_PREFIX`]. The runner retries a
//! stalled cell up to `max_stall_retries` times, then records a
//! [`FailedCell`](super::FailedCell). A cell wedged in a loop with no
//! cooperative point cannot be killed in-process; it stays flagged in
//! telemetry and, in a multi-process drain, its lease goes stale so
//! another process can reclaim it.
//!
//! Everything here is wall-clock-side reporting machinery (the lint
//! timing allowlist covers `runner/`); no simulated state depends on it.

use super::lock_recovering;
use crate::obs::Hist;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Panic-message prefix of a cooperative stall unwind; the runner
/// classifies these as watchdog stalls (retried on the stall budget)
/// rather than ordinary cell panics.
pub const STALL_PANIC_PREFIX: &str = "stalled by watchdog";

/// Is this captured panic message a cooperative stall unwind?
pub(crate) fn is_stall_panic(message: &str) -> bool {
    message.starts_with(STALL_PANIC_PREFIX)
}

/// Watchdog policy knobs.
#[derive(Debug, Clone)]
pub struct WatchdogConfig {
    /// Budget = p99 of completed cells × this.
    pub multiplier: f64,
    /// Budget floor in milliseconds (also the budget while the
    /// histogram is empty).
    pub floor_ms: u64,
    /// Monitor poll interval in milliseconds.
    pub poll_ms: u64,
    /// Stalled attempts tolerated before the cell is recorded failed.
    pub max_stall_retries: u32,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig {
            multiplier: 8.0,
            floor_ms: 30_000,
            poll_ms: 50,
            max_stall_retries: 1,
        }
    }
}

/// One attempt currently executing on a worker.
#[derive(Debug)]
struct InFlight {
    fp: u64,
    attempt: u32,
    started: Instant,
    cancel: Arc<AtomicBool>,
    flagged: bool,
}

/// The watchdog: a registry of in-flight attempts plus the completed-
/// cell latency histogram its budgets derive from.
#[derive(Debug)]
pub struct Watchdog {
    cfg: WatchdogConfig,
    /// Completed-attempt wall millis (successes only, so hangs cannot
    /// inflate their own budget).
    hist: Mutex<Hist>,
    inflight: Mutex<Vec<InFlight>>,
    stalled: AtomicU64,
}

impl Watchdog {
    /// A watchdog with the given policy.
    pub fn new(cfg: WatchdogConfig) -> Self {
        Watchdog {
            cfg,
            hist: Mutex::new(Hist::new()),
            inflight: Mutex::new(Vec::new()),
            stalled: AtomicU64::new(0),
        }
    }

    /// The policy in force.
    pub fn config(&self) -> &WatchdogConfig {
        &self.cfg
    }

    /// Cells flagged stalled so far (telemetry).
    pub fn stalled_total(&self) -> u64 {
        self.stalled.load(Ordering::Relaxed)
    }

    /// The current per-attempt budget in milliseconds: p99 of completed
    /// attempts × multiplier (floored), doubled per retry (bounded
    /// deterministic backoff — indexed by attempt, not by any clock).
    pub fn budget_ms(&self, attempt: u32) -> u64 {
        let p99 = lock_recovering(&self.hist).quantile(0.99);
        let base = ((p99 as f64 * self.cfg.multiplier) as u64).max(self.cfg.floor_ms);
        base.saturating_mul(1u64 << attempt.saturating_sub(1).min(3))
    }

    /// Register an attempt; the returned token is set when the attempt
    /// goes over budget.
    pub(crate) fn register(&self, fp: u64, attempt: u32) -> Arc<AtomicBool> {
        let cancel = Arc::new(AtomicBool::new(false));
        let entry = InFlight {
            fp,
            attempt,
            started: Instant::now(),
            cancel: Arc::clone(&cancel),
            flagged: false,
        };
        lock_recovering(&self.inflight).push(entry);
        cancel
    }

    /// Unregister an attempt; successful attempts feed the histogram.
    pub(crate) fn complete(&self, fp: u64, attempt: u32, success: bool) {
        let mut inflight = lock_recovering(&self.inflight);
        if let Some(ix) = inflight
            .iter()
            .position(|f| f.fp == fp && f.attempt == attempt)
        {
            let entry = inflight.swap_remove(ix);
            if success {
                let ms = (entry.started.elapsed().as_millis() as u64).max(1);
                lock_recovering(&self.hist).record(ms);
            }
        }
    }

    /// One monitor sweep: flag every over-budget attempt (once), set its
    /// cancel token, and hand it to `on_stall(fp, attempt)` for
    /// journaling.
    pub(crate) fn poll(&self, mut on_stall: impl FnMut(u64, u32)) {
        let mut stalls = Vec::new();
        {
            let mut inflight = lock_recovering(&self.inflight);
            for entry in inflight.iter_mut() {
                if entry.flagged {
                    continue;
                }
                let elapsed_ms = entry.started.elapsed().as_millis() as u64;
                if elapsed_ms > self.budget_ms(entry.attempt) {
                    entry.flagged = true;
                    entry.cancel.store(true, Ordering::SeqCst);
                    stalls.push((entry.fp, entry.attempt));
                }
            }
        }
        for (fp, attempt) in stalls {
            self.stalled.fetch_add(1, Ordering::Relaxed);
            on_stall(fp, attempt);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_backoff_is_attempt_indexed_and_bounded() {
        let wd = Watchdog::new(WatchdogConfig {
            multiplier: 2.0,
            floor_ms: 100,
            poll_ms: 1,
            max_stall_retries: 1,
        });
        // Empty histogram: the floor applies, doubled per attempt,
        // capped at 8x.
        assert_eq!(wd.budget_ms(1), 100);
        assert_eq!(wd.budget_ms(2), 200);
        assert_eq!(wd.budget_ms(4), 800);
        assert_eq!(wd.budget_ms(40), 800, "backoff is bounded");
        // Completed cells raise the budget through the p99 (the slow
        // tail must hold more than 1% of samples to move it).
        for _ in 0..50 {
            let t = wd.register(7, 1);
            wd.complete(7, 1, true);
            assert!(!t.load(Ordering::SeqCst));
        }
        for _ in 0..10 {
            lock_recovering(&wd.hist).record(400);
        }
        assert!(wd.budget_ms(1) >= 400, "p99 x multiplier grows the budget");
    }

    #[test]
    fn poll_flags_over_budget_attempts_once() {
        let wd = Watchdog::new(WatchdogConfig {
            multiplier: 1.0,
            floor_ms: 0,
            poll_ms: 1,
            max_stall_retries: 1,
        });
        let token = wd.register(9, 1);
        std::thread::sleep(std::time::Duration::from_millis(5));
        let mut stalls = Vec::new();
        wd.poll(|fp, attempt| stalls.push((fp, attempt)));
        wd.poll(|fp, attempt| stalls.push((fp, attempt)));
        assert_eq!(stalls, vec![(9, 1)], "flagged exactly once");
        assert!(token.load(Ordering::SeqCst), "cancel token set");
        assert_eq!(wd.stalled_total(), 1);
        // Failed attempts never feed the histogram.
        wd.complete(9, 1, false);
        assert_eq!(lock_recovering(&wd.hist).count(), 0);
    }
}
