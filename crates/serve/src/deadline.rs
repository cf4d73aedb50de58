//! Wall-clock deadlines lowered onto the engine's epoch mechanism.
//!
//! The engine's preemption story (PR 6) is *cooperative and cheap*: compiled
//! code and the interpreter compare a shared epoch counter against a
//! per-instance deadline at loop back-edges and call boundaries, trapping
//! with `Interrupted` when it passes. Nothing in the engine ever advances
//! the epoch on its own — that is the embedder's job, and this module is
//! that embedder side:
//!
//! * an [`EpochTicker`] owns the background thread that bumps the shared
//!   epoch every `granularity`;
//! * a [`TimeoutList`] converts a request's wall-clock budget into an epoch
//!   deadline (`now + ceil(budget / granularity)`, minimum one tick) and,
//!   when the request retires, says how far past it the clock had run. It
//!   keeps three counters (outstanding, expired, in time) and no list:
//!   expiry needs no scanning, because an armed deadline is already an epoch
//!   number the engine compares against on its own.
//!
//! The enforcement bound follows directly: a request is interrupted no
//! earlier than its budget rounded down to a tick, and no later than one
//! granularity after its deadline passes plus the time to reach the next
//! check site. Tests assert exactly that window (with slack for scheduling).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// The background thread advancing a shared epoch counter at a fixed
/// granularity. Stops (and joins) on drop.
pub struct EpochTicker {
    epoch: Arc<AtomicU64>,
    granularity: Duration,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl EpochTicker {
    /// Starts a ticker bumping `epoch` every `granularity` (minimum 100µs —
    /// below that the ticker thread becomes a spin loop).
    pub fn start(epoch: Arc<AtomicU64>, granularity: Duration) -> EpochTicker {
        let granularity = granularity.max(Duration::from_micros(100));
        let stop = Arc::new(AtomicBool::new(false));
        let handle = {
            let epoch = Arc::clone(&epoch);
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("epoch-ticker".into())
                .spawn(move || {
                    while !stop.load(Ordering::Acquire) {
                        std::thread::sleep(granularity);
                        epoch.fetch_add(1, Ordering::SeqCst);
                    }
                })
                .expect("spawn epoch ticker")
        };
        EpochTicker {
            epoch,
            granularity,
            stop,
            handle: Some(handle),
        }
    }

    /// The tick period.
    pub fn granularity(&self) -> Duration {
        self.granularity
    }

    /// The current epoch.
    pub fn now(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }
}

impl Drop for EpochTicker {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// The wall-clock → epoch conversion for request deadlines, and the count of
/// how they ended. Lock-free: arming and retiring a deadline are a load and
/// two atomic increments on the request path.
pub struct TimeoutList {
    epoch: Arc<AtomicU64>,
    granularity: Duration,
    pending: AtomicU64,
    expired: AtomicU64,
    in_time: AtomicU64,
}

impl TimeoutList {
    /// Creates a list converting budgets at `granularity` (one epoch tick).
    pub fn new(epoch: Arc<AtomicU64>, granularity: Duration) -> TimeoutList {
        TimeoutList {
            epoch,
            granularity,
            pending: AtomicU64::new(0),
            expired: AtomicU64::new(0),
            in_time: AtomicU64::new(0),
        }
    }

    /// The number of whole ticks a budget is worth, minimum 1 (a deadline
    /// of `now` would trap before the request ran at all).
    pub fn ticks_for(&self, budget: Duration) -> u64 {
        let ticks = budget.as_nanos().div_ceil(self.granularity.as_nanos().max(1));
        (ticks as u64).max(1)
    }

    /// Starts a deadline `budget` from now and returns the absolute epoch at
    /// which the request becomes interruptible: pass it to
    /// [`Instance::set_epoch_deadline`](engine::Instance::set_epoch_deadline),
    /// then to [`TimeoutList::retire`] when the request finishes (however it
    /// finishes).
    pub fn arm(&self, budget: Duration) -> u64 {
        self.pending.fetch_add(1, Ordering::SeqCst);
        self.epoch.load(Ordering::SeqCst) + self.ticks_for(budget)
    }

    /// Retires a deadline when its request finishes, measuring *how late* an
    /// expired request came back: `Some(overshoot)` is the number of whole
    /// epochs the clock had advanced past the deadline (zero when it retired
    /// in the very tick the deadline landed on), `None` means it completed in
    /// time. Cooperative preemption bounds the overshoot by one granularity
    /// plus the time to the next check site, which the serving tests assert.
    pub fn retire(&self, deadline_epoch: u64) -> Option<u64> {
        self.pending.fetch_sub(1, Ordering::SeqCst);
        let now = self.epoch.load(Ordering::SeqCst);
        if now >= deadline_epoch {
            self.expired.fetch_add(1, Ordering::SeqCst);
            Some(now - deadline_epoch)
        } else {
            self.in_time.fetch_add(1, Ordering::SeqCst);
            None
        }
    }

    /// Deadlines currently outstanding.
    pub fn pending(&self) -> usize {
        self.pending.load(Ordering::SeqCst) as usize
    }

    /// Requests retired after their deadline passed.
    pub fn expired_count(&self) -> u64 {
        self.expired.load(Ordering::SeqCst)
    }

    /// Requests retired before their deadline.
    pub fn in_time_count(&self) -> u64 {
        self.in_time.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixed_epoch(at: u64) -> Arc<AtomicU64> {
        Arc::new(AtomicU64::new(at))
    }

    #[test]
    fn budgets_round_up_to_whole_ticks_minimum_one() {
        let list = TimeoutList::new(fixed_epoch(0), Duration::from_millis(1));
        assert_eq!(list.ticks_for(Duration::ZERO), 1);
        assert_eq!(list.ticks_for(Duration::from_micros(1)), 1);
        assert_eq!(list.ticks_for(Duration::from_millis(1)), 1);
        assert_eq!(list.ticks_for(Duration::from_micros(1001)), 2);
        assert_eq!(list.ticks_for(Duration::from_millis(25)), 25);
    }

    #[test]
    fn arm_and_retire_count() {
        let epoch = fixed_epoch(10);
        let list = TimeoutList::new(Arc::clone(&epoch), Duration::from_millis(1));
        let slow = list.arm(Duration::from_millis(50));
        let fast = list.arm(Duration::from_millis(5));
        assert_eq!((slow, fast), (60, 15));
        assert_eq!(list.pending(), 2);
        // `fast` retires before its deadline: in time.
        assert_eq!(list.retire(fast), None);
        // The clock blows past `slow`'s deadline: expired.
        epoch.store(61, Ordering::SeqCst);
        assert_eq!(list.retire(slow), Some(1));
        assert_eq!(list.pending(), 0);
        assert_eq!((list.in_time_count(), list.expired_count()), (1, 1));
    }

    #[test]
    fn retire_measures_the_overshoot_in_epochs() {
        let epoch = fixed_epoch(100);
        let list = TimeoutList::new(Arc::clone(&epoch), Duration::from_millis(1));
        let in_time = list.arm(Duration::from_millis(10)); // deadline 110
        let on_the_dot = list.arm(Duration::from_millis(10));
        let late = list.arm(Duration::from_millis(10));
        assert_eq!(list.retire(in_time), None, "before the deadline");
        epoch.store(110, Ordering::SeqCst);
        assert_eq!(list.retire(on_the_dot), Some(0), "in the deadline tick");
        epoch.store(113, Ordering::SeqCst);
        assert_eq!(list.retire(late), Some(3), "three ticks past");
        assert_eq!((list.in_time_count(), list.expired_count()), (1, 2));
    }

    #[test]
    fn ticker_advances_and_stops_on_drop() {
        let epoch = fixed_epoch(0);
        let ticker = EpochTicker::start(Arc::clone(&epoch), Duration::from_millis(1));
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while ticker.now() < 3 {
            assert!(std::time::Instant::now() < deadline, "ticker never ticked");
            std::thread::sleep(Duration::from_millis(1));
        }
        drop(ticker);
        let frozen = epoch.load(Ordering::SeqCst);
        std::thread::sleep(Duration::from_millis(10));
        assert_eq!(epoch.load(Ordering::SeqCst), frozen, "stopped on drop");
    }
}
