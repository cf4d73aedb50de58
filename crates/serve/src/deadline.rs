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
//!   deadline (`now + ceil(budget / granularity)`, minimum one tick,
//!   saturating at `u64::MAX` so a huge budget never expires) and, when the
//!   request retires, says how far past it the clock had run. It keeps no
//!   list and no counters: expiry needs no scanning, because an armed
//!   deadline is already an epoch number the engine compares against on its
//!   own.
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

/// The wall-clock → epoch conversion for request deadlines. Lock-free and
/// stateless beyond the shared epoch: arming and retiring a deadline are one
/// load each on the request path. How each request ended is on its
/// [`RequestResult`](crate::RequestResult), not here.
pub struct TimeoutList {
    epoch: Arc<AtomicU64>,
    granularity: Duration,
}

impl TimeoutList {
    /// Creates a list converting budgets at `granularity` (one epoch tick).
    pub fn new(epoch: Arc<AtomicU64>, granularity: Duration) -> TimeoutList {
        TimeoutList { epoch, granularity }
    }

    /// The number of whole ticks a budget is worth, minimum 1 (a deadline
    /// of `now` would trap before the request ran at all), and at most
    /// `u64::MAX`: a budget too long to count in ticks never expires.
    pub(crate) fn ticks_for(&self, budget: Duration) -> u64 {
        let ticks = budget.as_nanos().div_ceil(self.granularity.as_nanos().max(1));
        u64::try_from(ticks).unwrap_or(u64::MAX).max(1)
    }

    /// Starts a deadline `budget` from now and returns the absolute epoch at
    /// which the request becomes interruptible: pass it to
    /// [`Instance::set_epoch_deadline`](engine::Instance::set_epoch_deadline),
    /// then to [`TimeoutList::retire`] when the request finishes (however it
    /// finishes). Saturates at `u64::MAX`, an epoch the ticker never reaches.
    pub fn arm(&self, budget: Duration) -> u64 {
        self.epoch.load(Ordering::SeqCst).saturating_add(self.ticks_for(budget))
    }

    /// Retires a deadline when its request finishes, measuring *how late* an
    /// expired request came back: `Some(overshoot)` is the number of whole
    /// epochs the clock had advanced past the deadline (zero when it retired
    /// in the very tick the deadline landed on), `None` means it completed in
    /// time. Cooperative preemption bounds the overshoot by one granularity
    /// plus the time to the next check site, which the serving tests assert.
    pub fn retire(&self, deadline_epoch: u64) -> Option<u64> {
        self.epoch.load(Ordering::SeqCst).checked_sub(deadline_epoch)
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
    fn budgets_too_long_to_count_saturate_instead_of_wrapping() {
        let list = TimeoutList::new(fixed_epoch(0), Duration::from_millis(1));
        // Both are more ticks than a `u64` counts.
        assert_eq!(list.ticks_for(Duration::MAX), u64::MAX);
        assert_eq!(list.ticks_for(Duration::from_secs(u64::MAX)), u64::MAX);
        // A tick count that fits, but not once added to a clock that has
        // run 5000 ticks.
        let long = Duration::from_millis(u64::MAX - 999);
        assert_eq!(list.ticks_for(long), u64::MAX - 999);
        let list = TimeoutList::new(fixed_epoch(5_000), Duration::from_millis(1));
        assert_eq!(list.arm(long), u64::MAX);
        assert_eq!(list.arm(Duration::MAX), u64::MAX);
        assert_eq!(list.retire(u64::MAX), None, "an unbounded deadline is never late");
    }

    #[test]
    fn arm_and_retire() {
        let epoch = fixed_epoch(10);
        let list = TimeoutList::new(Arc::clone(&epoch), Duration::from_millis(1));
        let slow = list.arm(Duration::from_millis(50));
        let fast = list.arm(Duration::from_millis(5));
        assert_eq!((slow, fast), (60, 15));
        // `fast` retires before its deadline: in time.
        assert_eq!(list.retire(fast), None);
        // The clock blows past `slow`'s deadline: expired.
        epoch.store(61, Ordering::SeqCst);
        assert_eq!(list.retire(slow), Some(1));
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
