//! A counting global allocator, shared by `#[path]` between the test files
//! that hold code to what it allocates (`crates/optc/tests/scaling.rs`,
//! `tests/memory_backing.rs`): counts are deterministic where a wall-clock or
//! RSS gate would not be. Installing it makes it the allocator of the whole
//! test binary that includes this file.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Bytes currently allocated, the most that were allocated at once, the
/// largest single request, the sum of all requests and their number — since
/// the process started, or since [`counted`] last reset the latter four.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static LARGEST: AtomicUsize = AtomicUsize::new(0);
static TOTAL: AtomicUsize = AtomicUsize::new(0);
static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every request is passed unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are atomics and never allocate.
// `realloc` and `alloc_zeroed` keep their default bodies, which go through
// `alloc` and `dealloc` below.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` is forwarded as is.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            PEAK.fetch_max(live, Ordering::Relaxed);
            LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
            TOTAL.fetch_add(layout.size(), Ordering::Relaxed);
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `alloc` above, so from `System`, with this
        // `layout`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The counters are process-wide; the tests of one binary take turns.
pub static TURN: Mutex<()> = Mutex::new(());

/// What one [`counted`] call allocated, in bytes.
pub struct Counts {
    /// The most it held at once, over what was allocated when it started.
    pub peak: usize,
    /// Its largest single allocation.
    pub largest: usize,
    /// All its allocations added up, freed or not.
    pub total: usize,
    /// How many allocations it made (a reallocation counts as one).
    pub allocations: usize,
}

/// Runs `f` and returns its result and what it allocated.
pub fn counted<T>(f: impl FnOnce() -> T) -> (T, Counts) {
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    LARGEST.store(0, Ordering::Relaxed);
    TOTAL.store(0, Ordering::Relaxed);
    ALLOCATIONS.store(0, Ordering::Relaxed);
    let out = f();
    let counts = Counts {
        peak: PEAK.load(Ordering::Relaxed) - before,
        largest: LARGEST.load(Ordering::Relaxed),
        total: TOTAL.load(Ordering::Relaxed),
        allocations: ALLOCATIONS.load(Ordering::Relaxed),
    };
    (out, counts)
}
