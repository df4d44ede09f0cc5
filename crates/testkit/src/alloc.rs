//! A counting allocator for the suites that pin what an operation costs
//! the allocator. A suite installs it as its global allocator:
//!
//! ```text
//! #[global_allocator]
//! static ALLOCATOR: flowcube_testkit::alloc::Counting = flowcube_testkit::alloc::Counting;
//! ```
//!
//! and then asks [`allocations_in`] what a closure allocates. It counts
//! only on the calling thread, and only inside that call, so the test
//! harness's own threads do not count.
//!
//! [`peak_growth_in`] asks the other question, how much memory a closure
//! holds at once: the process-wide high-water of live heap bytes while
//! it runs, the closure's worker threads included.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};

/// The system allocator, counting the allocations of threads that ask
/// for it.
pub struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn note_allocation() {
    // `try_with`: a thread being torn down has no locals left to count in.
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        }
    });
}

/// Whether [`peak_growth_in`] is running; live bytes are tracked only
/// then.
static TRACKING: AtomicBool = AtomicBool::new(false);
/// Heap bytes live now, relative to when tracking started: frees of
/// older blocks take it below zero.
static LIVE: AtomicI64 = AtomicI64::new(0);
/// The most `LIVE` has read since tracking started.
static PEAK: AtomicI64 = AtomicI64::new(0);

fn note_live(delta: i64) {
    if TRACKING.load(Ordering::Relaxed) {
        let now = LIVE.fetch_add(delta, Ordering::Relaxed) + delta;
        PEAK.fetch_max(now, Ordering::Relaxed);
    }
}

// SAFETY: every call goes straight to `System`; counting touches only
// const-initialised thread locals and static atomics, which allocate
// nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            note_live(layout.size() as i64);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            note_live(layout.size() as i64);
        }
        ptr
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        let moved = System.realloc(ptr, layout, new_size);
        if !moved.is_null() {
            note_live(new_size as i64 - layout.size() as i64);
        }
        moved
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note_live(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }
}

/// Allocations `f` makes on this thread. Reads 0 unless [`Counting`] is
/// the global allocator.
pub fn allocations_in(f: impl FnOnce()) -> u64 {
    ALLOCATIONS.with(|n| n.set(0));
    COUNTING.with(|on| on.set(true));
    f();
    COUNTING.with(|on| on.set(false));
    ALLOCATIONS.with(Cell::get)
}

/// The most heap, across all threads, that was live above its level at
/// the call's start while `f` ran, in bytes. Reads 0 unless [`Counting`]
/// is the global allocator. The measure is process-wide, so calls must
/// not overlap, and other threads allocating meanwhile count too.
pub fn peak_growth_in(f: impl FnOnce()) -> u64 {
    LIVE.store(0, Ordering::Relaxed);
    PEAK.store(0, Ordering::Relaxed);
    TRACKING.store(true, Ordering::SeqCst);
    f();
    TRACKING.store(false, Ordering::SeqCst);
    PEAK.load(Ordering::Relaxed).max(0) as u64
}
