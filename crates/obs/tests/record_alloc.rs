//! Recording into a series that already exists allocates nothing: the
//! registry looks a name up before it copies it. A served request makes
//! about a dozen of these calls, so a copy of the name per call would be
//! a dozen allocations per request.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting the allocations of threads that ask
/// for it — only this test's, not the harness's.
struct Counting;

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

// SAFETY: every call goes straight to `System`; counting touches only
// const-initialised thread locals, which allocate nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations_in(f: impl FnOnce()) -> u64 {
    ALLOCATIONS.with(|n| n.set(0));
    COUNTING.with(|on| on.set(true));
    f();
    COUNTING.with(|on| on.set(false));
    ALLOCATIONS.with(Cell::get)
}

#[test]
fn recording_into_existing_series_allocates_nothing() {
    flowcube_obs::enable();
    let (counter, gauge, histogram) = ("alloc.counter", "alloc.gauge", "alloc.histogram");
    flowcube_obs::counter_add(counter, 1);
    flowcube_obs::gauge_set(gauge, 1.0);
    flowcube_obs::histogram_record(histogram, 1.0);

    let made = allocations_in(|| {
        for i in 0..1_000u64 {
            flowcube_obs::counter_add(counter, 1);
            flowcube_obs::gauge_set(gauge, i as f64);
            flowcube_obs::histogram_record(histogram, i as f64);
        }
    });
    assert_eq!(made, 0, "1 000 records into existing series allocated");

    // A first record still creates its series.
    assert!(allocations_in(|| flowcube_obs::counter_add("alloc.fresh", 1)) > 0);
    let snapshot = flowcube_obs::snapshot();
    assert_eq!(snapshot.counters[counter], 1_001);
    assert_eq!(snapshot.counters["alloc.fresh"], 1);
    assert_eq!(snapshot.gauges[gauge], 999.0);
    assert_eq!(snapshot.histograms[histogram].count, 1_001);
}
