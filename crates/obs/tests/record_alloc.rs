//! Recording into a series that already exists allocates nothing: the
//! registry looks a name up before it copies it. A served request makes
//! about a dozen of these calls, so a copy of the name per call would be
//! a dozen allocations per request.

use flowcube_testkit::alloc::{allocations_in, Counting};

#[global_allocator]
static ALLOCATOR: Counting = Counting;

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
