//! One table: every pipeline that builds a flowcube answers what the
//! paper's definitions answer.
//!
//! The table and its rows are `flowcube_fixtures::table`; this suite runs every row
//! on generated scenarios and on the paper's Table 1. The suites that own
//! one contract (`build_derivations`, `sharded_differential`,
//! `incremental_differential`) call their rows.

use proptest::prelude::*;

use flowcube_fixtures::scenario::{Scenario, Scenarios};
use flowcube_fixtures::table::run_table;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_pipeline_matches_the_reference(scenario in Scenarios) {
        run_table(&scenario)?;
    }
}

/// The paper's Table 1: at δ = 1 over 97 shards of its 8 paths, most
/// of them empty, and at δ = 2 over 3.
#[test]
fn paper_table1_matches_the_reference() {
    for (min_support, shards) in [(1, 97), (2, 3)] {
        run_table(&Scenario::paper_table1(min_support, shards)).unwrap_or_else(|e| panic!("{e}"));
    }
}
