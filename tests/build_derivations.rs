//! Every stored cell holds the graph walked from its own paths at its
//! path level, carries the exceptions mined from those paths, and
//! survives Definition 4.4: the `build` row of the one table
//! (`common::table`), content, snapshot bytes and pruned-cell count
//! against the reference cube, and with τ set the `prune after` row.
//!
//! The scenarios are the table's: lattices over `Raw`, `Bucket(2)`,
//! `Bucket(3)`, `Bucket(4)` and `Any` on two location cuts, three merge
//! policies, exceptions on and off, τ unset or set, every or a selected
//! item plan.

use proptest::prelude::*;

mod common;
use common::scenario::Scenarios;
use common::table::Case;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn every_cell_holds_its_walked_graph(scenario in Scenarios) {
        let case = Case::new(&scenario);
        case.build()?;
        if scenario.tau.is_some() {
            case.prune_after()?;
        }
    }
}
