//! Reproduce the paper's worked examples: Table 1 (path database),
//! Table 2 (aggregated cells), Table 3 (transformed transaction
//! database), Table 4 (frequent itemsets), and the Figure 3 / Figure 4
//! flowgraphs.
//!
//! ```sh
//! cargo run --example paper_tables
//! ```

use flowcube::hier::{ItemLevel, PathLatticeSpec};
use flowcube::mining::{mine_shared, TransactionDb};
use flowcube::pathdb::{samples, MergePolicy};
use flowcube_mining::buc_iceberg;

fn main() {
    let db = samples::paper_table1();
    let schema = db.schema();

    println!("== Table 1: path database ==");
    for r in db.records() {
        println!("  {:>2}  {}", r.id, db.display_record(r));
    }

    println!("\n== Table 2: product aggregated one level up (iceberg δ=2) ==");
    let type_brand = [ItemLevel(vec![2, 2])];
    let (cells, _) = buc_iceberg(&db, 2, Some(&type_brand), |_| 1);
    for cell in &cells {
        let names: Vec<&str> = cell
            .values
            .iter()
            .enumerate()
            .map(|(d, v)| v.map_or("*", |c| schema.dim(d as u8).name_of(c)))
            .collect();
        let ids: Vec<String> = cell.tids.iter().map(|t| (t + 1).to_string()).collect();
        println!("  ({}) -> paths {}", names.join(", "), ids.join(","));
    }

    println!("\n== Table 3: transformed transaction database (base path level) ==");
    let spec = PathLatticeSpec::paper(schema.locations(), 1);
    let tx = TransactionDb::encode(&db, spec, MergePolicy::Sum);
    for i in 0..tx.len() {
        println!("  {:>2}  {}", tx.record_id(i), tx.display_transaction(i));
    }

    println!("\n== Table 4: frequent itemsets (δ = 3), lengths 1 and 2 ==");
    let spec4 = PathLatticeSpec::paper(schema.locations(), 4);
    let tx4 = TransactionDb::encode(&db, spec4, MergePolicy::Sum);
    let out = mine_shared(&tx4, 3);
    for k in [1usize, 2] {
        println!("  -- length {k} --");
        let mut rows: Vec<(String, u64)> = out
            .by_length(k)
            .map(|(s, c)| {
                let parts: Vec<String> = s
                    .iter()
                    .map(|&i| tx4.dict().display(i, tx4.ctx()))
                    .collect();
                (format!("{{{}}}", parts.join(",")), *c)
            })
            .collect();
        rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        for (set, support) in rows.iter().take(12) {
            println!("  {set:<28} : {support}");
        }
        if rows.len() > 12 {
            println!("  … {} more", rows.len() - 12);
        }
    }
}
