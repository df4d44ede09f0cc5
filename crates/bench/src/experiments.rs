//! Dataset presets matching §6.1, and each figure's sweep: the one
//! definition of its series that both its `exp_fig*` binary and `exp_all`
//! run. A sweep prints its table as it goes and returns the rows.

use crate::runner::{print_header, print_row, run_all, run_all_on, RunResult};
use flowcube_datagen::{generate, DimShape, GeneratorConfig};
use flowcube_mining::{mine, MiningStats, SharedConfig, TransactionDb};
use flowcube_pathdb::PathDatabase;

/// Global size multiplier. The paper ran 100k–1M paths on a 2.4 GHz
/// Pentium IV; the default scale of 0.1 keeps every figure reproducible
/// in minutes while preserving all relative shapes (support thresholds
/// are percentages, so pruning behavior is scale-invariant).
#[derive(Copy, Clone, Debug)]
pub struct ExperimentScale(pub f64);

impl Default for ExperimentScale {
    fn default() -> Self {
        ExperimentScale(0.1)
    }
}

impl ExperimentScale {
    /// Parse from argv: `--scale 0.5` or a bare positional `0.5`. On a
    /// bad value, print usage and exit 2.
    pub fn from_args() -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        Self::parse(&args).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            eprintln!("usage: [--scale <fraction>] or [<fraction>] (default 0.1)");
            std::process::exit(2)
        })
    }

    /// Parse the arguments after the program name. A scale is a finite
    /// fraction above zero, given as `--scale <v>` or as a bare `<v>`;
    /// any other `--flag` takes one value and is left to the binary.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let mut scale = ExperimentScale::default();
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            let value = match arg.as_str() {
                "--scale" => args.next().ok_or("--scale needs a value")?,
                flag if flag.starts_with("--") => {
                    args.next();
                    continue;
                }
                bare => bare,
            };
            scale = match value.parse::<f64>() {
                Ok(v) if v.is_finite() && v > 0.0 => ExperimentScale(v),
                _ => return Err(format!("bad scale {value:?}")),
            };
        }
        Ok(scale)
    }

    pub fn apply(&self, paper_n: usize) -> usize {
        ((paper_n as f64 * self.0) as usize).max(100)
    }
}

/// The §6.1 default dataset at the paper's N = 100k, scaled: the one
/// Figure 7 sweeps supports over and Figure 11 mines.
pub fn paper_db(scale: ExperimentScale) -> PathDatabase {
    generate(&GeneratorConfig {
        num_paths: scale.apply(100_000),
        ..Default::default()
    })
    .db
}

fn printed(r: RunResult) -> RunResult {
    print_row(&r);
    r
}

/// Run a sweep at δ = 1%: one `(label, dataset, run Basic?)` per point,
/// each row printed under `title` as it finishes.
fn sweep(
    title: &str,
    points: impl IntoIterator<Item = (String, GeneratorConfig, bool)>,
) -> Vec<RunResult> {
    print_header(title);
    (points.into_iter())
        .map(|(label, config, run_basic)| printed(run_all(&label, &config, 0.01, run_basic)))
        .collect()
}

/// Figure 6 — runtime vs. database size (paper: 100k–1M paths, δ = 1%,
/// d = 5). Basic runs at the two smallest sizes only: in the paper its
/// candidate set outgrew memory beyond them.
pub fn fig6(scale: ExperimentScale) -> Vec<RunResult> {
    let sizes = [100_000, 200_000, 400_000, 600_000, 800_000, 1_000_000].map(|n| scale.apply(n));
    let points = (sizes.into_iter().enumerate()).map(|(i, n)| {
        let config = GeneratorConfig {
            num_paths: n,
            ..Default::default()
        };
        (format!("N={n}"), config, i < 2)
    });
    let title = format!(
        "Figure 6: database size sweep (scale {}, δ = 1%, d = 5)",
        scale.0
    );
    sweep(&title, points)
}

/// Figure 7 — runtime vs. minimum support (paper: 0.3%–2% over
/// [`paper_db`]), every algorithm at every support.
pub fn fig7(db: &PathDatabase) -> Vec<RunResult> {
    print_header(&format!(
        "Figure 7: minimum support sweep (N = {}, d = 5)",
        db.len()
    ));
    [0.003, 0.005, 0.008, 0.011, 0.014, 0.017, 0.020]
        .iter()
        .map(|&pct| printed(run_all_on(&format!("δ={:.1}%", pct * 100.0), db, pct, true)))
        .collect()
}

/// Figure 8 — runtime vs. number of path-independent dimensions (paper:
/// 2–10 dims, N = 100k, δ = 1%), every algorithm. The data is "quite
/// sparse to prevent the number of frequent cells to explode": the
/// dataset-c density with stronger skew dilution.
pub fn fig8(scale: ExperimentScale) -> Vec<RunResult> {
    let n = scale.apply(100_000);
    let points = [2, 4, 6, 8, 10].map(|dims| {
        let config = GeneratorConfig {
            num_paths: n,
            dims: vec![DimShape::new(vec![5, 5, 10], 0.4); dims],
            ..Default::default()
        };
        (format!("d={dims}"), config, true)
    });
    sweep(
        &format!("Figure 8: dimensionality sweep (N = {n}, δ = 1%, sparse)"),
        points,
    )
}

/// Figure 9's item-density datasets a, b, c: distinct values per level.
pub const FIG9_DATASETS: [(char, [usize; 3]); 3] =
    [('a', [2, 2, 5]), ('b', [4, 4, 6]), ('c', [5, 5, 10])];

/// Figure 9 — runtime vs. item density over [`FIG9_DATASETS`] (N = 100k,
/// δ = 1%, d = 5). Basic skips dataset *a*, as in the paper (candidate
/// explosion).
pub fn fig9(scale: ExperimentScale) -> Vec<RunResult> {
    let n = scale.apply(100_000);
    let points = FIG9_DATASETS.map(|(variant, fanout)| {
        let config = GeneratorConfig {
            num_paths: n,
            dims: vec![DimShape::new(fanout.to_vec(), 0.8); 5],
            ..Default::default()
        };
        (format!("dataset {variant}"), config, variant != 'a')
    });
    sweep(
        &format!("Figure 9: item density (N = {n}, δ = 1%, d = 5)"),
        points,
    )
}

/// Figure 10 — runtime vs. path density, the number of distinct
/// location sequences (N = 100k, δ = 1%, d = 5). Basic never runs: it
/// cannot finish on dense paths, as in the paper.
pub fn fig10(scale: ExperimentScale) -> Vec<RunResult> {
    let n = scale.apply(100_000);
    let points = [10, 25, 50, 100, 150].map(|seqs| {
        let config = GeneratorConfig {
            num_paths: n,
            num_sequences: seqs,
            ..Default::default()
        };
        (format!("seqs={seqs}"), config, false)
    });
    sweep(
        &format!("Figure 10: path density (N = {n}, δ = 1%, d = 5)"),
        points,
    )
}

/// Figure 11's support: 1% of `n` transactions, rounded up.
pub fn fig11_support(n: usize) -> u64 {
    ((n as f64) * 0.01).ceil() as u64
}

/// Figure 11 — pruning power: candidates counted per pattern length,
/// Basic vs. Shared, on `tx` (the encoded [`paper_db`]) at
/// [`fig11_support`]. Prints the table; returns `(shared, basic)`.
pub fn fig11_pruning(tx: &TransactionDb) -> (MiningStats, MiningStats) {
    let n = tx.len();
    let delta = fig11_support(n);
    println!("== Figure 11: pruning power (N = {n}, δ = 1%) ==");
    let shared = mine(tx, &SharedConfig::shared(delta)).stats;
    let basic = mine(tx, &SharedConfig::basic(delta)).stats;
    println!("{:<16} {:>14} {:>14}", "length", "basic", "shared");
    let max = shared
        .counted_by_length
        .len()
        .max(basic.counted_by_length.len());
    for k in 0..max {
        let b = basic.counted_by_length.get(k).copied().unwrap_or(0);
        let s = shared.counted_by_length.get(k).copied().unwrap_or(0);
        println!("{:<16} {:>14} {:>14}", k + 1, b, s);
    }
    println!(
        "total            {:>14} {:>14}",
        basic.total_counted(),
        shared.total_counted()
    );
    println!(
        "max length       {:>14} {:>14}",
        basic.max_length(),
        shared.max_length()
    );
    println!(
        "shared prunes: ancestor={} unlinkable={} precount={} subset={}",
        shared.pruned_ancestor,
        shared.pruned_unlinkable,
        shared.pruned_precount,
        shared.pruned_subset
    );
    (shared, basic)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_application() {
        let s = ExperimentScale(0.1);
        assert_eq!(s.apply(100_000), 10_000);
        assert_eq!(s.apply(500), 100); // floor
    }

    #[test]
    fn scale_parses_both_documented_forms() {
        let parse = |args: &[&str]| {
            let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
            ExperimentScale::parse(&args).map(|s| s.0)
        };
        assert_eq!(parse(&[]), Ok(0.1));
        assert_eq!(parse(&["0.5"]), Ok(0.5));
        assert_eq!(parse(&["--scale", "0.25"]), Ok(0.25));
        assert_eq!(parse(&["--out", "r.json", "--scale", "1"]), Ok(1.0));
        assert_eq!(parse(&["--scale", "0.2", "--out", "0.9.json"]), Ok(0.2));
        for bad in [
            &["--scale", "x"][..],
            &["--scale"],
            &["x"],
            &["0"],
            &["-0.5"],
            &["NaN"],
            &["inf"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must be refused");
        }
    }

    #[test]
    fn fig9_variants() {
        let fanout = |v| FIG9_DATASETS.iter().find(|d| d.0 == v).unwrap().1;
        assert_eq!(fanout('a'), [2, 2, 5]);
        assert_eq!(fanout('c'), [5, 5, 10]);
    }
}
