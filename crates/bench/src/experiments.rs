//! Dataset presets matching §6.1 and the per-figure parameters.

use flowcube_datagen::{DimShape, GeneratorConfig};
use flowcube_hier::{DurationLevel, LocationCut, PathLatticeSpec, PathLevel, Schema};

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

/// Base configuration shared by all experiments: 5 path-independent
/// dimensions with 3-level hierarchies (dataset *b* density: 4, 4, 6
/// distinct values per level), a 2-level location hierarchy, and a pool
/// of 30 valid sequences.
pub fn base_config(num_paths: usize) -> GeneratorConfig {
    GeneratorConfig {
        num_paths,
        dims: vec![DimShape::new(vec![4, 4, 6], 0.8); 5],
        location_groups: 4,
        locations_per_group: 5,
        location_skew: 0.8,
        num_sequences: 30,
        sequence_skew: 0.8,
        path_len: (3, 8),
        max_duration: 8,
        duration_skew: 1.0,
        flow_correlation: 0.0,
        exception_bias: 0.0,
        seed: 42,
    }
}

/// The experiments' path abstraction levels: "locations \[at\] the level
/// present in the path database and one level higher … durations \[at\]
/// the level present … and the any (*) level, for a total of 4 path
/// abstraction levels."
pub fn paper_path_spec(schema: &Schema) -> PathLatticeSpec {
    let loc = schema.locations();
    let fine = LocationCut::uniform_level(loc, loc.max_level());
    let coarse = LocationCut::uniform_level(loc, loc.max_level().saturating_sub(1).max(1));
    PathLatticeSpec::new(vec![
        PathLevel::new("loc0/dur0", fine.clone(), DurationLevel::Raw),
        PathLevel::new("loc0/dur*", fine, DurationLevel::Any),
        PathLevel::new("loc1/dur0", coarse.clone(), DurationLevel::Raw),
        PathLevel::new("loc1/dur*", coarse, DurationLevel::Any),
    ])
}

/// Figure 6: database size sweep (paper: 100k–1M paths, δ=1%, d=5).
pub fn fig6_sizes(scale: ExperimentScale) -> Vec<usize> {
    [100_000usize, 200_000, 400_000, 600_000, 800_000, 1_000_000]
        .iter()
        .map(|&n| scale.apply(n))
        .collect()
}

/// Figure 7: minimum support sweep (paper: 0.3%–2%, N=100k, d=5).
pub fn fig7_supports() -> Vec<f64> {
    vec![0.003, 0.005, 0.008, 0.011, 0.014, 0.017, 0.020]
}

/// Figure 8: dimension sweep (paper: 2–10 dims, N=100k, δ=1%, sparse).
pub fn fig8_config(num_paths: usize, dims: usize) -> GeneratorConfig {
    let mut c = base_config(num_paths);
    // "quite sparse to prevent the number of frequent cells to explode":
    // use the dataset-c density and stronger skew dilution.
    c.dims = vec![DimShape::new(vec![5, 5, 10], 0.4); dims];
    c
}

/// Figure 9: item density variants a, b, c (distinct values per level).
pub fn fig9_config(num_paths: usize, variant: char) -> GeneratorConfig {
    let fanout = match variant {
        'a' => vec![2, 2, 5],
        'b' => vec![4, 4, 6],
        'c' => vec![5, 5, 10],
        _ => panic!("unknown density variant {variant}"),
    };
    let mut c = base_config(num_paths);
    c.dims = vec![DimShape::new(fanout, 0.8); 5];
    c
}

/// Figure 10: path density sweep (distinct location sequences).
pub fn fig10_config(num_paths: usize, num_sequences: usize) -> GeneratorConfig {
    let mut c = base_config(num_paths);
    c.num_sequences = num_sequences;
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowcube_datagen::build_schema;

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
    fn spec_has_four_levels_with_expected_order() {
        let schema = build_schema(&base_config(10));
        let spec = paper_path_spec(&schema);
        assert_eq!(spec.len(), 4);
        // loc1/dur* is coarser than everything else
        assert_eq!(spec.coarser_than(0).len(), 3);
        assert!(spec.coarser_than(3).is_empty());
    }

    #[test]
    fn fig9_variants() {
        assert_eq!(fig9_config(100, 'a').dims[0].fanout, vec![2, 2, 5]);
        assert_eq!(fig9_config(100, 'c').dims[0].fanout, vec![5, 5, 10]);
    }

    #[test]
    #[should_panic]
    fn fig9_bad_variant() {
        let _ = fig9_config(100, 'z');
    }
}
