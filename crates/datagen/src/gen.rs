//! The synthetic RFID path generator of §6.1.
//!
//! "The path databases used for our experiments were generated using a
//! synthetic path generator that simulates the movement of items in a
//! retail operation."
//!
//! Generation follows the paper:
//! 1. build a pool of *valid location sequences* — supply-chain-ordered
//!    walks through a two-level location hierarchy;
//! 2. per record, draw each path-independent dimension value through its
//!    3-level concept hierarchy, Zipf-skewed per level;
//! 3. pick a valid sequence from the pool (Zipf-skewed) and assign each
//!    stage a Zipf-skewed random duration.

use crate::zipf::Zipf;
use flowcube_hier::{ConceptHierarchy, ConceptId, FxHashMap, Schema};
use flowcube_pathdb::{PathDatabase, PathRecord, RawReading, Stage};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Shape of one path-independent dimension's concept hierarchy.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DimShape {
    /// Distinct child count per level (e.g. `[4, 4, 6]` = 4 level-1
    /// concepts, 4 children each, 6 leaves under each of those).
    pub fanout: Vec<usize>,
    /// Zipf α per level.
    pub skew: Vec<f64>,
}

impl DimShape {
    /// The paper's default 3-level dimension.
    pub fn new(fanout: Vec<usize>, skew_all: f64) -> Self {
        let levels = fanout.len();
        DimShape {
            fanout,
            skew: vec![skew_all; levels],
        }
    }
}

/// Full generator configuration.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct GeneratorConfig {
    /// Number of path records (the paper's `N`).
    pub num_paths: usize,
    /// One shape per path-independent dimension (the paper's `d` = len).
    pub dims: Vec<DimShape>,
    /// Level-1 location groups ("factories", "transport", "stores", …).
    pub location_groups: usize,
    /// Leaves per location group; every location hierarchy has 2 levels
    /// of abstraction, as in the paper.
    pub locations_per_group: usize,
    /// Zipf α for leaf choice within a group.
    pub location_skew: f64,
    /// Number of distinct valid location sequences in the pool (the
    /// paper's path-density knob: 10–150).
    pub num_sequences: usize,
    /// Zipf α over the sequence pool.
    pub sequence_skew: f64,
    /// Inclusive bounds on sequence length.
    pub path_len: (usize, usize),
    /// Durations are drawn from `1..=max_duration`, Zipf-skewed.
    pub max_duration: u32,
    pub duration_skew: f64,
    /// Probability that an item's sequence choice is determined by its
    /// first dimension's value instead of an independent draw. `0.0`
    /// (default) makes flows independent of item dimensions — every cell
    /// then mirrors its parents and a non-redundant flowcube prunes
    /// almost everything. Raise it to give product lines distinct flow
    /// behavior.
    pub flow_correlation: f64,
    /// Probability that an item whose *first-stage duration* lands in
    /// the top half of the duration range is rerouted to a different
    /// pooled sequence sharing the same first location. This plants
    /// duration → transition dependencies — exactly the exceptions the
    /// flowgraph's `X` component exists to capture.
    pub exception_bias: f64,
    /// RNG seed — all output is deterministic given the config.
    pub seed: u64,
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        GeneratorConfig {
            num_paths: 1_000,
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
}

impl GeneratorConfig {
    /// The test suites' small database: two dimensions of fanout
    /// `[2, 3]` at skew 0.7 and a pool of five location sequences, every
    /// other knob at its default — a cube over it builds in
    /// milliseconds, so a property test can build hundreds.
    pub fn small(num_paths: usize, seed: u64) -> Self {
        GeneratorConfig {
            num_paths,
            dims: vec![DimShape::new(vec![2, 3], 0.7); 2],
            num_sequences: 5,
            seed,
            ..Default::default()
        }
    }
}

/// A generated dataset: the database plus the sequence pool used.
pub struct Generated {
    pub db: PathDatabase,
    pub sequences: Vec<Vec<ConceptId>>,
}

/// Build the schema implied by a config.
pub fn build_schema(config: &GeneratorConfig) -> Schema {
    let mut dims = Vec::with_capacity(config.dims.len());
    for (d, shape) in config.dims.iter().enumerate() {
        let mut h = ConceptHierarchy::new(format!("dim{d}"));
        build_levels(&mut h, ConceptId::ROOT, &shape.fanout, &format!("d{d}"));
        dims.push(h);
    }
    let mut loc = ConceptHierarchy::new("location");
    for g in 0..config.location_groups {
        let group = loc.add(ConceptId::ROOT, format!("group{g}")).unwrap();
        for l in 0..config.locations_per_group {
            loc.add(group, format!("loc{g}_{l}")).unwrap();
        }
    }
    Schema::new(dims, loc)
}

fn build_levels(h: &mut ConceptHierarchy, parent: ConceptId, fanout: &[usize], tag: &str) {
    let Some((&n, rest)) = fanout.split_first() else {
        return;
    };
    for i in 0..n {
        let name = format!("{tag}_{}_{i}", h.level_of(parent));
        // Names must be unique hierarchy-wide; qualify with the parent id.
        let name = format!("{name}_p{}", parent.0);
        let child = h.add(parent, name).unwrap();
        build_levels(h, child, rest, tag);
    }
}

/// Generate the pool of valid location sequences: group indexes are
/// non-decreasing along the path (items flow factory → … → store) and no
/// two consecutive stages share a location.
fn build_sequences(
    schema: &Schema,
    config: &GeneratorConfig,
    rng: &mut StdRng,
) -> Vec<Vec<ConceptId>> {
    let loc = schema.locations();
    let groups: Vec<Vec<ConceptId>> = (0..config.location_groups)
        .map(|g| {
            let group = loc.id_of(&format!("group{g}")).unwrap();
            loc.children_of(group).to_vec()
        })
        .collect();
    let leaf_zipf = Zipf::new(config.locations_per_group, config.location_skew);
    let (min_len, max_len) = config.path_len;
    let mut pool: Vec<Vec<ConceptId>> = Vec::with_capacity(config.num_sequences);
    let mut attempts = 0;
    while pool.len() < config.num_sequences && attempts < config.num_sequences * 100 {
        attempts += 1;
        let len = rng.gen_range(min_len..=max_len);
        let mut seq: Vec<ConceptId> = Vec::with_capacity(len);
        let mut group = 0usize;
        for pos in 0..len {
            // Advance through groups with probability ½ so the walk spans
            // the supply chain front-to-back (group order is the paper's
            // "valid sequence" notion: items never flow backwards).
            if pos > 0 && group + 1 < config.location_groups && rng.gen_bool(0.5) {
                group += 1;
            }
            let mut leaf = groups[group][leaf_zipf.sample(rng)];
            // avoid consecutive repeats
            let mut guard = 0;
            while seq.last() == Some(&leaf) && guard < 16 {
                leaf = groups[group][leaf_zipf.sample(rng)];
                guard += 1;
            }
            if seq.last() == Some(&leaf) {
                // single-location group: advance the group if possible
                if group + 1 < config.location_groups {
                    group += 1;
                    leaf = groups[group][leaf_zipf.sample(rng)];
                } else {
                    break;
                }
            }
            seq.push(leaf);
        }
        if seq.len() >= min_len && !pool.contains(&seq) {
            pool.push(seq);
        }
    }
    pool
}

/// Generate a full path database.
pub fn generate(config: &GeneratorConfig) -> Generated {
    let schema = build_schema(config);
    let mut rng = StdRng::seed_from_u64(config.seed);
    let sequences = build_sequences(&schema, config, &mut rng);
    assert!(
        !sequences.is_empty(),
        "sequence pool is empty; relax path_len / groups"
    );
    // Per-dimension, per-level samplers.
    let dim_samplers: Vec<Vec<Zipf>> = config
        .dims
        .iter()
        .map(|shape| {
            shape
                .fanout
                .iter()
                .zip(&shape.skew)
                .map(|(&n, &a)| Zipf::new(n, a))
                .collect()
        })
        .collect();
    let seq_zipf = Zipf::new(sequences.len(), config.sequence_skew);
    let dur_zipf = Zipf::new(config.max_duration.max(1) as usize, config.duration_skew);
    // Sequences grouped by first location, for exception rerouting.
    let mut same_head: FxHashMap<ConceptId, Vec<usize>> = FxHashMap::default();
    for (i, s) in sequences.iter().enumerate() {
        same_head.entry(s[0]).or_default().push(i);
    }

    let mut db = PathDatabase::new(schema);
    for id in 0..config.num_paths {
        // Dimension values: walk the hierarchy level by level.
        let mut dims: Vec<ConceptId> = Vec::with_capacity(config.dims.len());
        for (d, samplers) in dim_samplers.iter().enumerate() {
            let h = db.schema().dim(d as u8);
            let mut cur = ConceptId::ROOT;
            for z in samplers {
                let children = h.children_of(cur);
                cur = children[z.sample(&mut rng)];
            }
            dims.push(cur);
        }
        // Path: a pooled sequence, optionally pinned to the first
        // dimension's value so product lines flow differently.
        let mut seq_idx = if config.flow_correlation > 0.0 && rng.gen_bool(config.flow_correlation)
        {
            dims[0].0 as usize % sequences.len()
        } else {
            seq_zipf.sample(&mut rng)
        };
        // Duration → transition dependency: a long first stay reroutes
        // the item onto a sibling sequence with the same first location.
        let first_dur = dur_zipf.sample(&mut rng) as u32 + 1;
        if config.exception_bias > 0.0
            && first_dur > config.max_duration / 2
            && rng.gen_bool(config.exception_bias)
        {
            let head = sequences[seq_idx][0];
            let group = &same_head[&head];
            if group.len() > 1 {
                let pos = group.iter().position(|&i| i == seq_idx).unwrap_or(0);
                seq_idx = group[(pos + 1) % group.len()];
            }
        }
        let seq = &sequences[seq_idx];
        let stages: Vec<Stage> = seq
            .iter()
            .enumerate()
            .map(|(i, &loc)| {
                let dur = if i == 0 {
                    first_dur
                } else {
                    dur_zipf.sample(&mut rng) as u32 + 1
                };
                Stage::new(loc, dur)
            })
            .collect();
        db.push(PathRecord::new(id as u64 + 1, dims, stages))
            .expect("generated records are valid");
    }
    Generated { db, sequences }
}

/// Explode a generated database back into a raw reading stream — used to
/// exercise the cleaning pipeline end-to-end. Each stage emits two
/// readings (entry and exit); stages are separated by one time unit of
/// transit.
pub fn to_readings(db: &PathDatabase) -> Vec<RawReading> {
    // Sized once: a doubling buffer ends at up to twice the stream (50 MB
    // for 100k paths), a request the allocator serves with fresh pages
    // every time unless the heap happens to hold a free chunk that large.
    let stages: usize = db.records().iter().map(|r| r.stages.len()).sum();
    let mut out = Vec::with_capacity(2 * stages);
    for r in db.records() {
        let mut t = 0u64;
        for s in &r.stages {
            out.push(RawReading::new(r.id, s.loc, t));
            t += s.dur as u64;
            out.push(RawReading::new(r.id, s.loc, t));
            t += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_given_seed() {
        let config = GeneratorConfig {
            num_paths: 50,
            ..Default::default()
        };
        let a = generate(&config);
        let b = generate(&config);
        assert_eq!(a.db.records(), b.db.records());
        let mut c2 = config.clone();
        c2.seed = 43;
        let c = generate(&c2);
        assert_ne!(a.db.records(), c.db.records());
    }

    #[test]
    fn schema_shape_matches_config() {
        let config = GeneratorConfig::default();
        let schema = build_schema(&config);
        assert_eq!(schema.num_dims(), 5);
        assert_eq!(schema.max_item_levels(), vec![3; 5]);
        // 4 * 4 * 6 = 96 leaves per dimension
        assert_eq!(schema.dim(0).leaves().count(), 96);
        assert_eq!(schema.locations().max_level(), 2);
        assert_eq!(schema.locations().leaves().count(), 20);
    }

    #[test]
    fn sequences_are_valid_supply_chains() {
        let config = GeneratorConfig::default();
        let out = generate(&config);
        let loc = out.db.schema().locations();
        for seq in &out.sequences {
            assert!(seq.len() >= config.path_len.0);
            assert!(seq.len() <= config.path_len.1);
            // group indexes non-decreasing
            let groups: Vec<u32> = seq.iter().map(|&l| loc.parent_of(l).0).collect();
            assert!(groups.windows(2).all(|w| w[0] <= w[1]), "{groups:?}");
            // no consecutive repeats
            assert!(seq.windows(2).all(|w| w[0] != w[1]));
        }
    }

    #[test]
    fn paths_use_pool_sequences() {
        let config = GeneratorConfig {
            num_paths: 200,
            ..Default::default()
        };
        let out = generate(&config);
        assert_eq!(out.db.len(), 200);
        for r in out.db.records() {
            let locs: Vec<ConceptId> = r.stages.iter().map(|s| s.loc).collect();
            assert!(out.sequences.contains(&locs));
            assert!(r.stages.iter().all(|s| s.dur >= 1));
            assert!(r.stages.iter().all(|s| s.dur <= config.max_duration));
        }
    }

    #[test]
    fn skew_makes_top_values_dominate() {
        let mut config = GeneratorConfig {
            num_paths: 5_000,
            ..Default::default()
        };
        config.dims = vec![DimShape::new(vec![4, 4, 6], 1.5); 2];
        let out = generate(&config);
        let h = out.db.schema().dim(0);
        // level-1 distribution: the top concept should clearly dominate
        let mut counts: std::collections::HashMap<ConceptId, usize> = Default::default();
        for r in out.db.records() {
            *counts.entry(h.ancestor_at_level(r.dims[0], 1)).or_default() += 1;
        }
        let max = *counts.values().max().unwrap();
        assert!(max as f64 / 5_000.0 > 0.4, "skew too weak: {counts:?}");
    }

    #[test]
    fn flow_correlation_pins_sequences_to_product_lines() {
        let mut config = GeneratorConfig {
            num_paths: 2_000,
            flow_correlation: 1.0,
            ..Default::default()
        };
        config.dims = vec![DimShape::new(vec![4, 4, 6], 0.5); 2];
        let out = generate(&config);
        // Every record's sequence index is a function of dims[0].
        let mut seen: std::collections::HashMap<ConceptId, Vec<ConceptId>> = Default::default();
        for r in out.db.records() {
            let locs: Vec<ConceptId> = r.stages.iter().map(|s| s.loc).collect();
            let entry = seen.entry(r.dims[0]).or_insert_with(|| locs.clone());
            assert_eq!(*entry, locs, "one product leaf, one sequence");
        }
        assert!(seen.len() > 1);
    }

    #[test]
    fn exception_bias_reroutes_long_first_stays() {
        let config = GeneratorConfig {
            num_paths: 4_000,
            num_sequences: 8,
            exception_bias: 1.0,
            duration_skew: 0.0, // uniform durations: half are "long"
            location_skew: 0.0, // diversify second hops across sequences
            // The assertion needs ≥2 pooled sequences sharing a first
            // location; this seed produces such a pool under StdRng.
            seed: 7,
            ..Default::default()
        };
        let out = generate(&config);
        // Among paths sharing a first location, the conditional next-hop
        // distribution given a long first stay must differ from the
        // unconditional one.
        use std::collections::HashMap;
        let mut uncond: HashMap<(ConceptId, ConceptId), usize> = HashMap::new();
        let mut cond: HashMap<(ConceptId, ConceptId), usize> = HashMap::new();
        let mut long_total = 0usize;
        for r in out.db.records() {
            if r.stages.len() < 2 {
                continue;
            }
            let key = (r.stages[0].loc, r.stages[1].loc);
            *uncond.entry(key).or_default() += 1;
            if r.stages[0].dur > config.max_duration / 2 {
                *cond.entry(key).or_default() += 1;
                long_total += 1;
            }
        }
        assert!(long_total > 500);
        // At least one transition shifts noticeably (the unconditional mix
        // already contains the rerouted half, diluting the contrast).
        let total: usize = uncond.values().sum();
        let shifted = uncond.iter().any(|(k, &u)| {
            let p_u = u as f64 / total as f64;
            let p_c = cond.get(k).copied().unwrap_or(0) as f64 / long_total as f64;
            (p_u - p_c).abs() > 0.08
        });
        assert!(shifted, "exception bias left distributions unchanged");
    }

    #[test]
    fn readings_roundtrip_through_cleaner() {
        use flowcube_pathdb::{clean_readings, stays_to_record, CleanerConfig};
        let config = GeneratorConfig {
            num_paths: 20,
            ..Default::default()
        };
        let out = generate(&config);
        let readings = to_readings(&out.db);
        let cleaned = clean_readings(readings, &CleanerConfig::default());
        assert_eq!(cleaned.len(), 20);
        for (epc, stays) in &cleaned {
            let original = out.db.records().iter().find(|r| r.id == *epc).unwrap();
            let rec = stays_to_record(
                *epc,
                original.dims.clone(),
                stays,
                &CleanerConfig::default(),
            );
            assert_eq!(rec.stages, original.stages, "epc {epc}");
        }
    }
}
