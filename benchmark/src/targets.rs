//! Request targets and their oracle.
//!
//! The set-up process owns the in-memory cube, so it draws every target
//! and computes what the server must answer from `FlowCube::lookup`,
//! `roll_up`, `drill_down`, `slice`, `dice` and the flowgraph queries.
//! The measuring process receives `(target, expectation)` lines and
//! checks each answer once during warm-up.

use crate::util::Rng;
use flowcube_core::{CellEntry, CellKey, CuboidKey, FlowCube};
use flowcube_flowgraph::{path_probability, top_k_paths};
use flowcube_hier::{ConceptId, Schema};
use flowcube_pathdb::AggStage;
use serde_json::Value;
use std::collections::HashSet;

#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Endpoint {
    Cell,
    Rollup,
    Drilldown,
    Slice,
    Dice,
    PathsTopk,
    PathsProbability,
    Exceptions,
}

impl Endpoint {
    pub const ALL: [Endpoint; 8] = [
        Endpoint::Cell,
        Endpoint::Rollup,
        Endpoint::Drilldown,
        Endpoint::Slice,
        Endpoint::Dice,
        Endpoint::PathsTopk,
        Endpoint::PathsProbability,
        Endpoint::Exceptions,
    ];

    /// The five endpoints the front tier federates.
    pub const FEDERATED: [Endpoint; 5] = [
        Endpoint::Cell,
        Endpoint::Rollup,
        Endpoint::Drilldown,
        Endpoint::PathsTopk,
        Endpoint::Exceptions,
    ];

    pub fn route(self) -> &'static str {
        match self {
            Endpoint::Cell => "/cell",
            Endpoint::Rollup => "/rollup",
            Endpoint::Drilldown => "/drilldown",
            Endpoint::Slice => "/slice",
            Endpoint::Dice => "/dice",
            Endpoint::PathsTopk => "/paths/topk",
            Endpoint::PathsProbability => "/paths/probability",
            Endpoint::Exceptions => "/exceptions",
        }
    }

    /// The product's metric tag for the endpoint (`serve.miss_us.<tag>`).
    pub fn tag(self) -> &'static str {
        match self {
            Endpoint::Cell => "cell",
            Endpoint::Rollup => "rollup",
            Endpoint::Drilldown => "drilldown",
            Endpoint::Slice => "slice",
            Endpoint::Dice => "dice",
            Endpoint::PathsTopk => "paths_topk",
            Endpoint::PathsProbability => "paths_probability",
            Endpoint::Exceptions => "exceptions",
        }
    }

    fn index(self) -> usize {
        Endpoint::ALL
            .iter()
            .position(|e| *e == self)
            .expect("listed")
    }
}

/// What a correct answer carries.
#[derive(Clone, Debug, PartialEq)]
pub enum Expect {
    /// `support` of the answering cell.
    Support(u64),
    /// `count` of an `/exceptions` answer.
    Count(u64),
    /// `count` and summed row `support` of a multi-cell answer.
    Rows { count: u64, support: u64 },
    /// `probability`, to 1e-9.
    Probability(f64),
}

#[derive(Clone, Debug)]
pub struct Target {
    pub endpoint: Endpoint,
    pub target: String,
    pub expect: Expect,
}

pub fn body_json(body: &[u8]) -> Result<Value, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    serde_json::parse_value_str(text).map_err(|e| format!("body is not JSON: {e}"))
}

pub fn field_u64(v: &Value, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("answer has no numeric {key:?}"))
}

impl Target {
    /// Check one answer body against the oracle's expectation.
    pub fn check(&self, body: &[u8]) -> Result<(), String> {
        let v = body_json(body)?;
        let got = match &self.expect {
            Expect::Support(_) => Expect::Support(field_u64(&v, "support")?),
            Expect::Count(_) => Expect::Count(field_u64(&v, "count")?),
            Expect::Rows { .. } => {
                let rows = v
                    .get("cells")
                    .and_then(Value::as_array)
                    .ok_or("answer has no cells array")?;
                let mut support = 0;
                for row in rows {
                    support += field_u64(row, "support")?;
                }
                Expect::Rows {
                    count: field_u64(&v, "count")?,
                    support,
                }
            }
            Expect::Probability(want) => {
                let got = v
                    .get("probability")
                    .and_then(Value::as_f64)
                    .ok_or("answer has no probability")?;
                if (got - want).abs() <= 1e-9 {
                    return Ok(());
                }
                Expect::Probability(got)
            }
        };
        if got == self.expect {
            Ok(())
        } else {
            Err(format!(
                "{}: expected {:?}, server answered {got:?}",
                self.target, self.expect
            ))
        }
    }

    /// One line of the targets file.
    pub fn to_line(&self) -> String {
        let (kind, a, b) = match self.expect {
            Expect::Support(s) => ('s', s, 0),
            Expect::Count(c) => ('c', c, 0),
            Expect::Rows { count, support } => ('r', count, support),
            Expect::Probability(p) => ('p', p.to_bits(), 0),
        };
        format!(
            "{}\t{}\t{kind}\t{a}\t{b}",
            self.endpoint.index(),
            self.target
        )
    }

    pub fn from_line(line: &str) -> Option<Target> {
        let mut parts = line.split('\t');
        let endpoint = *Endpoint::ALL.get(parts.next()?.parse::<usize>().ok()?)?;
        let target = parts.next()?.to_string();
        let kind = parts.next()?;
        let a: u64 = parts.next()?.parse().ok()?;
        let b: u64 = parts.next()?.parse().ok()?;
        let expect = match kind {
            "s" => Expect::Support(a),
            "c" => Expect::Count(a),
            "r" => Expect::Rows {
                count: a,
                support: b,
            },
            "p" => Expect::Probability(f64::from_bits(a)),
            _ => return None,
        };
        Some(Target {
            endpoint,
            target,
            expect,
        })
    }
}

/// `a,b,*` — the `cell=` spelling of a key.
pub fn cell_spec(schema: &Schema, key: &[ConceptId]) -> String {
    key.iter()
        .enumerate()
        .map(|(d, &c)| {
            if c == ConceptId::ROOT {
                "*"
            } else {
                schema.dim(d as u8).name_of(c)
            }
        })
        .collect::<Vec<_>>()
        .join(",")
}

fn rows_of<'a, K>(rows: impl IntoIterator<Item = (K, &'a CellEntry)>) -> Expect {
    let (mut count, mut support) = (0, 0);
    for (_, entry) in rows {
        count += 1;
        support += entry.support;
    }
    Expect::Rows { count, support }
}

/// Draws distinct targets over `cube`, restricted to the cells in
/// `cells` (every materialized cell, or for the federation the cells
/// present on every shard).
pub struct TargetGen<'a> {
    cube: &'a FlowCube,
    cells: Vec<(CuboidKey, CellKey)>,
    /// Leaf-level keys of real paths: `/cell` lookups for them fall back
    /// to the nearest materialized ancestor. Empty = exact lookups only.
    leaf_keys: Vec<CellKey>,
    rng: Rng,
    seen: HashSet<String>,
}

impl<'a> TargetGen<'a> {
    pub fn new(
        cube: &'a FlowCube,
        cells: Vec<(CuboidKey, CellKey)>,
        leaf_keys: Vec<CellKey>,
        seed: u64,
    ) -> Self {
        assert!(!cells.is_empty(), "no cell to draw targets from");
        TargetGen {
            cube,
            cells,
            leaf_keys,
            rng: Rng::new(seed),
            seen: HashSet::new(),
        }
    }

    /// Every materialized cell of `cube`, in `all_cells` order.
    pub fn all_cells(cube: &FlowCube) -> Vec<(CuboidKey, CellKey)> {
        cube.all_cells()
            .into_iter()
            .flat_map(|(ck, keys)| keys.into_iter().map(move |k| (ck.clone(), k)))
            .collect()
    }

    /// `count` distinct targets of one endpoint. Panics when the cube is
    /// too small to supply them: a workload must never run short.
    pub fn draw(&mut self, endpoint: Endpoint, count: usize) -> Vec<Target> {
        let mut out = Vec::with_capacity(count);
        let mut attempts = 0usize;
        while out.len() < count {
            attempts += 1;
            assert!(
                attempts < 200 * count + 10_000,
                "cube too small for {count} distinct {} targets",
                endpoint.tag()
            );
            let Some(t) = self.one(endpoint) else {
                continue;
            };
            if self.seen.insert(t.target.clone()) {
                out.push(t);
            }
        }
        out
    }

    fn one(&mut self, endpoint: Endpoint) -> Option<Target> {
        let cube = self.cube;
        let schema = cube.schema();
        let (ck, key) = self.cells[self.rng.below(self.cells.len())].clone();
        let pl = ck.path_level;
        let level = &cube.spec().level(pl).name;
        let spec = cell_spec(schema, &key);
        let route = endpoint.route();
        let (target, expect) = match endpoint {
            Endpoint::Cell => {
                // One point lookup in fifty asks for a leaf cell the
                // iceberg did not keep, so the walk up the item lattice
                // runs. It costs milliseconds where an exact hit costs
                // microseconds, so the share is kept well under 1 % of a
                // workload's requests: it shows in `rps` and `client.p999_us`, and
                // `client.p99_us` stays the tail of ordinary requests.
                let key = if !self.leaf_keys.is_empty() && self.rng.below(50) == 0 {
                    self.leaf_keys[self.rng.below(self.leaf_keys.len())].clone()
                } else {
                    key
                };
                let found = cube.lookup(&key, pl)?;
                (
                    format!("{route}?cell={}&level={level}", cell_spec(schema, &key)),
                    Expect::Support(found.entry.support),
                )
            }
            Endpoint::Rollup => {
                let dims: Vec<usize> = (0..key.len())
                    .filter(|&d| key[d] != ConceptId::ROOT)
                    .collect();
                let dim = *dims.get(self.rng.below(dims.len().max(1)))?;
                let (_, parent) = cube.roll_up(&key, dim, pl)?;
                (
                    format!("{route}?cell={spec}&level={level}&dim={dim}"),
                    Expect::Support(parent.support),
                )
            }
            Endpoint::Drilldown => {
                let dim = self.rng.below(key.len());
                let rows = cube.drill_down(&key, dim, pl);
                if rows.is_empty() {
                    return None;
                }
                (
                    format!("{route}?cell={spec}&level={level}&dim={dim}"),
                    rows_of(rows),
                )
            }
            Endpoint::Slice => {
                let dims: Vec<usize> = (0..key.len())
                    .filter(|&d| key[d] != ConceptId::ROOT)
                    .collect();
                let dim = *dims.get(self.rng.below(dims.len().max(1)))?;
                let at = item_level_spec(&ck);
                let value = schema.dim(dim as u8).name_of(key[dim]);
                (
                    format!("{route}?at={at}&level={level}&dim={dim}&value={value}"),
                    rows_of(cube.slice(&ck.item_level, pl, dim, key[dim])),
                )
            }
            Endpoint::Dice => {
                // One dice in ten has no constraint: a whole-cuboid report,
                // the largest body the server renders. Like the fallback
                // lookups above they stay under 1 % of requests, so that
                // `client.p99_us` does not sit on the edge of the heavy requests.
                let whole = self.rng.below(10) == 0;
                let constrained: Vec<usize> = (0..key.len())
                    .filter(|&d| !whole && key[d] != ConceptId::ROOT && self.rng.below(3) != 0)
                    .take(2)
                    .collect();
                let clause = constrained
                    .iter()
                    .map(|&d| format!("{d}:{}", schema.dim(d as u8).name_of(key[d])))
                    .collect::<Vec<_>>()
                    .join(",");
                let at = item_level_spec(&ck);
                let rows = cube.dice(&ck.item_level, pl, |k| {
                    constrained.iter().all(|&d| k[d] == key[d])
                });
                let expect = rows_of(rows);
                (
                    format!("{route}?at={at}&level={level}&where={clause}"),
                    expect,
                )
            }
            Endpoint::PathsTopk => {
                let k = [3, 5, 10][self.rng.below(3)];
                let found = cube.lookup(&key, pl)?;
                (
                    format!("{route}?cell={spec}&level={level}&k={k}"),
                    Expect::Support(found.entry.support),
                )
            }
            Endpoint::PathsProbability => {
                let found = cube.lookup(&key, pl)?;
                let top = top_k_paths(&found.entry.graph, 8);
                let path = &top.get(self.rng.below(top.len().max(1)))?.locations;
                let stages: Vec<AggStage> = path
                    .iter()
                    .map(|&loc| AggStage { loc, dur: None })
                    .collect();
                let names: Vec<&str> = path
                    .iter()
                    .map(|&loc| schema.locations().name_of(loc))
                    .collect();
                (
                    format!("{route}?cell={spec}&level={level}&path={}", names.join(",")),
                    Expect::Probability(path_probability(&found.entry.graph, &stages)),
                )
            }
            Endpoint::Exceptions => {
                let found = cube.lookup(&key, pl)?;
                (
                    format!("{route}?cell={spec}&level={level}"),
                    Expect::Count(found.entry.exceptions.len() as u64),
                )
            }
        };
        Some(Target {
            endpoint,
            target,
            expect,
        })
    }
}

fn item_level_spec(ck: &CuboidKey) -> String {
    ck.item_level
        .0
        .iter()
        .map(|l| l.to_string())
        .collect::<Vec<_>>()
        .join(",")
}
