//! The two abstraction lattices a flowcube ranges over.
//!
//! * The **item lattice** is the cartesian product of the per-dimension
//!   hierarchy levels — identical in shape to a classic data-cube cuboid
//!   lattice.
//! * The **path lattice** is a user-configured set of [`PathLevel`]s
//!   (full enumeration is astronomically large: any antichain of the
//!   location hierarchy × any duration level), ordered by the coarser-than
//!   relation. This mirrors the paper's *partial materialization plan*,
//!   where the cuboids to compute are "determined based on … application
//!   and cardinality analysis".

use crate::concept::ConceptHierarchy;
use crate::cut::{LocationCut, PathLevel};
use crate::level::{DurationLevel, ItemLevel};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The full item lattice for a schema with the given per-dimension maximum
/// levels.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ItemLattice {
    max_levels: Vec<u8>,
}

impl ItemLattice {
    pub fn new(max_levels: Vec<u8>) -> Self {
        ItemLattice { max_levels }
    }

    pub fn dims(&self) -> usize {
        self.max_levels.len()
    }

    pub fn max_levels(&self) -> &[u8] {
        &self.max_levels
    }

    /// The apex level `(0,…,0)`.
    pub fn top(&self) -> ItemLevel {
        ItemLevel::top(self.max_levels.len())
    }

    /// The most detailed level.
    pub fn bottom(&self) -> ItemLevel {
        ItemLevel(self.max_levels.clone())
    }

    /// Number of levels in the lattice: `∏ (max_i + 1)`.
    pub fn len(&self) -> usize {
        self.max_levels
            .iter()
            .map(|&m| m as usize + 1)
            .product::<usize>()
    }

    pub fn is_empty(&self) -> bool {
        self.max_levels.is_empty()
    }

    /// Enumerate every level, coarsest first (sorted by total depth so a
    /// high-to-low traversal sees parents before children).
    pub fn iter_top_down(&self) -> Vec<ItemLevel> {
        let mut all = Vec::with_capacity(self.len());
        let mut cur = vec![0u8; self.max_levels.len()];
        loop {
            all.push(ItemLevel(cur.clone()));
            // odometer increment
            let mut i = 0;
            loop {
                if i == cur.len() {
                    all.sort_by_key(|l| l.0.iter().map(|&x| x as usize).sum::<usize>());
                    return all;
                }
                if cur[i] < self.max_levels[i] {
                    cur[i] += 1;
                    break;
                }
                cur[i] = 0;
                i += 1;
            }
        }
    }

    /// Immediate children of `level`, respecting per-dimension bounds.
    pub fn children(&self, level: &ItemLevel) -> Vec<ItemLevel> {
        level.children(&self.max_levels)
    }

    /// Immediate parents of `level`.
    pub fn parents(&self, level: &ItemLevel) -> Vec<ItemLevel> {
        level.parents()
    }
}

/// The set of path abstraction levels selected for materialization,
/// ordered by the coarser-than relation.
///
/// Deserializing one checks it as [`PathLatticeSpec::try_new`] does, so
/// a spec that arrives as bytes — a snapshot section, a cube file, a
/// shard part — holds the same invariants as one built in the program.
#[derive(Debug, Clone, Serialize)]
pub struct PathLatticeSpec {
    levels: Vec<PathLevel>,
}

/// A [`PathLatticeSpec`] as bytes spell it, before it is checked.
#[derive(Deserialize)]
struct RawPathLatticeSpec {
    levels: Vec<PathLevel>,
}

impl<'de> Deserialize<'de> for PathLatticeSpec {
    fn from_value(value: &serde::Value) -> Result<Self, serde::de::Error> {
        let levels = RawPathLatticeSpec::from_value(value)?.levels;
        let invalid =
            |detail: String| serde::de::Error::custom(format!("path lattice spec: {detail}"));
        if levels.is_empty() {
            return Err(invalid("no path levels".into()));
        }
        if levels.len() > PathLevelId::MAX as usize {
            return Err(invalid(format!("{} path levels", levels.len())));
        }
        // `Bucket(0)` divides by zero wherever durations are aggregated
        // or compared.
        if let Some(level) = levels
            .iter()
            .find(|l| l.duration == DurationLevel::Bucket(0))
        {
            return Err(invalid(format!(
                "level {:?} has zero-width duration buckets",
                level.name
            )));
        }
        PathLatticeSpec::try_new(levels).map_err(|e| invalid(e.to_string()))
    }
}

/// Index of a [`PathLevel`] within a [`PathLatticeSpec`].
pub type PathLevelId = u16;

/// A spec listed one level of the path lattice twice: two entries with
/// the same location cut and equivalent duration levels (`Raw` and
/// `Bucket(1)` are one level), whatever their names.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DuplicatePathLevel {
    /// Positions of the two entries in the rejected list.
    pub first: usize,
    pub second: usize,
    /// Their names.
    pub first_name: String,
    pub second_name: String,
}

impl fmt::Display for DuplicatePathLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "path levels {} ({:?}) and {} ({:?}) are the same level — same location cut, \
             equivalent durations; a spec lists each level once",
            self.first, self.first_name, self.second, self.second_name
        )
    }
}

impl std::error::Error for DuplicatePathLevel {}

impl PathLatticeSpec {
    /// Build a spec from the levels of interest. Order is preserved; the
    /// conventional layout puts the most detailed level first.
    ///
    /// # Panics
    /// When a level is listed twice — see [`Self::try_new`].
    pub fn new(levels: Vec<PathLevel>) -> Self {
        Self::try_new(levels).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Self::new`] for level lists that come from outside the program.
    ///
    /// Two entries that are each coarser-or-equal to the other are one
    /// level of the lattice. Each would be the other's strict ancestor in
    /// [`Self::coarser_than`], and mining, which interns a stage item's
    /// coarser-level ancestors before the item itself, would recurse
    /// between them until the stack overflows — so the pair is rejected
    /// here.
    pub fn try_new(levels: Vec<PathLevel>) -> Result<Self, DuplicatePathLevel> {
        assert!(!levels.is_empty(), "at least one path level is required");
        assert!(levels.len() <= PathLevelId::MAX as usize);
        for (second, b) in levels.iter().enumerate() {
            for (first, a) in levels[..second].iter().enumerate() {
                if a.is_coarser_or_equal(b) && b.is_coarser_or_equal(a) {
                    return Err(DuplicatePathLevel {
                        first,
                        second,
                        first_name: a.name.clone(),
                        second_name: b.name.clone(),
                    });
                }
            }
        }
        Ok(PathLatticeSpec { levels })
    }

    /// The first `n` (1–4) of the experiments' path abstraction levels
    /// (§6.1): "locations \[at\] the level present in the path database
    /// and one level higher … durations \[at\] the level present … and
    /// the any (*) level, for a total of 4 path abstraction levels" —
    /// `loc0/dur0`, `loc0/dur*`, `loc1/dur0`, `loc1/dur*`, most detailed
    /// first.
    ///
    /// # Panics
    /// When `n` is outside 1–4, or when the first `n` levels list one
    /// level twice — see [`Self::try_paper`].
    pub fn paper(locations: &ConceptHierarchy, n: usize) -> Self {
        Self::try_paper(locations, n).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Self::paper`] for hierarchies that come from outside the
    /// program. A flat location hierarchy has no one-up cut: from
    /// `n = 3` on, the `loc1` levels repeat the `loc0` ones and the
    /// spec is refused.
    pub fn try_paper(locations: &ConceptHierarchy, n: usize) -> Result<Self, DuplicatePathLevel> {
        assert!(
            (1..=4).contains(&n),
            "the paper's lattice has 1–4 levels, not {n}"
        );
        let leaf = LocationCut::uniform_level(locations, locations.max_level());
        let up =
            LocationCut::uniform_level(locations, locations.max_level().saturating_sub(1).max(1));
        let levels = [
            ("loc0/dur0", &leaf, DurationLevel::Raw),
            ("loc0/dur*", &leaf, DurationLevel::Any),
            ("loc1/dur0", &up, DurationLevel::Raw),
            ("loc1/dur*", &up, DurationLevel::Any),
        ];
        Self::try_new(
            (levels.into_iter().take(n))
                .map(|(name, cut, duration)| PathLevel::new(name, cut.clone(), duration))
                .collect(),
        )
    }

    pub fn len(&self) -> usize {
        self.levels.len()
    }

    pub fn is_empty(&self) -> bool {
        self.levels.is_empty()
    }

    pub fn level(&self, id: PathLevelId) -> &PathLevel {
        &self.levels[id as usize]
    }

    pub fn levels(&self) -> &[PathLevel] {
        &self.levels
    }

    pub fn ids(&self) -> impl Iterator<Item = PathLevelId> {
        (0..self.levels.len() as PathLevelId)
            .collect::<Vec<_>>()
            .into_iter()
    }

    /// Ids of all levels strictly coarser than `id` within the spec.
    pub fn coarser_than(&self, id: PathLevelId) -> Vec<PathLevelId> {
        let target = &self.levels[id as usize];
        self.ids()
            .filter(|&other| other != id && self.levels[other as usize].is_coarser_or_equal(target))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn item_lattice_enumeration() {
        let lat = ItemLattice::new(vec![2, 1]);
        assert_eq!(lat.len(), 6);
        let all = lat.iter_top_down();
        assert_eq!(all.len(), 6);
        assert_eq!(all[0], ItemLevel(vec![0, 0]));
        assert_eq!(*all.last().unwrap(), ItemLevel(vec![2, 1]));
        // top-down: total depth is non-decreasing
        let depths: Vec<usize> = all
            .iter()
            .map(|l| l.0.iter().map(|&x| x as usize).sum())
            .collect();
        assert!(depths.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn item_lattice_bounds() {
        let lat = ItemLattice::new(vec![1, 1]);
        assert_eq!(lat.top(), ItemLevel(vec![0, 0]));
        assert_eq!(lat.bottom(), ItemLevel(vec![1, 1]));
        assert_eq!(lat.children(&lat.bottom()), Vec::<ItemLevel>::new());
        assert_eq!(lat.parents(&lat.top()), Vec::<ItemLevel>::new());
    }

    #[test]
    fn path_spec_ordering() {
        let mut h = ConceptHierarchy::new("location");
        h.add_path(["transportation", "truck"]).unwrap();
        h.add_path(["store", "shelf"]).unwrap();
        let fine = PathLevel::new(
            "fine",
            LocationCut::uniform_level(&h, 2),
            DurationLevel::Raw,
        );
        let fine_star = PathLevel::new(
            "fine/*",
            LocationCut::uniform_level(&h, 2),
            DurationLevel::Any,
        );
        let coarse = PathLevel::new(
            "coarse",
            LocationCut::uniform_level(&h, 1),
            DurationLevel::Raw,
        );
        let coarse_star = PathLevel::new(
            "coarse/*",
            LocationCut::uniform_level(&h, 1),
            DurationLevel::Any,
        );
        let spec = PathLatticeSpec::new(vec![fine, fine_star, coarse, coarse_star]);
        assert_eq!(spec.len(), 4);
        // coarser-than the fine/raw level: all three others
        assert_eq!(spec.coarser_than(0).len(), 3);
        // nothing is coarser than coarse/*
        assert!(spec.coarser_than(3).is_empty());
        // fine/* and coarse/raw are incomparable
        assert_eq!(spec.coarser_than(1), vec![3]);
        assert_eq!(spec.coarser_than(2), vec![3]);
    }

    /// A spec from bytes meets the checks of one built in the program: a
    /// level listed twice, no level at all, or zero-width buckets are a
    /// deserialization error, not a panic or a stack overflow later.
    #[test]
    fn a_deserialized_spec_is_checked() {
        let mut h = ConceptHierarchy::new("location");
        h.add_path(["transportation", "truck"]).unwrap();
        let level = |name: &str, duration| {
            PathLevel::new(name, LocationCut::uniform_level(&h, 2), duration)
        };
        let good = PathLatticeSpec::new(vec![
            level("raw", DurationLevel::Raw),
            level("any", DurationLevel::Any),
        ]);
        let back = PathLatticeSpec::from_value(&good.to_value()).unwrap();
        assert_eq!(back.levels(), good.levels());
        let from =
            |levels: Vec<PathLevel>| PathLatticeSpec::from_value(&RawSpec { levels }.to_value());
        let err = from(vec![
            level("a", DurationLevel::Raw),
            level("b", DurationLevel::Raw),
        ])
        .unwrap_err();
        assert!(err.to_string().contains("same level"), "{err}");
        assert!(from(Vec::new()).is_err());
        let err = from(vec![
            level("b0", DurationLevel::Bucket(0)),
            level("b2", DurationLevel::Bucket(2)),
        ])
        .unwrap_err();
        assert!(err.to_string().contains("zero-width"), "{err}");
    }

    /// `paper` spells §6.1's lattice with the names the CLI and the
    /// benchmark use; shorter lattices are its prefixes.
    #[test]
    fn paper_lattice_levels() {
        let mut h = ConceptHierarchy::new("location");
        h.add_path(["transportation", "truck"]).unwrap();
        h.add_path(["store", "shelf"]).unwrap();
        let spec = PathLatticeSpec::paper(&h, 4);
        let names: Vec<&str> = spec.levels().iter().map(|l| l.name.as_str()).collect();
        assert_eq!(names, ["loc0/dur0", "loc0/dur*", "loc1/dur0", "loc1/dur*"]);
        let durations: Vec<_> = spec.levels().iter().map(|l| l.duration).collect();
        use DurationLevel::{Any, Raw};
        assert_eq!(durations, [Raw, Any, Raw, Any]);
        for n in [1, 2] {
            assert_eq!(PathLatticeSpec::paper(&h, n).levels(), &spec.levels()[..n]);
        }
        // The leaf cut is the hierarchy's own level, the one-up cut its
        // parent level.
        assert_eq!(spec.level(0).cut, LocationCut::uniform_level(&h, 2));
        assert_eq!(spec.level(2).cut, LocationCut::uniform_level(&h, 1));
        assert_ne!(spec.level(0).cut, spec.level(2).cut);
        assert_eq!(spec.coarser_than(0), vec![1, 2, 3]);
        assert!(spec.coarser_than(3).is_empty());
    }

    /// On a flat hierarchy the one-up cut is the leaf cut again: the
    /// full lattice lists two levels twice and is refused, while the
    /// two-level prefix stands.
    #[test]
    fn paper_lattice_on_a_flat_hierarchy() {
        let mut flat = ConceptHierarchy::new("location");
        flat.add_path(["dock"]).unwrap();
        flat.add_path(["shelf"]).unwrap();
        let err = PathLatticeSpec::try_paper(&flat, 4).unwrap_err();
        assert_eq!((err.first, err.second), (0, 2));
        assert_eq!(
            (err.first_name.as_str(), err.second_name.as_str()),
            ("loc0/dur0", "loc1/dur0")
        );
        assert_eq!(PathLatticeSpec::try_paper(&flat, 2).unwrap().len(), 2);
    }

    #[derive(Serialize)]
    struct RawSpec {
        levels: Vec<PathLevel>,
    }

    #[test]
    fn a_level_listed_twice_is_rejected() {
        let mut h = ConceptHierarchy::new("location");
        h.add_path(["transportation", "truck"]).unwrap();
        h.add_path(["store", "shelf"]).unwrap();
        let level = |name: &str, depth, duration| {
            PathLevel::new(name, LocationCut::uniform_level(&h, depth), duration)
        };
        // Names do not tell levels apart; cut and duration do.
        let repeated = || {
            vec![
                level("a", 2, DurationLevel::Raw),
                level("b", 1, DurationLevel::Raw),
                level("c", 2, DurationLevel::Raw),
            ]
        };
        let err = PathLatticeSpec::try_new(repeated()).unwrap_err();
        assert_eq!((err.first, err.second), (0, 2));
        assert_eq!(
            (err.first_name.as_str(), err.second_name.as_str()),
            ("a", "c")
        );
        // `new` keeps its signature and panics with the same message.
        let panic = std::panic::catch_unwind(|| PathLatticeSpec::new(repeated())).unwrap_err();
        assert_eq!(panic.downcast_ref::<String>(), Some(&err.to_string()));
        // `Raw` and `Bucket(1)` aggregate durations identically.
        assert!(PathLatticeSpec::try_new(vec![
            level("raw", 2, DurationLevel::Raw),
            level("unit", 2, DurationLevel::Bucket(1)),
        ])
        .is_err());
        // Same cut, different durations: two levels.
        assert!(PathLatticeSpec::try_new(vec![
            level("raw", 2, DurationLevel::Raw),
            level("any", 2, DurationLevel::Any),
        ])
        .is_ok());
    }
}
