//! An indexed, in-memory triple store over dictionary-encoded triples.
//!
//! Three nested-map indexes (SPO, POS, OSP) give O(1)-ish access for every
//! bound/unbound combination of a [`TriplePattern`], which is what the
//! datalog engine's joins need. Insertion maintains all three indexes and
//! a membership set used for duplicate suppression during closure
//! computation.

use crate::dictionary::NodeId;
use crate::fx::{FxHashMap, FxHashSet};
use crate::triple::Triple;

pub(crate) type Nested = FxHashMap<NodeId, FxHashMap<NodeId, Vec<NodeId>>>;

/// A match pattern: `None` positions are wildcards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct TriplePattern {
    /// Subject constraint.
    pub s: Option<NodeId>,
    /// Predicate constraint.
    pub p: Option<NodeId>,
    /// Object constraint.
    pub o: Option<NodeId>,
}

impl TriplePattern {
    /// A pattern with every position wildcarded.
    pub fn any() -> Self {
        Self::default()
    }

    /// Construct from options.
    pub fn new(s: Option<NodeId>, p: Option<NodeId>, o: Option<NodeId>) -> Self {
        TriplePattern { s, p, o }
    }

    /// Does `t` satisfy this pattern?
    #[inline]
    pub fn matches(&self, t: &Triple) -> bool {
        self.s.is_none_or(|s| s == t.s)
            && self.p.is_none_or(|p| p == t.p)
            && self.o.is_none_or(|o| o == t.o)
    }

    /// Number of bound positions (0–3).
    pub fn bound_count(&self) -> usize {
        usize::from(self.s.is_some()) + usize::from(self.p.is_some()) + usize::from(self.o.is_some())
    }
}

/// The indexed triple store.
#[derive(Debug, Default, Clone)]
pub struct TripleStore {
    all: FxHashSet<Triple>,
    spo: Nested, // s -> p -> [o]
    pos: Nested, // p -> o -> [s]
    osp: Nested, // o -> s -> [p]
}

impl TripleStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct triples.
    pub fn len(&self) -> usize {
        self.all.len()
    }

    /// `true` iff the store holds no triples.
    pub fn is_empty(&self) -> bool {
        self.all.is_empty()
    }

    /// Insert a triple. Returns `true` if it was not already present.
    pub fn insert(&mut self, t: Triple) -> bool {
        if !self.all.insert(t) {
            return false;
        }
        self.spo.entry(t.s).or_default().entry(t.p).or_default().push(t.o);
        self.pos.entry(t.p).or_default().entry(t.o).or_default().push(t.s);
        self.osp.entry(t.o).or_default().entry(t.s).or_default().push(t.p);
        true
    }

    /// Insert every triple from an iterator; returns how many were new.
    pub fn extend(&mut self, iter: impl IntoIterator<Item = Triple>) -> usize {
        iter.into_iter().filter(|&t| self.insert(t)).count()
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, t: &Triple) -> bool {
        self.all.contains(t)
    }

    /// Iterate over all triples (arbitrary order).
    pub fn iter(&self) -> impl Iterator<Item = &Triple> {
        self.all.iter()
    }

    /// All triples, sorted SPO — deterministic order for tests/serialization.
    pub fn iter_sorted(&self) -> Vec<Triple> {
        let mut v: Vec<Triple> = self.all.iter().copied().collect();
        v.sort_unstable();
        v
    }

    /// Invoke `f` for every triple matching `pat`, using the cheapest
    /// available index. This is the workhorse of the datalog joins.
    pub fn for_each_match(&self, pat: TriplePattern, mut f: impl FnMut(Triple)) {
        match (pat.s, pat.p, pat.o) {
            (Some(s), Some(p), Some(o)) => {
                let t = Triple::new(s, p, o);
                if self.all.contains(&t) {
                    f(t);
                }
            }
            (Some(s), Some(p), None) => {
                if let Some(os) = self.spo.get(&s).and_then(|m| m.get(&p)) {
                    for &o in os {
                        f(Triple::new(s, p, o));
                    }
                }
            }
            (Some(s), None, Some(o)) => {
                if let Some(ps) = self.osp.get(&o).and_then(|m| m.get(&s)) {
                    for &p in ps {
                        f(Triple::new(s, p, o));
                    }
                }
            }
            (None, Some(p), Some(o)) => {
                if let Some(ss) = self.pos.get(&p).and_then(|m| m.get(&o)) {
                    for &s in ss {
                        f(Triple::new(s, p, o));
                    }
                }
            }
            (Some(s), None, None) => {
                if let Some(pm) = self.spo.get(&s) {
                    for (&p, os) in pm {
                        for &o in os {
                            f(Triple::new(s, p, o));
                        }
                    }
                }
            }
            (None, Some(p), None) => {
                if let Some(om) = self.pos.get(&p) {
                    for (&o, ss) in om {
                        for &s in ss {
                            f(Triple::new(s, p, o));
                        }
                    }
                }
            }
            (None, None, Some(o)) => {
                if let Some(sm) = self.osp.get(&o) {
                    for (&s, ps) in sm {
                        for &p in ps {
                            f(Triple::new(s, p, o));
                        }
                    }
                }
            }
            (None, None, None) => {
                for &t in &self.all {
                    f(t);
                }
            }
        }
    }

    /// Collect all matches of `pat` into a vector.
    pub fn matches(&self, pat: TriplePattern) -> Vec<Triple> {
        let mut out = Vec::new();
        self.for_each_match(pat, |t| out.push(t));
        out
    }

    /// Number of matches without materializing them. Patterns with at
    /// least one bound position are answered from posting-list lengths —
    /// no iteration, no callback.
    pub fn count_matches(&self, pat: TriplePattern) -> usize {
        fn row_len(nested: &Nested, k0: NodeId) -> usize {
            nested
                .get(&k0)
                .map_or(0, |m| m.values().map(Vec::len).sum())
        }
        fn list_len(nested: &Nested, k0: NodeId, k1: NodeId) -> usize {
            nested
                .get(&k0)
                .and_then(|m| m.get(&k1))
                .map_or(0, Vec::len)
        }
        match (pat.s, pat.p, pat.o) {
            (Some(s), Some(p), Some(o)) => {
                usize::from(self.all.contains(&Triple::new(s, p, o)))
            }
            (Some(s), Some(p), None) => list_len(&self.spo, s, p),
            (None, Some(p), Some(o)) => list_len(&self.pos, p, o),
            (Some(s), None, Some(o)) => list_len(&self.osp, o, s),
            (Some(s), None, None) => row_len(&self.spo, s),
            (None, Some(p), None) => row_len(&self.pos, p),
            (None, None, Some(o)) => row_len(&self.osp, o),
            (None, None, None) => self.all.len(),
        }
    }

    /// The three nested indexes in `(spo, pos, osp)` order — the freeze
    /// path walks them to emit each column family in nearly-sorted runs
    /// instead of fully re-sorting the triple set.
    pub(crate) fn nested_indexes(&self) -> [&Nested; 3] {
        [&self.spo, &self.pos, &self.osp]
    }

    /// Every distinct node appearing in subject or object position.
    /// (Predicates are deliberately excluded: the paper's partitioners own
    /// *resources*, i.e. graph vertices.)
    pub fn nodes(&self) -> FxHashSet<NodeId> {
        let mut set = FxHashSet::default();
        for t in &self.all {
            set.insert(t.s);
            set.insert(t.o);
        }
        set
    }

    /// Every distinct subject.
    pub fn subjects(&self) -> FxHashSet<NodeId> {
        self.spo.keys().copied().collect()
    }

    /// Every distinct predicate.
    pub fn predicates(&self) -> FxHashSet<NodeId> {
        self.pos.keys().copied().collect()
    }

    /// Histogram `predicate -> triple count`; feeds the edge weights of the
    /// rule-dependency partitioner.
    pub fn predicate_counts(&self) -> FxHashMap<NodeId, usize> {
        let mut h: FxHashMap<NodeId, usize> = FxHashMap::default();
        for t in &self.all {
            *h.entry(t.p).or_default() += 1;
        }
        h
    }

    /// Merge all triples of `other` into `self`; returns how many were new.
    pub fn union_with(&mut self, other: &TripleStore) -> usize {
        self.extend(other.iter().copied())
    }
}

impl FromIterator<Triple> for TripleStore {
    fn from_iter<I: IntoIterator<Item = Triple>>(iter: I) -> Self {
        let mut s = TripleStore::new();
        s.extend(iter);
        s
    }
}

impl From<Vec<Triple>> for TripleStore {
    fn from(triples: Vec<Triple>) -> Self {
        triples.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u32, p: u32, o: u32) -> Triple {
        Triple::new(NodeId(s), NodeId(p), NodeId(o))
    }

    fn sample() -> TripleStore {
        [t(0, 1, 2), t(0, 1, 3), t(0, 2, 2), t(4, 1, 2), t(4, 2, 0)]
            .into_iter()
            .collect()
    }

    #[test]
    fn insert_deduplicates() {
        let mut s = TripleStore::new();
        assert!(s.insert(t(1, 2, 3)));
        assert!(!s.insert(t(1, 2, 3)));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn contains_and_len() {
        let s = sample();
        assert_eq!(s.len(), 5);
        assert!(s.contains(&t(0, 1, 2)));
        assert!(!s.contains(&t(9, 9, 9)));
    }

    #[test]
    fn all_eight_pattern_shapes() {
        let s = sample();
        let pat = |a: Option<u32>, b: Option<u32>, c: Option<u32>| {
            TriplePattern::new(a.map(NodeId), b.map(NodeId), c.map(NodeId))
        };
        // fully bound
        assert_eq!(s.matches(pat(Some(0), Some(1), Some(2))), vec![t(0, 1, 2)]);
        assert!(s.matches(pat(Some(0), Some(1), Some(9))).is_empty());
        // s p ?
        let mut m = s.matches(pat(Some(0), Some(1), None));
        m.sort_unstable();
        assert_eq!(m, vec![t(0, 1, 2), t(0, 1, 3)]);
        // s ? o
        let mut m = s.matches(pat(Some(0), None, Some(2)));
        m.sort_unstable();
        assert_eq!(m, vec![t(0, 1, 2), t(0, 2, 2)]);
        // ? p o
        let mut m = s.matches(pat(None, Some(1), Some(2)));
        m.sort_unstable();
        assert_eq!(m, vec![t(0, 1, 2), t(4, 1, 2)]);
        // s ? ?
        assert_eq!(s.matches(pat(Some(4), None, None)).len(), 2);
        // ? p ?
        assert_eq!(s.matches(pat(None, Some(1), None)).len(), 3);
        // ? ? o
        assert_eq!(s.matches(pat(None, None, Some(2))).len(), 3);
        // ? ? ?
        assert_eq!(s.matches(TriplePattern::any()).len(), 5);
    }

    #[test]
    fn matches_agree_with_linear_scan() {
        let s = sample();
        let pats = [
            TriplePattern::new(Some(NodeId(0)), None, None),
            TriplePattern::new(None, Some(NodeId(2)), None),
            TriplePattern::new(None, None, Some(NodeId(0))),
            TriplePattern::new(Some(NodeId(4)), Some(NodeId(2)), None),
            TriplePattern::any(),
        ];
        for pat in pats {
            let mut via_index = s.matches(pat);
            via_index.sort_unstable();
            let mut via_scan: Vec<Triple> =
                s.iter().copied().filter(|t| pat.matches(t)).collect();
            via_scan.sort_unstable();
            assert_eq!(via_index, via_scan, "pattern {pat:?}");
        }
    }

    #[test]
    fn nodes_excludes_predicates() {
        let s: TripleStore = [t(10, 99, 11)].into_iter().collect();
        let nodes = s.nodes();
        assert!(nodes.contains(&NodeId(10)));
        assert!(nodes.contains(&NodeId(11)));
        assert!(!nodes.contains(&NodeId(99)));
    }

    #[test]
    fn predicate_counts_histogram() {
        let s = sample();
        let h = s.predicate_counts();
        assert_eq!(h.get(&NodeId(1)), Some(&3));
        assert_eq!(h.get(&NodeId(2)), Some(&2));
    }

    #[test]
    fn union_with_counts_only_new() {
        let mut a = sample();
        let b: TripleStore = [t(0, 1, 2), t(7, 7, 7)].into_iter().collect();
        assert_eq!(a.union_with(&b), 1);
        assert_eq!(a.len(), 6);
    }

    #[test]
    fn iter_sorted_is_deterministic_and_complete() {
        let s = sample();
        let v = s.iter_sorted();
        assert_eq!(v.len(), 5);
        assert!(v.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn pattern_bound_count() {
        assert_eq!(TriplePattern::any().bound_count(), 0);
        assert_eq!(
            TriplePattern::new(Some(NodeId(0)), None, Some(NodeId(1))).bound_count(),
            2
        );
    }

    #[test]
    fn count_matches_equals_matches_len_for_all_shapes() {
        let s = sample();
        let opts = [None, Some(0), Some(1), Some(2), Some(4), Some(9)];
        for a in opts {
            for b in opts {
                for c in opts {
                    let pat =
                        TriplePattern::new(a.map(NodeId), b.map(NodeId), c.map(NodeId));
                    assert_eq!(
                        s.count_matches(pat),
                        s.matches(pat).len(),
                        "pattern {pat:?}"
                    );
                }
            }
        }
    }
}
