//! Canonical forms for pattern duplicate detection.
//!
//! The paper's enumeration algorithms prune patterns that are *isomorphic*
//! to previously discovered ones (graph isomorphism with the two targets
//! pinned). Instead of pairwise isomorphism tests against every existing
//! explanation (Algorithm 3's `duplicated()` is linear in the queue), we
//! compute a **canonical key** per pattern — the lexicographically smallest
//! edge-list serialization over all permutations of the non-target
//! variables — and dedupe with a hash set. Two patterns are isomorphic
//! (targets fixed) iff their keys are equal, so the check is exact for
//! every pattern the search covers.
//!
//! Patterns are tiny (the paper caps them at 5 nodes = 3 non-target
//! variables = 6 permutations), so brute-force permutation is both exact
//! and fast. The permutation generator is in-crate (Heap's algorithm) and
//! the cost is `(var_count - 2)!`. User queries can be larger, so the
//! search runs only up to 8 non-target variables (8! = 40320 candidates).
//! Above that the key keeps the pattern's own numbering: equal keys still
//! mean isomorphic patterns, but isomorphic spellings that number their
//! variables differently may get different keys.
//!
//! This is the only canonical-form search in the workspace: `rex plan`
//! prints a query's canonical form from the same relabeling
//! ([`crate::query::canonical_text`]).

use rex_relstore::plan::{PatternSpec, SpecEdge};

use crate::pattern::{Pattern, PatternEdge, VarId, END_VAR, START_VAR};

/// Non-target variable count up to which [`canonical_form`] searches
/// every relabeling; larger patterns keep the identity relabeling.
const EXACT_SEARCH_VARS: usize = 8;

/// A canonical pattern key: equal keys ⇔ isomorphic patterns (with targets
/// pinned; only ⇒ above 8 non-target variables). Suitable for
/// `HashSet`/`HashMap` deduplication.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CanonicalKey(Vec<u64>);

impl CanonicalKey {
    /// The packed serialization (for diagnostics).
    pub fn as_slice(&self) -> &[u64] {
        &self.0
    }

    /// The relational spec of the shape this key encodes: its variable
    /// count and every packed edge, with the targets at 0 and 1. Every
    /// pattern with this key is isomorphic to it with the targets pinned,
    /// so it evaluates to the same count distributions as their
    /// [`Pattern::to_spec`].
    pub fn to_spec(&self) -> PatternSpec {
        let (&var_count, packed) = self.0.split_first().expect("a key starts with its var count");
        PatternSpec {
            var_count: var_count as usize,
            start: START_VAR.index(),
            end: END_VAR.index(),
            edges: packed.iter().map(|&edge| unpack(edge)).collect(),
        }
    }

    /// Heap bytes the packed serialization holds.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.0.capacity() * std::mem::size_of::<u64>()
    }
}

/// Packs one normalized edge into a sortable `u64`.
fn pack(e: &PatternEdge) -> u64 {
    ((e.u.0 as u64) << 48)
        | ((e.v.0 as u64) << 40)
        | ((u64::from(e.directed)) << 32)
        | e.label.0 as u64
}

/// The spec edge of one [`pack`]ed edge.
fn unpack(edge: u64) -> SpecEdge {
    SpecEdge {
        u: (edge >> 48 & 0xff) as usize,
        v: (edge >> 40 & 0xff) as usize,
        label: edge & u64::from(u32::MAX),
        directed: edge >> 32 & 1 == 1,
    }
}

/// Serializes a pattern under a given relabeling of its variables.
/// `relabel[i]` is the new id of variable `i`; targets map to themselves.
fn serialize(pattern: &Pattern, relabel: &[u8]) -> Vec<u64> {
    let mut packed: Vec<u64> = pattern
        .edges()
        .iter()
        .map(|e| {
            let edge = PatternEdge::new(
                VarId(relabel[e.u.index()]),
                VarId(relabel[e.v.index()]),
                e.label,
                e.directed,
            );
            pack(&edge)
        })
        .collect();
    packed.sort_unstable();
    let mut out = Vec::with_capacity(packed.len() + 1);
    out.push(pattern.var_count() as u64);
    out.extend(packed);
    out
}

/// Computes the canonical key of a pattern together with the relabeling
/// that realizes it: `relabel[old_var] = canonical_var`. The relabeling
/// lets callers express *instances* in canonical variable order, so that
/// isomorphic patterns produced by different enumeration routes can be
/// compared instance-by-instance.
///
/// Above 8 non-target variables the relabeling is the identity: the key
/// stays sound (equal keys ⇒ isomorphic) but is no longer complete.
pub fn canonical_form(pattern: &Pattern) -> (CanonicalKey, Vec<u8>) {
    let n = pattern.var_count();
    let k = n.saturating_sub(2);
    // Identity relabeling covers k <= 1 outright, and stands in for the
    // factorial search above EXACT_SEARCH_VARS.
    let mut relabel: Vec<u8> = (0..n as u8).collect();
    if k <= 1 || k > EXACT_SEARCH_VARS {
        return (CanonicalKey(serialize(pattern, &relabel)), relabel);
    }
    let mut best = serialize(pattern, &relabel);
    let mut best_relabel = relabel.clone();
    // Heap's algorithm over the non-target suffix relabel[2..].
    let mut c = vec![0usize; k];
    let mut i = 0;
    while i < k {
        if c[i] < i {
            if i % 2 == 0 {
                relabel.swap(2, 2 + i);
            } else {
                relabel.swap(2 + c[i], 2 + i);
            }
            let candidate = serialize(pattern, &relabel);
            if candidate < best {
                best = candidate;
                best_relabel = relabel.clone();
            }
            c[i] += 1;
            i = 0;
        } else {
            c[i] = 0;
            i += 1;
        }
    }
    (CanonicalKey(best), best_relabel)
}

/// Computes the canonical key of a pattern.
pub fn canonical_key(pattern: &Pattern) -> CanonicalKey {
    canonical_form(pattern).0
}

/// Pairwise isomorphism test with the targets pinned — the literal
/// `duplicated()` check of Algorithm 3. Kept for the deduplication
/// ablation benchmark (canonical-key hash set vs. linear pairwise scans)
/// and as an independent oracle for [`canonical_key`]: two patterns are
/// isomorphic iff their canonical keys are equal, and this function checks
/// it by direct permutation search instead.
pub fn are_isomorphic(a: &Pattern, b: &Pattern) -> bool {
    if a.var_count() != b.var_count() || a.edge_count() != b.edge_count() {
        return false;
    }
    let n = a.var_count();
    let k = n.saturating_sub(2);
    let identity: Vec<u8> = (0..n as u8).collect();
    let target = serialize(b, &identity);
    let mut relabel = identity.clone();
    if serialize(a, &relabel) == target {
        return true;
    }
    if k <= 1 {
        return false;
    }
    // Heap's algorithm over a's non-target variables.
    let mut c = vec![0usize; k];
    let mut i = 0;
    while i < k {
        if c[i] < i {
            if i % 2 == 0 {
                relabel.swap(2, 2 + i);
            } else {
                relabel.swap(2 + c[i], 2 + i);
            }
            if serialize(a, &relabel) == target {
                return true;
            }
            c[i] += 1;
            i = 0;
        } else {
            c[i] = 0;
            i += 1;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use rex_kb::LabelId;

    fn l(i: u32) -> LabelId {
        LabelId(i)
    }

    fn v(i: u8) -> VarId {
        VarId(i)
    }

    #[test]
    fn isomorphic_patterns_share_a_key() {
        // start->v2->end vs start->v3... not expressible (vars are dense);
        // instead: two-variable diamond with swapped roles.
        // P1: start->v2 (a), v2->end (b), start->v3 (c), v3->end (d)
        // P2: same with v2 and v3 swapped.
        let p1 = Pattern::new(
            4,
            vec![
                PatternEdge::new(v(0), v(2), l(10), true),
                PatternEdge::new(v(2), v(1), l(11), true),
                PatternEdge::new(v(0), v(3), l(12), true),
                PatternEdge::new(v(3), v(1), l(13), true),
            ],
        )
        .unwrap();
        let p2 = Pattern::new(
            4,
            vec![
                PatternEdge::new(v(0), v(3), l(10), true),
                PatternEdge::new(v(3), v(1), l(11), true),
                PatternEdge::new(v(0), v(2), l(12), true),
                PatternEdge::new(v(2), v(1), l(13), true),
            ],
        )
        .unwrap();
        assert_ne!(p1, p2);
        assert_eq!(canonical_key(&p1), canonical_key(&p2));
    }

    #[test]
    fn targets_are_not_interchangeable() {
        // start->end vs end->start are different explanations.
        let p1 = Pattern::new(2, vec![PatternEdge::new(v(0), v(1), l(0), true)]).unwrap();
        let p2 = Pattern::new(2, vec![PatternEdge::new(v(1), v(0), l(0), true)]).unwrap();
        assert_ne!(canonical_key(&p1), canonical_key(&p2));
    }

    #[test]
    fn different_labels_different_keys() {
        let p1 = Pattern::new(2, vec![PatternEdge::new(v(0), v(1), l(0), false)]).unwrap();
        let p2 = Pattern::new(2, vec![PatternEdge::new(v(0), v(1), l(1), false)]).unwrap();
        assert_ne!(canonical_key(&p1), canonical_key(&p2));
    }

    #[test]
    fn direction_matters() {
        let p1 = Pattern::new(2, vec![PatternEdge::new(v(0), v(1), l(0), true)]).unwrap();
        let p2 = Pattern::new(2, vec![PatternEdge::new(v(0), v(1), l(0), false)]).unwrap();
        assert_ne!(canonical_key(&p1), canonical_key(&p2));
    }

    #[test]
    fn var_count_is_part_of_the_key() {
        // Same edge set, one extra (necessarily isolated) variable is
        // invalid, so compare 2-var vs 3-var path shapes instead.
        let p1 = Pattern::new(2, vec![PatternEdge::new(v(0), v(1), l(0), true)]).unwrap();
        let p2 = Pattern::new(
            3,
            vec![
                PatternEdge::new(v(0), v(2), l(0), true),
                PatternEdge::new(v(2), v(1), l(0), true),
            ],
        )
        .unwrap();
        assert_ne!(canonical_key(&p1), canonical_key(&p2));
    }

    #[test]
    fn key_is_permutation_invariant_three_vars() {
        // Triangle of variables v2,v3,v4 around the targets; relabel in all
        // 6 ways and verify a single key.
        let base = |a: u8, b: u8, c: u8| {
            Pattern::new(
                5,
                vec![
                    PatternEdge::new(v(0), v(a), l(1), true),
                    PatternEdge::new(v(a), v(b), l(2), true),
                    PatternEdge::new(v(b), v(c), l(3), true),
                    PatternEdge::new(v(c), v(1), l(4), true),
                ],
            )
            .unwrap()
        };
        let reference = canonical_key(&base(2, 3, 4));
        for (a, b, c) in [(2, 3, 4), (2, 4, 3), (3, 2, 4), (3, 4, 2), (4, 2, 3), (4, 3, 2)] {
            assert_eq!(canonical_key(&base(a, b, c)), reference, "perm ({a},{b},{c})");
        }
    }

    /// A key's spec is the pattern under the key's relabeling: the
    /// targets at 0 and 1, and the edges in key order.
    #[test]
    fn key_spec_is_the_canonical_relabeling() {
        // start->v3, v3->v2, v2-end: swapping v2 and v3 serializes smaller
        // (its first edge is start->v2).
        let p = Pattern::new(
            4,
            vec![
                PatternEdge::new(v(0), v(3), l(5), true),
                PatternEdge::new(v(3), v(2), l(6), true),
                PatternEdge::new(v(2), v(1), l(7), false),
            ],
        )
        .unwrap();
        let edge = |u, v, label, directed| SpecEdge { u, v, label, directed };
        let spec = canonical_key(&p).to_spec();
        assert_eq!((spec.var_count, spec.start, spec.end), (4, 0, 1));
        assert_eq!(spec.edges, [edge(0, 2, 5, true), edge(1, 3, 7, false), edge(2, 3, 6, true)]);
        assert_ne!(spec, p.to_spec());
    }

    /// On a generated KB, the spec read back from an enumerated pattern's
    /// key counts every start's distribution as the pattern's own spec
    /// does, and as a pattern it has the same key. Each pattern is also
    /// taken with its non-target variables numbered in reverse, so the
    /// key's relabeling is exercised.
    #[test]
    fn key_spec_counts_like_the_pattern_spec() {
        use crate::enumerate::GeneralEnumerator;
        use crate::EnumConfig;
        use rex_datagen::{generate, sample_pairs, GeneratorConfig};
        use rex_relstore::engine::{count_distributions, EdgeIndex, EvalRequest};
        let kb = generate(&GeneratorConfig::tiny(2011));
        let index = EdgeIndex::build(&kb);
        let enumerator = GeneralEnumerator::new(EnumConfig::default().with_max_nodes(5));
        let (mut patterns, mut relabeled, mut counted) = (0, 0, 0);
        for pair in sample_pairs(&kb, 1, 4, 2011) {
            let starts: Vec<u64> =
                (0..kb.node_count() as u64).step_by(7).chain([pair.start.0 as u64]).collect();
            let req = EvalRequest { starts: &starts, ..EvalRequest::default() };
            let counts = |spec: &PatternSpec| {
                let batch = count_distributions(&index, spec, &req).unwrap();
                (batch.per_start, batch.evaluated)
            };
            for e in enumerator.enumerate(&kb, pair.start, pair.end).explanations {
                let n = e.pattern.var_count() as u8;
                let reverse = |x: VarId| if x.0 < 2 { x } else { VarId(n + 1 - x.0) };
                let reversed: Vec<PatternEdge> = (e.pattern.edges().iter())
                    .map(|pe| PatternEdge::new(reverse(pe.u), reverse(pe.v), pe.label, pe.directed))
                    .collect();
                let reversed = Pattern::new(n, reversed).unwrap();
                let spec = e.key().to_spec();
                let expected = counts(&spec);
                counted += expected.0.len();
                for own in [e.pattern.to_spec(), reversed.to_spec()] {
                    relabeled += usize::from(own != spec);
                    assert_eq!(counts(&own), expected, "{own:?} against {spec:?}");
                }
                let edges = (spec.edges.iter())
                    .map(|se| {
                        PatternEdge::new(
                            v(se.u as u8),
                            v(se.v as u8),
                            l(se.label as u32),
                            se.directed,
                        )
                    })
                    .collect();
                let back = Pattern::new(spec.var_count as u8, edges).unwrap();
                assert_eq!(&canonical_key(&back), e.key());
                patterns += 1;
            }
        }
        assert!(patterns >= 20 && relabeled > patterns / 4, "{patterns} patterns, {relabeled}");
        assert!(counted > patterns, "{counted} starts with instances over {patterns} patterns");
    }

    #[test]
    fn non_isomorphic_same_size_differ() {
        // Path start->v2->end with labels (1,2) vs (2,1).
        let p1 = Pattern::new(
            3,
            vec![
                PatternEdge::new(v(0), v(2), l(1), true),
                PatternEdge::new(v(2), v(1), l(2), true),
            ],
        )
        .unwrap();
        let p2 = Pattern::new(
            3,
            vec![
                PatternEdge::new(v(0), v(2), l(2), true),
                PatternEdge::new(v(2), v(1), l(1), true),
            ],
        )
        .unwrap();
        assert_ne!(canonical_key(&p1), canonical_key(&p2));
    }
}

#[cfg(test)]
mod iso_tests {
    use super::*;
    use rex_kb::LabelId;

    fn v(i: u8) -> VarId {
        VarId(i)
    }

    fn l(i: u32) -> LabelId {
        LabelId(i)
    }

    #[test]
    fn pairwise_isomorphism_agrees_with_keys() {
        let p1 = Pattern::new(
            4,
            vec![
                PatternEdge::new(v(0), v(2), l(10), true),
                PatternEdge::new(v(2), v(1), l(11), true),
                PatternEdge::new(v(0), v(3), l(12), true),
                PatternEdge::new(v(3), v(1), l(13), true),
            ],
        )
        .unwrap();
        let p2 = Pattern::new(
            4,
            vec![
                PatternEdge::new(v(0), v(3), l(10), true),
                PatternEdge::new(v(3), v(1), l(11), true),
                PatternEdge::new(v(0), v(2), l(12), true),
                PatternEdge::new(v(2), v(1), l(13), true),
            ],
        )
        .unwrap();
        let p3 = Pattern::new(
            4,
            vec![
                PatternEdge::new(v(0), v(2), l(10), true),
                PatternEdge::new(v(2), v(1), l(12), true),
                PatternEdge::new(v(0), v(3), l(11), true),
                PatternEdge::new(v(3), v(1), l(13), true),
            ],
        )
        .unwrap();
        assert!(are_isomorphic(&p1, &p2));
        assert!(are_isomorphic(&p2, &p1));
        assert!(!are_isomorphic(&p1, &p3));
        assert_eq!(are_isomorphic(&p1, &p2), canonical_key(&p1) == canonical_key(&p2));
        assert_eq!(are_isomorphic(&p1, &p3), canonical_key(&p1) == canonical_key(&p3));
    }

    #[test]
    fn different_shapes_never_isomorphic() {
        let direct = Pattern::new(2, vec![PatternEdge::new(v(0), v(1), l(0), true)]).unwrap();
        let hop = Pattern::new(
            3,
            vec![
                PatternEdge::new(v(0), v(2), l(0), true),
                PatternEdge::new(v(2), v(1), l(0), true),
            ],
        )
        .unwrap();
        assert!(!are_isomorphic(&direct, &hop));
        assert!(are_isomorphic(&direct, &direct));
    }
}
