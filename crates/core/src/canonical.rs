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

use crate::pattern::{Pattern, PatternEdge, VarId};

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
}

/// Packs one normalized edge into a sortable `u64`.
fn pack(e: &PatternEdge) -> u64 {
    ((e.u.0 as u64) << 48)
        | ((e.v.0 as u64) << 40)
        | ((u64::from(e.directed)) << 32)
        | e.label.0 as u64
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
