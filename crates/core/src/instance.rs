//! Explanation instances (paper Definition 2).

use rex_kb::NodeId;

use crate::pattern::{Pattern, VarId, END_VAR, START_VAR};

/// An instance of a pattern: a total assignment of pattern variables to
/// knowledge-base entities, indexed by [`VarId`]. Slot 0 is always the
/// start target, slot 1 the end target.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Instance {
    assignment: Box<[NodeId]>,
}

impl Instance {
    /// Creates an instance from a full assignment (`assignment[i]` binds
    /// variable `i`).
    pub fn new(assignment: Vec<NodeId>) -> Instance {
        Instance { assignment: assignment.into_boxed_slice() }
    }

    /// The entity bound to `var`.
    #[inline]
    pub fn get(&self, var: VarId) -> NodeId {
        self.assignment[var.index()]
    }

    /// The start target's entity.
    #[inline]
    pub fn start(&self) -> NodeId {
        self.get(START_VAR)
    }

    /// The end target's entity.
    #[inline]
    pub fn end(&self) -> NodeId {
        self.get(END_VAR)
    }

    /// Number of variables covered.
    #[inline]
    pub fn len(&self) -> usize {
        self.assignment.len()
    }

    /// Whether the assignment is empty (never true for real instances).
    pub fn is_empty(&self) -> bool {
        self.assignment.is_empty()
    }

    /// The raw assignment.
    #[inline]
    pub fn as_slice(&self) -> &[NodeId] {
        &self.assignment
    }

    /// Whether all variables bind pairwise-distinct entities, as REX's
    /// injective instance semantics requires.
    pub fn is_injective(&self) -> bool {
        // Quadratic over ≤ ~8 variables beats allocating a set.
        for i in 0..self.assignment.len() {
            for j in i + 1..self.assignment.len() {
                if self.assignment[i] == self.assignment[j] {
                    return false;
                }
            }
        }
        true
    }
}

/// The sorted, distinct entities `var` binds across `instances`.
pub(crate) fn column(instances: &[Instance], var: VarId) -> Vec<NodeId> {
    let mut ids: Vec<NodeId> = instances.iter().map(|i| i.get(var)).collect();
    ids.sort_unstable();
    ids.dedup();
    ids
}

/// Per-variable count of distinct bound entities across an instance set —
/// the `uniq(v)` of the monocount measure (§4.2).
pub fn uniq_counts(pattern: &Pattern, instances: &[Instance]) -> Vec<usize> {
    (0..pattern.var_count()).map(|v| column(instances, VarId(v as u8)).len()).collect()
}

/// Verifies that `instance` satisfies `pattern` against the knowledge base:
/// every pattern edge is realized with the right label and direction, the
/// targets are respected, and (under injective semantics) variables are
/// pairwise distinct. Used by tests and debug assertions; the enumerators
/// construct instances that satisfy this by construction.
pub fn satisfies(
    kb: &rex_kb::KnowledgeBase,
    pattern: &Pattern,
    instance: &Instance,
    injective: bool,
) -> bool {
    if instance.len() != pattern.var_count() {
        return false;
    }
    if injective && !instance.is_injective() {
        return false;
    }
    // Non-target variables must avoid the target entities (Definition 2).
    for v in 2..pattern.var_count() {
        let bound = instance.get(VarId(v as u8));
        if bound == instance.start() || bound == instance.end() {
            return false;
        }
    }
    for e in pattern.edges() {
        let u = instance.get(e.u);
        let v = instance.get(e.v);
        let ok = if e.directed {
            kb.has_edge(u, v, e.label, rex_kb::Orientation::Out)
        } else {
            kb.has_edge(u, v, e.label, rex_kb::Orientation::Undirected)
        };
        if !ok {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::EdgeDir;

    #[test]
    fn accessors() {
        let i = Instance::new(vec![NodeId(3), NodeId(7), NodeId(9)]);
        assert_eq!(i.start(), NodeId(3));
        assert_eq!(i.end(), NodeId(7));
        assert_eq!(i.get(VarId(2)), NodeId(9));
        assert_eq!(i.len(), 3);
        assert!(!i.is_empty());
        assert!(i.is_injective());
    }

    #[test]
    fn injectivity_detected() {
        let i = Instance::new(vec![NodeId(3), NodeId(7), NodeId(3)]);
        assert!(!i.is_injective());
    }

    #[test]
    fn uniq_counts_per_variable() {
        let kb = rex_kb::toy::entertainment();
        let starring = kb.label_by_name("starring").unwrap();
        let p =
            Pattern::path(&[(starring, EdgeDir::Forward), (starring, EdgeDir::Backward)]).unwrap();
        let instances = vec![
            Instance::new(vec![NodeId(0), NodeId(1), NodeId(10)]),
            Instance::new(vec![NodeId(0), NodeId(1), NodeId(11)]),
            Instance::new(vec![NodeId(0), NodeId(1), NodeId(10)]),
        ];
        let uniq = uniq_counts(&p, &instances);
        assert_eq!(uniq, vec![1, 1, 2]);
    }

    #[test]
    fn satisfies_checks_edges_and_targets() {
        let kb = rex_kb::toy::entertainment();
        let starring = kb.label_by_name("starring").unwrap();
        let p =
            Pattern::path(&[(starring, EdgeDir::Forward), (starring, EdgeDir::Backward)]).unwrap();
        let bp = kb.require_node("brad_pitt").unwrap();
        let aj = kb.require_node("angelina_jolie").unwrap();
        let mams = kb.require_node("mr_and_mrs_smith").unwrap();
        let good = Instance::new(vec![bp, aj, mams]);
        assert!(satisfies(&kb, &p, &good, true));
        // Wrong movie.
        let titanic = kb.require_node("titanic").unwrap();
        let bad = Instance::new(vec![bp, aj, titanic]);
        assert!(!satisfies(&kb, &p, &bad, true));
        // Non-target variable bound to a target entity.
        let degenerate = Instance::new(vec![bp, aj, bp]);
        assert!(!satisfies(&kb, &p, &degenerate, true));
        assert!(!satisfies(&kb, &p, &degenerate, false));
        // Wrong arity.
        let short = Instance::new(vec![bp, aj]);
        assert!(!satisfies(&kb, &p, &short, true));
    }
}
