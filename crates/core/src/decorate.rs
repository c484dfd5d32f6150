//! Explanation decoration — the "separate stage" §2.3 defers.
//!
//! REX restricts enumeration to *essential* patterns, but the paper notes
//! that non-essential nodes and edges "can be meaningful … akin to putting
//! attribute constraints on the essential nodes" (Example 2: the movie
//! node's director), and defers adding them to a post-processing stage
//! once the interesting essential patterns are known. This module is that
//! stage.
//!
//! Given a ranked explanation, [`decorate`] examines the entities its
//! instances bind and proposes up to `max_per_var` *decorations* per
//! non-target variable: incident knowledge-base edges leading outside the
//! pattern, scored by informativeness. An edge is informative when it is
//! **consistent** (the same decoration applies across many instances — all
//! the co-starred movies share the `action` genre) and **rare** (its label
//! is infrequent in the KB — `won` beats `genre`). The scoring is a simple
//! product of the two signals; the stage is presentation-level and makes
//! no claims about minimality.

use std::collections::HashMap;

use rex_kb::{KnowledgeBase, LabelId, NodeId, Orientation};

use crate::explanation::Explanation;
use crate::pattern::VarId;

/// One proposed decoration: an attribute-like edge on a pattern variable.
#[derive(Debug, Clone, PartialEq)]
pub struct Decoration {
    /// The decorated pattern variable.
    pub var: VarId,
    /// The decoration edge's label.
    pub label: LabelId,
    /// Orientation of the edge as seen from the decorated variable.
    pub orientation: Orientation,
    /// Example target entity (from the first supporting instance).
    pub example: NodeId,
    /// Fraction of instances whose binding carries this decoration.
    pub support: f64,
    /// Informativeness score (higher = shown first).
    pub score: f64,
}

impl Decoration {
    /// Human-readable rendering, e.g. `v2 -[genre]-> action (support 100%)`.
    pub fn describe(&self, kb: &KnowledgeBase) -> String {
        let arrow = match self.orientation {
            Orientation::Out => format!("-[{}]->", kb.label_name(self.label)),
            Orientation::In => format!("<-[{}]-", kb.label_name(self.label)),
            Orientation::Undirected => format!("-[{}]-", kb.label_name(self.label)),
        };
        format!(
            "{} {arrow} {} (support {:.0}%)",
            self.var,
            kb.node_name(self.example),
            self.support * 100.0
        )
    }
}

/// Proposes up to `max_per_var` decorations per non-target variable of an
/// explanation, ordered by score (best first). Edges already in the
/// pattern, edges to target entities, and edges into other pattern
/// bindings are excluded — those are the essential structure itself.
///
/// ```
/// use rex_core::{enumerate::GeneralEnumerator, EnumConfig};
/// use rex_core::decorate::decorate;
///
/// let kb = rex_kb::toy::entertainment();
/// let kate = kb.require_node("kate_winslet").unwrap();
/// let leo = kb.require_node("leonardo_dicaprio").unwrap();
/// let out = GeneralEnumerator::new(EnumConfig::default()).enumerate(&kb, kate, leo);
/// let costar = out.explanations.iter().find(|e| e.pattern.is_path()).unwrap();
/// let extra = decorate(&kb, costar, 2);
/// assert!(!extra.is_empty()); // e.g. the movie's director and genre
/// ```
pub fn decorate(
    kb: &KnowledgeBase,
    explanation: &Explanation,
    max_per_var: usize,
) -> Vec<Decoration> {
    if explanation.instances.is_empty() || max_per_var == 0 {
        return Vec::new();
    }
    let total_edges = kb.edge_count().max(1) as f64;
    // Label frequency for the rarity signal.
    let label_freq: HashMap<LabelId, usize> = rex_kb::stats::label_histogram(kb);
    let n_instances = explanation.instances.len() as f64;

    let mut out = Vec::new();
    for v in 2..explanation.pattern.var_count() as u8 {
        let var = VarId(v);
        // Group candidate decorations by (label, orientation): support is
        // the share of instances whose binding has at least one such edge.
        #[derive(Default)]
        struct Cand {
            instances_with: usize,
            example: Option<NodeId>,
        }
        let mut cands: HashMap<(LabelId, Orientation), Cand> = HashMap::new();
        for inst in &explanation.instances {
            let node = inst.get(var);
            let mut seen_here: Vec<(LabelId, Orientation)> = Vec::new();
            for nb in kb.neighbors(node) {
                // Exclude edges into the pattern's own bindings: those are
                // (or compete with) essential structure.
                if inst.as_slice().contains(&nb.other()) {
                    continue;
                }
                let key = (nb.label(), nb.orientation());
                if seen_here.contains(&key) {
                    continue;
                }
                seen_here.push(key);
                let cand = cands.entry(key).or_default();
                cand.instances_with += 1;
                cand.example.get_or_insert(nb.other());
            }
        }
        let mut scored: Vec<Decoration> = cands
            .into_iter()
            .map(|((label, orientation), cand)| {
                let support = cand.instances_with as f64 / n_instances;
                let freq = label_freq.get(&label).copied().unwrap_or(0) as f64;
                // Rarity in (0, 1]: rare labels near 1.
                let rarity = 1.0 - (freq / total_edges);
                Decoration {
                    var,
                    label,
                    orientation,
                    example: cand.example.expect("counted instances have examples"),
                    support,
                    score: support * rarity,
                }
            })
            .collect();
        scored.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .expect("scores are finite")
                .then_with(|| (a.label, a.orientation.code()).cmp(&(b.label, b.orientation.code())))
        });
        out.extend(scored.into_iter().take(max_per_var));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::GeneralEnumerator;
    use crate::EnumConfig;

    fn costar_explanation() -> (KnowledgeBase, Explanation) {
        let kb = rex_kb::toy::entertainment();
        let a = kb.require_node("kate_winslet").unwrap();
        let b = kb.require_node("leonardo_dicaprio").unwrap();
        let out =
            GeneralEnumerator::new(EnumConfig::default().with_max_nodes(3)).enumerate(&kb, a, b);
        let costar = out
            .explanations
            .iter()
            .find(|e| e.pattern.is_path() && e.pattern.describe(&kb).contains("starring"))
            .expect("co-star explanation")
            .clone();
        (kb, costar)
    }

    #[test]
    fn decorates_costar_movie_with_director() {
        let (kb, costar) = costar_explanation();
        let decorations = decorate(&kb, &costar, 3);
        assert!(!decorations.is_empty());
        // The movie variable should acquire a directed_by decoration —
        // exactly the Example 2 scenario.
        let directed_by = kb.label_by_name("directed_by").unwrap();
        let dir = decorations.iter().find(|d| d.label == directed_by);
        assert!(dir.is_some(), "{decorations:?}");
        let dir = dir.unwrap();
        assert_eq!(dir.var, VarId(2));
        // The KB stores `movie --directed_by--> director`, so from the
        // movie variable the decoration points outward.
        assert_eq!(dir.orientation, Orientation::Out);
        let rendered = dir.describe(&kb);
        assert!(rendered.contains("directed_by"), "{rendered}");
    }

    #[test]
    fn respects_max_per_var() {
        let (kb, costar) = costar_explanation();
        let all = decorate(&kb, &costar, 10);
        let one = decorate(&kb, &costar, 1);
        // One non-target variable → at most one decoration.
        assert_eq!(one.len().min(1), one.len());
        assert!(one.len() <= all.len());
        assert!(!one.is_empty());
        // Best-first: the single returned decoration is the top-scored one.
        assert_eq!(one[0], all[0]);
    }

    #[test]
    fn support_reflects_instance_agreement() {
        let (kb, costar) = costar_explanation();
        // Kate & Leo co-starred in Titanic (romance, dir. Cameron) and
        // Revolutionary Road (drama, dir. Mendes): directed_by support is
        // 100% (both movies have a director), genre likewise.
        let decorations = decorate(&kb, &costar, 10);
        for d in &decorations {
            assert!(d.support > 0.0 && d.support <= 1.0);
        }
        let directed_by = kb.label_by_name("directed_by").unwrap();
        let dir = decorations.iter().find(|d| d.label == directed_by).unwrap();
        assert_eq!(dir.support, 1.0);
    }

    #[test]
    fn no_decorations_for_direct_edges_or_empty() {
        let kb = rex_kb::toy::entertainment();
        let spouse = kb.label_by_name("spouse").unwrap();
        let p = crate::pattern::Pattern::path(&[(spouse, crate::pattern::EdgeDir::Undirected)])
            .unwrap();
        let a = kb.require_node("brad_pitt").unwrap();
        let b = kb.require_node("angelina_jolie").unwrap();
        let e = Explanation::new(p.clone(), vec![crate::Instance::new(vec![a, b])]);
        // No non-target variables → nothing to decorate.
        assert!(decorate(&kb, &e, 3).is_empty());
        let empty = Explanation::new(p, vec![]);
        assert!(decorate(&kb, &empty, 3).is_empty());
        assert!(decorate(&kb, &e, 0).is_empty());
    }
}
