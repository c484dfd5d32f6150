//! The knowledge-base generator.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rex_kb::{KbBuilder, KnowledgeBase, NodeId};

use crate::config::GeneratorConfig;
use crate::labels::{tail_label, ZipfSampler};
use crate::schema::{CORE_EDGE_SHARE, RELS, TYPES};

/// A preferential-attachment endpoint pool: sampling returns previously
/// sampled nodes with probability proportional to how often they were
/// sampled, blended with a uniform component.
struct PaPool {
    /// Occurrence list: every node appears once initially; a sampled node
    /// is re-appended with probability `pa`, so future draws favour it.
    occurrences: Vec<NodeId>,
    pa: f64,
}

impl PaPool {
    fn new(members: Vec<NodeId>, pa: f64) -> Self {
        PaPool { occurrences: members, pa }
    }

    fn is_empty(&self) -> bool {
        self.occurrences.is_empty()
    }

    fn sample(&mut self, rng: &mut StdRng) -> NodeId {
        let i = rng.gen_range(0..self.occurrences.len());
        let chosen = self.occurrences[i];
        if rng.gen::<f64>() < self.pa {
            self.occurrences.push(chosen);
        }
        chosen
    }
}

/// Why the generator's label interning cannot fail: a KB takes 2^30
/// labels, and interning that many would exhaust memory first.
const LABELS_FIT: &str = "a generated label universe fits the KB's label limit";

/// Generates a deterministic synthetic entertainment knowledge base from
/// `config`. See the crate docs for the properties being modeled.
pub fn generate(config: &GeneratorConfig) -> KnowledgeBase {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut builder = KbBuilder::with_capacity(config.nodes, config.edges);

    // ---- Label universe -------------------------------------------------
    // Core labels first (stable ids across scales), then the Zipf tail.
    for rel in RELS {
        builder.intern_label(rel.label).expect(LABELS_FIT);
    }
    let tail_count = config.labels.saturating_sub(RELS.len()).max(1);
    for i in 0..tail_count {
        builder.intern_label(&tail_label(i)).expect(LABELS_FIT);
    }

    // ---- Nodes -----------------------------------------------------------
    // Allocate per-type populations by share; remainder goes to type 0.
    let mut per_type: Vec<usize> =
        TYPES.iter().map(|t| (t.share * config.nodes as f64).floor() as usize).collect();
    let allocated: usize = per_type.iter().sum();
    per_type[0] += config.nodes.saturating_sub(allocated);

    let mut type_members: Vec<Vec<NodeId>> = Vec::with_capacity(TYPES.len());
    for (ti, spec) in TYPES.iter().enumerate() {
        let mut members = Vec::with_capacity(per_type[ti]);
        for i in 0..per_type[ti] {
            let name = format!("{}_{i:06}", spec.name.to_ascii_lowercase());
            members.push(builder.add_node(&name, spec.name));
        }
        type_members.push(members);
    }

    // ---- Preferential-attachment pools ------------------------------------
    let pa = config.preferential_attachment;
    let mut pools: Vec<PaPool> = type_members.iter().map(|m| PaPool::new(m.clone(), pa)).collect();
    let all_nodes: Vec<NodeId> = type_members.iter().flatten().copied().collect();
    let mut global_pool = PaPool::new(all_nodes, pa);

    // ---- Core edges --------------------------------------------------------
    let core_edges = (config.edges as f64 * CORE_EDGE_SHARE).round() as usize;
    // Per-relation quota, proportional to its share of the core.
    for rel in RELS {
        let quota = (core_edges as f64 * rel.share / CORE_EDGE_SHARE).round() as usize;
        if pools[rel.src_type].is_empty() || pools[rel.dst_type].is_empty() {
            continue;
        }
        for _ in 0..quota {
            // Resample a few times to avoid self-edges on same-type
            // relations; give up quietly if unlucky (tiny KBs).
            let mut src = pools[rel.src_type].sample(&mut rng);
            let mut dst = pools[rel.dst_type].sample(&mut rng);
            let mut tries = 0;
            while src == dst && tries < 4 {
                src = pools[rel.src_type].sample(&mut rng);
                dst = pools[rel.dst_type].sample(&mut rng);
                tries += 1;
            }
            if src == dst {
                continue;
            }
            if rel.directed {
                builder.add_directed_edge(src, dst, rel.label).expect(LABELS_FIT);
            } else {
                builder.add_undirected_edge(src, dst, rel.label).expect(LABELS_FIT);
            }
        }
    }

    // ---- Long-tail edges ----------------------------------------------------
    let tail_edges = config.edges.saturating_sub(builder.edge_count());
    let zipf = ZipfSampler::new(tail_count, config.label_zipf_exponent);
    let tail_names: Vec<String> = (0..tail_count).map(tail_label).collect();
    for _ in 0..tail_edges {
        let label = &tail_names[zipf.sample(&mut rng)];
        let src = global_pool.sample(&mut rng);
        let dst = global_pool.sample(&mut rng);
        if src == dst {
            continue;
        }
        builder.add_directed_edge(src, dst, label).expect(LABELS_FIT);
    }

    builder.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rex_kb::stats;

    #[test]
    fn generates_close_to_target_sizes() {
        let cfg = GeneratorConfig::tiny(7);
        let kb = generate(&cfg);
        assert_eq!(kb.node_count(), cfg.nodes);
        let e = kb.edge_count() as f64;
        assert!(
            (e - cfg.edges as f64).abs() / (cfg.edges as f64) < 0.05,
            "edge count {e} too far from target {}",
            cfg.edges
        );
        assert_eq!(kb.label_count(), cfg.labels);
        assert_eq!(kb.type_count(), 20);
    }

    #[test]
    fn deterministic_under_seed() {
        let a = generate(&GeneratorConfig::tiny(11));
        let b = generate(&GeneratorConfig::tiny(11));
        assert_eq!(a.node_count(), b.node_count());
        assert_eq!(a.edge_count(), b.edge_count());
        for eid in a.edge_ids() {
            assert_eq!(a.edge(eid), b.edge(eid));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(&GeneratorConfig::tiny(1));
        let b = generate(&GeneratorConfig::tiny(2));
        let same = a
            .edge_ids()
            .take(100)
            .filter(|&e| b.edge_count() > e.index() && a.edge(e) == b.edge(e))
            .count();
        assert!(same < 100, "seeds produced identical edge prefixes");
    }

    #[test]
    fn degree_distribution_is_heavy_tailed() {
        let kb = generate(&GeneratorConfig::tiny(3));
        let d = stats::degree_stats(&kb);
        // Preferential attachment: max degree far above the mean.
        assert!(
            d.max as f64 > d.mean * 5.0,
            "max {} vs mean {:.2} — not heavy-tailed",
            d.max,
            d.mean
        );
    }

    #[test]
    fn type_constraints_hold_for_core_relations() {
        let kb = generate(&GeneratorConfig::tiny(5));
        let starring = kb.label_by_name("starring").unwrap();
        for eid in kb.edge_ids() {
            let e = kb.edge(eid);
            if e.label == starring {
                assert_eq!(kb.node_type_name(e.src), "Person");
                assert_eq!(kb.node_type_name(e.dst), "Movie");
                assert!(e.directed);
            }
        }
    }

    #[test]
    fn spouse_edges_are_undirected() {
        let kb = generate(&GeneratorConfig::tiny(5));
        let spouse = kb.label_by_name("spouse").unwrap();
        let mut saw = 0;
        for eid in kb.edge_ids() {
            let e = kb.edge(eid);
            if e.label == spouse {
                assert!(!e.directed);
                saw += 1;
            }
        }
        assert!(saw > 0, "no spouse edges generated");
    }
}
