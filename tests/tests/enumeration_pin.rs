//! Behaviour pin for explanation enumeration on generated, hub-heavy KBs:
//! for each sampled pair, every `EnumStats` counter and a digest of the
//! output in order, under both path-union algorithms. The values were
//! recorded before enumeration kept its partial paths in an arena and
//! indexed union candidates by entity, so a change to the output, its
//! order, or the work counted shows up here.

use rex_core::enumerate::paths::enumerate_paths;
use rex_core::enumerate::{EnumStats, GeneralEnumerator, PathAlgo, UnionAlgo};
use rex_core::{EnumConfig, Explanation};
use rex_datagen::{generate, sample_pairs, GeneratorConfig};
use rex_kb::{KnowledgeBase, NodeId};

/// Pattern size of the benchmark's enumerations; the instance cap is low
/// enough that some path and merged explanations saturate.
fn config() -> EnumConfig {
    EnumConfig::default().with_max_nodes(5).with_instance_cap(20)
}

/// A generated KB and its sampled pairs: `(name, kb, pairs)`.
type Case = (&'static str, KnowledgeBase, Vec<(NodeId, NodeId)>);

fn cases() -> Vec<Case> {
    [("tiny", GeneratorConfig::tiny(2011), 3), ("small", GeneratorConfig::small(2011), 3)]
        .into_iter()
        .map(|(name, cfg, per_group)| {
            let kb = generate(&cfg);
            let pairs =
                sample_pairs(&kb, per_group, 4, 2011).iter().map(|p| (p.start, p.end)).collect();
            (name, kb, pairs)
        })
        .collect()
}

/// FNV-1a over the explanations in order: each one's canonical key,
/// pattern edges, saturation flag and instances in order.
fn digest(explanations: &[Explanation]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for e in explanations {
        mix(e.key().as_slice().len() as u64);
        for &k in e.key().as_slice() {
            mix(k);
        }
        mix(e.pattern.var_count() as u64);
        for edge in e.pattern.edges() {
            mix(edge.u.index() as u64);
            mix(edge.v.index() as u64);
            mix(u64::from(edge.label.0));
            mix(u64::from(edge.directed));
        }
        mix(u64::from(e.saturated));
        mix(e.instances.len() as u64);
        for i in &e.instances {
            for n in i.as_slice() {
                mix(u64::from(n.0));
            }
        }
    }
    h
}

/// One pinned enumeration: `(kb, pair index, union algorithm, digest,
/// stats)`, with `stats` every [`EnumStats`] field in declaration order.
type Pin = (&'static str, usize, &'static str, u64, [usize; 8]);

fn stats_row(s: &EnumStats) -> [usize; 8] {
    [
        s.partial_paths,
        s.path_instances,
        s.path_patterns,
        s.merge_calls,
        s.instance_pairs,
        s.duplicates,
        s.patterns_expanded,
        s.explanations,
    ]
}

const PINS: [Pin; 36] = [
    ("tiny", 0, "prune", 12960318770740930171, [27, 96, 72, 5198, 14, 0, 0, 78]),
    ("tiny", 0, "basic", 12960318770740930171, [27, 96, 72, 5616, 14, 6, 0, 78]),
    ("tiny", 1, "prune", 18092044091731243693, [63, 727, 242, 60812, 2511, 398, 0, 498]),
    ("tiny", 1, "basic", 18092044091731243693, [63, 727, 242, 120516, 2511, 758, 0, 498]),
    ("tiny", 2, "prune", 14998191894275997950, [58, 605, 312, 112210, 4539, 901, 0, 967]),
    ("tiny", 2, "basic", 14998191894275997950, [58, 605, 312, 301704, 4566, 2036, 0, 967]),
    ("tiny", 3, "prune", 13300633466486615326, [19, 12, 10, 100, 2, 0, 0, 10]),
    ("tiny", 3, "basic", 13300633466486615326, [19, 12, 10, 100, 2, 0, 0, 10]),
    ("tiny", 4, "prune", 200717435754912410, [18, 24, 18, 660, 65, 0, 0, 41]),
    ("tiny", 4, "basic", 200717435754912410, [18, 24, 18, 738, 65, 26, 0, 41]),
    ("tiny", 5, "prune", 7754676175619546145, [13, 18, 17, 309, 18, 0, 0, 23]),
    ("tiny", 5, "basic", 7754676175619546145, [13, 18, 17, 391, 18, 6, 0, 23]),
    ("tiny", 6, "prune", 8837941519619197024, [20, 28, 21, 445, 8, 0, 0, 23]),
    ("tiny", 6, "basic", 8837941519619197024, [20, 28, 21, 483, 8, 2, 0, 23]),
    ("tiny", 7, "prune", 14378351919498815855, [43, 58, 28, 828, 52, 0, 0, 39]),
    ("tiny", 7, "basic", 14378351919498815855, [43, 58, 28, 1092, 52, 12, 0, 39]),
    ("tiny", 8, "prune", 4728338130230105982, [7, 21, 16, 256, 0, 0, 0, 16]),
    ("tiny", 8, "basic", 4728338130230105982, [7, 21, 16, 256, 0, 0, 0, 16]),
    ("small", 0, "prune", 240379543334485034, [37, 9, 9, 81, 0, 0, 0, 9]),
    ("small", 0, "basic", 240379543334485034, [37, 9, 9, 81, 0, 0, 0, 9]),
    ("small", 1, "prune", 6610368327186107211, [25, 29, 22, 488, 10, 0, 0, 24]),
    ("small", 1, "basic", 6610368327186107211, [25, 29, 22, 528, 10, 2, 0, 24]),
    ("small", 2, "prune", 1276085632488529623, [28, 5, 5, 25, 0, 0, 0, 5]),
    ("small", 2, "basic", 1276085632488529623, [28, 5, 5, 25, 0, 0, 0, 5]),
    ("small", 3, "prune", 8074958443646398176, [22, 14, 9, 83, 6, 0, 0, 10]),
    ("small", 3, "basic", 8074958443646398176, [22, 14, 9, 90, 6, 1, 0, 10]),
    ("small", 4, "prune", 2266418187658107102, [49, 144, 12, 153, 12, 0, 0, 15]),
    ("small", 4, "basic", 2266418187658107102, [49, 144, 12, 180, 12, 3, 0, 15]),
    ("small", 5, "prune", 1236908191916439488, [40, 35, 32, 1024, 4, 0, 0, 32]),
    ("small", 5, "basic", 1236908191916439488, [40, 35, 32, 1024, 4, 0, 0, 32]),
    ("small", 6, "prune", 10000041219883583641, [37, 50, 36, 1300, 8, 0, 0, 38]),
    ("small", 6, "basic", 10000041219883583641, [37, 50, 36, 1368, 8, 2, 0, 38]),
    ("small", 7, "prune", 10116055617327474439, [62, 205, 77, 5929, 0, 0, 0, 77]),
    ("small", 7, "basic", 10116055617327474439, [62, 205, 77, 5929, 0, 0, 0, 77]),
    ("small", 8, "prune", 10766626999801667038, [46, 226, 115, 13233, 10, 0, 0, 119]),
    ("small", 8, "basic", 10766626999801667038, [46, 226, 115, 13685, 10, 4, 0, 119]),
];

/// The behaviour pin: the default enumerator (prioritized paths, pruned
/// union) and the basic union reproduce every pinned digest and counter.
#[test]
fn enumeration_matches_pinned_outputs_and_counts() {
    let mut got: Vec<Pin> = Vec::new();
    let mut saturated = 0;
    for (name, kb, pairs) in cases() {
        for (p, &(a, b)) in pairs.iter().enumerate() {
            for (union, algo) in [("prune", UnionAlgo::Prune), ("basic", UnionAlgo::Basic)] {
                let enumerator =
                    GeneralEnumerator::with_algorithms(config(), PathAlgo::Prioritized, algo);
                let out = enumerator.enumerate(&kb, a, b);
                saturated += out.explanations.iter().filter(|e| e.saturated).count();
                got.push((name, p, union, digest(&out.explanations), stats_row(&out.stats)));
            }
        }
    }
    assert!(saturated > 0, "no explanation hit the instance cap");
    assert_eq!(got, PINS);
}

/// The three path algorithms find identical path explanations, in the
/// same order, on the generated KBs, whose hubs the toy KB lacks.
#[test]
fn path_algorithms_agree_on_generated_pairs() {
    for (name, kb, pairs) in cases() {
        for &(a, b) in &pairs {
            let run = |algo| {
                let mut stats = EnumStats::default();
                enumerate_paths(&kb, a, b, &config(), algo, &mut stats)
            };
            let naive = run(PathAlgo::Naive);
            assert!(!naive.is_empty(), "{name} {a:?}-{b:?}: no path explanation");
            assert_eq!(naive, run(PathAlgo::Basic), "{name} {a:?}-{b:?}: naive vs basic");
            assert_eq!(
                naive,
                run(PathAlgo::Prioritized),
                "{name} {a:?}-{b:?}: naive vs prioritized"
            );
        }
    }
}
