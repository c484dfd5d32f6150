//! Property tests for canonical query text: `canonical_text` of a
//! compiled query compiles back to the same canonical key and prints
//! byte-identically, and isomorphic spellings of a pattern print the same
//! text. Also pins that queries above the exact canonical search's
//! 8-existential bound get a key without the factorial search.

use proptest::prelude::*;
use rex_core::canonical::canonical_key;
use rex_core::query::{canonical_text, compile_text};
use rex_core::Explanation;
use rex_kb::KnowledgeBase;
use rex_tests::scaffold;

/// Raw edge tuples `(u, v, label, directed)` over a small variable and
/// label universe.
type RawEdge = (usize, usize, usize, bool);

fn arb_edges() -> impl Strategy<Value = Vec<RawEdge>> {
    proptest::collection::vec((0usize..6, 0usize..6, 0usize..4, any::<bool>()), 0..=6)
}

/// Renders edges as MATCH text under the given variable names. A fixed
/// `(v0)-[:l0]-(v1)` edge is always appended so both targets are
/// guaranteed to appear (the parser rejects WHERE clauses over unknown
/// variables).
fn render(edges: &[RawEdge], names: &[&str]) -> String {
    let mut out = String::from("MATCH ");
    for (i, &(u, v, l, directed)) in edges.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let arrow = if directed { ">" } else { "" };
        out.push_str(&format!("({})-[:l{l}]-{arrow}({})", names[u], names[v]));
    }
    if !edges.is_empty() {
        out.push_str(", ");
    }
    out.push_str(&format!("({})-[:l0]-({})", names[0], names[1]));
    out.push_str(&format!(" WHERE {} = $start AND {} = $end", names[0], names[1]));
    out
}

const BASE_NAMES: [&str; 6] = ["s", "t", "x2", "x3", "x4", "x5"];
const RENAMED: [&str; 6] = ["u0", "u1", "zz", "q", "w3", "y9"];

/// The canonical text of a query compiled against `kb`.
fn canon(text: &str, kb: &KnowledgeBase) -> String {
    canonical_text(&compile_text(text, kb).unwrap().pattern, kb)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// The canonical text compiles back to the same canonical key, and
    /// printing that result reproduces the text byte for byte.
    #[test]
    fn canonical_form_is_a_round_trip_fixed_point(edges in arb_edges()) {
        let kb = scaffold::base_kb(0, 0);
        let q = compile_text(&render(&edges, &BASE_NAMES), &kb).unwrap();
        let printed = canonical_text(&q.pattern, &kb);
        let again = compile_text(&printed, &kb).unwrap();
        prop_assert_eq!(
            canonical_key(&q.pattern),
            canonical_key(&again.pattern),
            "canonical text must compile back to the same key"
        );
        prop_assert_eq!(
            canonical_text(&again.pattern, &kb),
            printed,
            "canonical text must be byte-stable"
        );
    }

    /// Variable renaming and edge-order reversal never change the
    /// canonical text — isomorphic spellings share one representative.
    #[test]
    fn isomorphic_spellings_share_the_canonical_form(edges in arb_edges()) {
        let kb = scaffold::base_kb(0, 0);
        let base = canon(&render(&edges, &BASE_NAMES), &kb);
        let renamed = canon(&render(&edges, &RENAMED), &kb);
        prop_assert_eq!(&base, &renamed, "renaming variables must not change the canon");
        let mut reversed = edges.clone();
        reversed.reverse();
        let rev = canon(&render(&reversed, &BASE_NAMES), &kb);
        prop_assert_eq!(&base, &rev, "edge order must not change the canon");
    }

    /// Undirected edges are orientation-free: writing `(u)-[:l]-(v)` or
    /// `(v)-[:l]-(u)` prints the same canonical text.
    #[test]
    fn undirected_edges_forget_their_spelling_order(edges in arb_edges()) {
        let flipped: Vec<RawEdge> = edges
            .iter()
            .map(|&(u, v, l, directed)| if directed { (u, v, l, directed) } else { (v, u, l, directed) })
            .collect();
        let kb = scaffold::base_kb(0, 0);
        let base = canon(&render(&edges, &BASE_NAMES), &kb);
        prop_assert_eq!(base, canon(&render(&flipped, &BASE_NAMES), &kb));
    }
}

/// A star of 12 spokes has 12 existential variables, past the 8 the
/// exact canonical search covers. Its key keeps the compiled numbering
/// instead of trying 12! relabelings, so building it is immediate and
/// deterministic.
#[test]
fn twelve_existential_query_gets_a_key() {
    let kb = scaffold::base_kb(0, 0);
    let spokes: Vec<String> = (0..12).map(|i| format!("(a)-[:l0]->(m{i})<-[:l1]-(b)")).collect();
    let text = format!("MATCH {} WHERE a = $start AND b = $end", spokes.join(", "));
    let build = || Explanation::new(compile_text(&text, &kb).unwrap().pattern, vec![]);
    let (first, second) = (build(), build());
    assert_eq!(first.pattern.var_count(), 14);
    assert_eq!(first.key(), second.key());
}
