//! The running-example entertainment knowledge base.
//!
//! A hand-built subset of an entertainment knowledge graph in the spirit of
//! Figure 3 of the paper, containing the entities used throughout the
//! paper's examples and user study: the five designated pairs P1–P5 of
//! §5.4.1 all have multi-faceted connections here (spouse, co-starring,
//! producing, same-director collaboration, shared awards, shared genres).
//!
//! The graph is small (dozens of nodes) and fully deterministic, which makes
//! it ideal for unit tests, documentation examples, and cross-checking the
//! enumeration algorithms against brute force.

use crate::{KbBuilder, KnowledgeBase};

/// People appearing in the toy knowledge base.
const ACTORS: &[&str] = &[
    "brad_pitt",
    "angelina_jolie",
    "tom_cruise",
    "nicole_kidman",
    "kate_winslet",
    "leonardo_dicaprio",
    "will_smith",
    "julia_roberts",
    "george_clooney",
    "helen_hunt",
    "mel_gibson",
    "cameron_diaz",
    "charlize_theron",
];

const DIRECTORS: &[&str] = &[
    "sam_mendes",
    "james_cameron",
    "david_fincher",
    "michael_mann",
    "steven_soderbergh",
    "doug_liman",
    "neil_jordan",
    "cameron_crowe",
    "nancy_meyers",
    "martin_scorsese",
];

/// `(movie, director, starring...)`
const MOVIES: &[(&str, &str, &[&str])] = &[
    ("mr_and_mrs_smith", "doug_liman", &["brad_pitt", "angelina_jolie"]),
    ("interview_with_the_vampire", "neil_jordan", &["brad_pitt", "tom_cruise"]),
    ("titanic", "james_cameron", &["kate_winslet", "leonardo_dicaprio"]),
    ("revolutionary_road", "sam_mendes", &["kate_winslet", "leonardo_dicaprio"]),
    ("oceans_eleven", "steven_soderbergh", &["brad_pitt", "julia_roberts", "george_clooney"]),
    ("the_mexican", "doug_liman", &["brad_pitt", "julia_roberts"]),
    ("fight_club", "david_fincher", &["brad_pitt"]),
    ("seven", "david_fincher", &["brad_pitt"]),
    ("benjamin_button", "david_fincher", &["brad_pitt"]),
    ("collateral", "michael_mann", &["tom_cruise"]),
    ("ali", "michael_mann", &["will_smith"]),
    ("vanilla_sky", "cameron_crowe", &["tom_cruise", "cameron_diaz"]),
    ("jerry_maguire", "cameron_crowe", &["tom_cruise"]),
    ("hancock", "peter_berg", &["will_smith", "charlize_theron"]),
    ("what_women_want", "nancy_meyers", &["mel_gibson", "helen_hunt"]),
    ("the_aviator", "martin_scorsese", &["leonardo_dicaprio"]),
    ("the_departed", "martin_scorsese", &["leonardo_dicaprio"]),
    ("far_and_away", "ron_howard", &["tom_cruise", "nicole_kidman"]),
    ("days_of_thunder", "tony_scott", &["tom_cruise", "nicole_kidman"]),
    ("eyes_wide_shut", "stanley_kubrick", &["tom_cruise", "nicole_kidman"]),
    ("wanted", "timur_bekmambetov", &["angelina_jolie"]),
    ("salt", "phillip_noyce", &["angelina_jolie"]),
];

/// Movies additionally produced by an actor (Figure 4(c)-style pattern).
const PRODUCED: &[(&str, &str)] = &[
    ("brad_pitt", "benjamin_button"),
    ("brad_pitt", "mr_and_mrs_smith"),
    ("tom_cruise", "vanilla_sky"),
    ("mel_gibson", "what_women_want"),
];

/// Undirected spousal relationships (some historical).
const SPOUSES: &[(&str, &str)] = &[
    ("brad_pitt", "angelina_jolie"),
    ("tom_cruise", "nicole_kidman"),
    ("kate_winslet", "sam_mendes"),
];

/// `(movie, genre)`
const GENRES: &[(&str, &str)] = &[
    ("mr_and_mrs_smith", "action"),
    ("wanted", "action"),
    ("salt", "action"),
    ("collateral", "action"),
    ("ali", "drama"),
    ("titanic", "romance"),
    ("revolutionary_road", "drama"),
    ("fight_club", "drama"),
    ("what_women_want", "romance"),
    ("jerry_maguire", "romance"),
    ("hancock", "action"),
    ("the_departed", "drama"),
];

/// `(person, award)` — directed `won` edges.
const AWARDS: &[(&str, &str)] = &[
    ("kate_winslet", "academy_award"),
    ("leonardo_dicaprio", "academy_award"),
    ("tom_cruise", "golden_globe"),
    ("will_smith", "golden_globe"),
    ("nicole_kidman", "academy_award"),
    ("mel_gibson", "academy_award"),
    ("helen_hunt", "academy_award"),
    ("julia_roberts", "academy_award"),
];

/// Builds the deterministic toy entertainment knowledge base.
///
/// Relationship labels: `starring` (person → movie, directed), `directed_by`
/// (movie → director, directed), `produced` (person → movie, directed),
/// `spouse` (undirected), `genre` (movie → genre, directed), `won`
/// (person → award, directed).
pub fn entertainment() -> KnowledgeBase {
    build_entertainment().expect("the toy KB has six labels")
}

fn build_entertainment() -> crate::Result<KnowledgeBase> {
    let mut b = KbBuilder::new();
    for a in ACTORS {
        b.add_node(a, "Person");
    }
    for d in DIRECTORS {
        b.add_node(d, "Person");
    }
    for (movie, director, cast) in MOVIES {
        let m = b.add_node(movie, "Movie");
        let d = b.add_node(director, "Person");
        b.add_directed_edge(m, d, "directed_by")?;
        for actor in *cast {
            let a = b.add_node(actor, "Person");
            b.add_directed_edge(a, m, "starring")?;
        }
    }
    for (person, movie) in PRODUCED {
        let p = b.add_node(person, "Person");
        let m = b.add_node(movie, "Movie");
        b.add_directed_edge(p, m, "produced")?;
    }
    for (a, c) in SPOUSES {
        let a = b.add_node(a, "Person");
        let c = b.add_node(c, "Person");
        b.add_undirected_edge(a, c, "spouse")?;
    }
    for (movie, genre) in GENRES {
        let m = b.add_node(movie, "Movie");
        let g = b.add_node(genre, "Genre");
        b.add_directed_edge(m, g, "genre")?;
    }
    for (person, award) in AWARDS {
        let p = b.add_node(person, "Person");
        let a = b.add_node(award, "Award");
        b.add_directed_edge(p, a, "won")?;
    }
    Ok(b.build())
}

/// The five designated evaluation pairs of §5.4.1, by entity name:
/// P1 (brad_pitt, angelina_jolie), P2 (kate_winslet, leonardo_dicaprio),
/// P3 (tom_cruise, will_smith), P4 (james_cameron, kate_winslet),
/// P5 (mel_gibson, helen_hunt).
pub const STUDY_PAIRS: &[(&str, &str)] = &[
    ("brad_pitt", "angelina_jolie"),
    ("kate_winslet", "leonardo_dicaprio"),
    ("tom_cruise", "will_smith"),
    ("james_cameron", "kate_winslet"),
    ("mel_gibson", "helen_hunt"),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_and_is_nontrivial() {
        let kb = entertainment();
        assert!(kb.node_count() > 40, "got {}", kb.node_count());
        assert!(kb.edge_count() > 70, "got {}", kb.edge_count());
        assert_eq!(kb.label_count(), 6);
    }

    #[test]
    fn study_pairs_exist_and_are_connected() {
        let kb = entertainment();
        for (a, c) in STUDY_PAIRS {
            let a = kb.require_node(a).unwrap();
            let c = kb.require_node(c).unwrap();
            let paths = kb.count_simple_paths(a, c, 4, usize::MAX);
            assert!(paths > 0, "{}-{} disconnected", kb.node_name(a), kb.node_name(c));
        }
    }

    #[test]
    fn costar_pattern_exists_for_p1() {
        let kb = entertainment();
        let bp = kb.require_node("brad_pitt").unwrap();
        let aj = kb.require_node("angelina_jolie").unwrap();
        let starring = kb.label_by_name("starring").unwrap();
        // There is a movie both star in (Mr. & Mrs. Smith).
        let movies: Vec<_> = kb
            .neighbors_labeled(bp, starring)
            .iter()
            .filter(|n| kb.neighbors_labeled(n.other(), starring).iter().any(|m| m.other() == aj))
            .collect();
        assert_eq!(movies.len(), 1);
    }

    #[test]
    fn cruise_smith_connect_through_director_or_award() {
        let kb = entertainment();
        let tc = kb.require_node("tom_cruise").unwrap();
        let ws = kb.require_node("will_smith").unwrap();
        // No direct edge and no co-starring; connected within length 4.
        assert_eq!(kb.count_simple_paths(tc, ws, 2, usize::MAX), 1); // shared golden_globe
        assert!(kb.count_simple_paths(tc, ws, 4, usize::MAX) >= 2); // + michael_mann chain
    }
}
