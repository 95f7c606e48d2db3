//! Wikidata-style query workloads.
//!
//! The paper motivates CRPQs by their use on Wikidata ("RPQs are popular
//! for querying Wikidata", §1, citing the query-log studies [7, 8]). Those
//! studies report that real property paths are overwhelmingly *simple
//! shapes*: single atoms, transitive closures of one property (`P*`, `P⁺`),
//! closures over small unions (`(P1+P2)⁺`), and short chains ending in a
//! closure (`P1/P2*`). This module generates queries following that shape
//! distribution over a Wikidata-flavoured schema graph, for the E3/E9
//! benches and the examples.

use crpq_graph::{GraphBuilder, GraphDb};
use crpq_query::{parse_crpq, Crpq};
use crpq_util::Interner;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The property vocabulary of the synthetic knowledge graph.
pub const PROPERTIES: [&str; 5] = ["instanceOf", "subclassOf", "partOf", "locatedIn", "follows"];

/// The query-log shape classes of [7, 8], with rough log frequencies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LogShape {
    /// `x -[P]-> y` — a plain property edge.
    SingleProperty,
    /// `x -[P P*]-> y` — transitive closure of one property.
    TransitiveClosure,
    /// `x -[(P1+P2)(P1+P2)*]-> y` — closure of a small union.
    UnionClosure,
    /// `x -[P1]-> z ∧ z -[P2 P2*]-> y` — a chain into a closure.
    ChainIntoClosure,
}

impl LogShape {
    /// Samples a shape with the (approximate) log distribution: single
    /// properties and one-property closures dominate.
    pub fn sample(rng: &mut StdRng) -> LogShape {
        match rng.gen_range(0..100) {
            0..=44 => LogShape::SingleProperty,
            45..=79 => LogShape::TransitiveClosure,
            80..=91 => LogShape::UnionClosure,
            _ => LogShape::ChainIntoClosure,
        }
    }
}

/// Generates a query of the given shape over the property vocabulary.
pub fn query_of_shape(shape: LogShape, alphabet: &mut Interner, rng: &mut StdRng) -> Crpq {
    let p = |rng: &mut StdRng| PROPERTIES[rng.gen_range(0..PROPERTIES.len())];
    let text = match shape {
        LogShape::SingleProperty => format!("(x, y) <- x -[{}]-> y", p(rng)),
        LogShape::TransitiveClosure => {
            let prop = p(rng);
            format!("(x, y) <- x -[{prop} {prop}*]-> y")
        }
        LogShape::UnionClosure => {
            let (p1, mut p2) = (p(rng), p(rng));
            while p2 == p1 {
                p2 = p(rng);
            }
            format!("(x, y) <- x -[({p1}+{p2})({p1}+{p2})*]-> y")
        }
        LogShape::ChainIntoClosure => {
            let (p1, p2) = (p(rng), p(rng));
            format!("(x, y) <- x -[{p1}]-> z, z -[{p2} {p2}*]-> y")
        }
    };
    parse_crpq(&text, alphabet).expect("generated query parses") // invariant: fixed workload query text parses
}

/// A query-log sample of `n` queries (seeded).
pub fn query_log(n: usize, alphabet: &mut Interner, seed: u64) -> Vec<(LogShape, Crpq)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let shape = LogShape::sample(&mut rng);
            (shape, query_of_shape(shape, alphabet, &mut rng))
        })
        .collect()
}

/// A Wikidata-flavoured knowledge graph: a class taxonomy (`subclassOf`
/// tree), entities attached via `instanceOf`, geographic containment
/// chains (`locatedIn`/`partOf`), and a `follows` succession line.
pub fn knowledge_graph(entities: usize, seed: u64) -> GraphDb {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new();
    // taxonomy: a small binary tree of classes
    let classes = 7;
    for c in 1..classes {
        b.edge(
            &format!("class{c}"),
            "subclassOf",
            &format!("class{}", (c - 1) / 2),
        );
    }
    // places: a containment chain
    let places = 5;
    for pl in 1..places {
        b.edge(
            &format!("place{pl}"),
            "locatedIn",
            &format!("place{}", pl - 1),
        );
        b.edge(&format!("place{pl}"), "partOf", &format!("place{}", pl - 1));
    }
    // entities
    for e in 0..entities {
        let class = rng.gen_range(0..classes);
        b.edge(&format!("ent{e}"), "instanceOf", &format!("class{class}"));
        let place = rng.gen_range(0..places);
        b.edge(&format!("ent{e}"), "locatedIn", &format!("place{place}"));
        if e > 0 && rng.gen_bool(0.5) {
            b.edge(&format!("ent{e}"), "follows", &format!("ent{}", e - 1));
        }
    }
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crpq_core::{check_hierarchy, Eval, Semantics};

    #[test]
    fn shapes_parse_and_classify() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut sigma = Interner::new();
        use crpq_query::QueryClass;
        let q = query_of_shape(LogShape::SingleProperty, &mut sigma, &mut rng);
        assert_eq!(q.classify(), QueryClass::Cq);
        let q = query_of_shape(LogShape::TransitiveClosure, &mut sigma, &mut rng);
        assert_eq!(q.classify(), QueryClass::Crpq);
        let q = query_of_shape(LogShape::ChainIntoClosure, &mut sigma, &mut rng);
        assert_eq!(q.atoms.len(), 2);
    }

    #[test]
    fn log_distribution_is_log_like() {
        let mut sigma = Interner::new();
        let log = query_log(200, &mut sigma, 3);
        let singles = log
            .iter()
            .filter(|(s, _)| *s == LogShape::SingleProperty)
            .count();
        let closures = log
            .iter()
            .filter(|(s, _)| *s == LogShape::TransitiveClosure)
            .count();
        assert!(singles > 60, "singles dominate: {singles}");
        assert!(closures > 40, "closures frequent: {closures}");
    }

    #[test]
    fn knowledge_graph_answers_log_queries() {
        let g = knowledge_graph(20, 5);
        assert!(g.num_nodes() > 25);
        let mut g = g;
        let q = parse_crpq(
            "(x, y) <- x -[instanceOf]-> z, z -[subclassOf subclassOf*]-> y",
            g.alphabet_mut(),
        )
        .unwrap();
        // Every entity transitively reaches the root class (class0).
        let tuples = Eval::new(&q, &g).tuples();
        let root = g.node_by_name("class0").unwrap();
        let to_root = tuples.iter().filter(|t| t[1] == root).count();
        assert!(to_root > 0, "taxonomy closure reaches the root");
        // Hierarchy holds on the knowledge graph too.
        assert!(check_hierarchy(&q, &g).holds());
    }

    #[test]
    fn taxonomy_closures_equal_across_semantics() {
        // The subclassOf taxonomy is a tree: simple paths and arbitrary
        // paths coincide, so all three semantics agree on closure queries.
        let mut g = knowledge_graph(12, 9);
        let q = parse_crpq(
            "(x, y) <- x -[subclassOf subclassOf*]-> y",
            g.alphabet_mut(),
        )
        .unwrap();
        let st = Eval::new(&q, &g).tuples();
        let ai = Eval::new(&q, &g)
            .semantics(Semantics::AtomInjective)
            .tuples();
        let qi = Eval::new(&q, &g)
            .semantics(Semantics::QueryInjective)
            .tuples();
        assert_eq!(st, ai);
        assert_eq!(st, qi);
    }
}
