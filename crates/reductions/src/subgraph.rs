//! Prop 3.1: evaluation hardness via subgraph isomorphism.
//!
//! A Boolean CQ `Q` maps injectively into `G` iff `Q(G)_q-inj ≠ ∅` iff
//! `Q⁺(G⁺)_a-inj ≠ ∅`, where `G⁺` (resp. `Q⁺`) adds, for a fresh symbol
//! `R`, an `R`-edge between every ordered pair of distinct vertices (resp.
//! an `R`-atom between every ordered pair of distinct variables). The `R`
//! clique forces atom-injective matching to be injective *globally*.

use crpq_graph::{GraphDb, NodeId};
use crpq_query::{Cq, CqAtom, Crpq, Var};
use crpq_util::FxHashMap;

/// The fresh relation name used by the `⁺` constructions.
pub const FRESH_RELATION: &str = "__R";

/// Builds `(Q⁺, G⁺)` from a Boolean CQ pattern and a graph. Evaluating
/// `Q⁺` on `G⁺` under **atom-injective** semantics decides subgraph
/// isomorphism of `Q` into `G`; evaluating `Q` on `G` under
/// **query-injective** semantics does so directly.
pub fn subgraph_to_evaluation(pattern: &Cq, g: &GraphDb) -> (Crpq, GraphDb) {
    let mut builder = g.clone().into_builder();
    let r = builder.label(FRESH_RELATION);
    // R-edges between every ordered pair of distinct nodes.
    let nodes: Vec<NodeId> = (0..g.num_nodes() as u32).map(NodeId).collect();
    for &u in &nodes {
        for &v in &nodes {
            if u != v {
                builder.edge_ids(u, r, v);
            }
        }
    }
    let g_plus = builder.finish();

    let mut atoms = pattern.atoms.clone();
    for a in 0..pattern.num_vars as u32 {
        for b in 0..pattern.num_vars as u32 {
            if a != b {
                atoms.push(CqAtom {
                    src: Var(a),
                    label: r,
                    dst: Var(b),
                });
            }
        }
    }
    let q_plus = Crpq::from_cq(&Cq {
        num_vars: pattern.num_vars,
        atoms,
        free: Vec::new(),
    });
    (q_plus, g_plus)
}

/// Brute-force subgraph isomorphism: is there an injective homomorphism
/// from `pattern` into `g`? (Exponential; ground truth for small instances.)
pub fn subgraph_iso_brute_force(pattern: &Cq, g: &GraphDb) -> bool {
    let n = g.num_nodes();
    let k = pattern.num_vars;
    if k > n {
        return false;
    }
    let mut assignment: FxHashMap<usize, NodeId> = FxHashMap::default();
    fn rec(pattern: &Cq, g: &GraphDb, v: usize, assignment: &mut FxHashMap<usize, NodeId>) -> bool {
        if v == pattern.num_vars {
            return pattern.atoms.iter().all(|a| {
                g.has_edge(
                    assignment[&a.src.index()],
                    a.label,
                    assignment[&a.dst.index()],
                )
            });
        }
        for node in g.nodes() {
            if assignment.values().any(|&used| used == node) {
                continue;
            }
            assignment.insert(v, node);
            if rec(pattern, g, v + 1, assignment) {
                return true;
            }
            assignment.remove(&v);
        }
        false
    }
    rec(pattern, g, 0, &mut assignment)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crpq_core::{Eval, Semantics};
    use crpq_graph::GraphBuilder;
    use crpq_util::Symbol;

    fn cq_triangle(label: Symbol) -> Cq {
        Cq::boolean(vec![
            CqAtom {
                src: Var(0),
                label,
                dst: Var(1),
            },
            CqAtom {
                src: Var(1),
                label,
                dst: Var(2),
            },
            CqAtom {
                src: Var(2),
                label,
                dst: Var(0),
            },
        ])
    }

    fn graph(edges: &[(&str, &str, &str)]) -> GraphDb {
        let mut b = GraphBuilder::new();
        for &(u, l, v) in edges {
            b.edge(u, l, v);
        }
        b.finish()
    }

    #[test]
    fn triangle_in_triangle() {
        let g = graph(&[("a", "e", "b"), ("b", "e", "c"), ("c", "e", "a")]);
        let e = g.alphabet().get("e").unwrap();
        let q = cq_triangle(e);
        assert!(subgraph_iso_brute_force(&q, &g));
        // q-inj evaluation decides it directly:
        let crpq = Crpq::from_cq(&q);
        assert!(Eval::new(&crpq, &g)
            .semantics(Semantics::QueryInjective)
            .contains(&[]));
        // and the a-inj reduction agrees:
        let (q_plus, g_plus) = subgraph_to_evaluation(&q, &g);
        assert!(Eval::new(&q_plus, &g_plus)
            .semantics(Semantics::AtomInjective)
            .contains(&[]));
    }

    #[test]
    fn triangle_not_in_hexagon() {
        let g = graph(&[
            ("n1", "e", "n2"),
            ("n2", "e", "n3"),
            ("n3", "e", "n4"),
            ("n4", "e", "n5"),
            ("n5", "e", "n6"),
            ("n6", "e", "n1"),
        ]);
        let e = g.alphabet().get("e").unwrap();
        let q = cq_triangle(e);
        assert!(!subgraph_iso_brute_force(&q, &g));
        let crpq = Crpq::from_cq(&q);
        assert!(!Eval::new(&crpq, &g)
            .semantics(Semantics::QueryInjective)
            .contains(&[]));
        let (q_plus, g_plus) = subgraph_to_evaluation(&q, &g);
        assert!(!Eval::new(&q_plus, &g_plus)
            .semantics(Semantics::AtomInjective)
            .contains(&[]));
    }

    #[test]
    fn plain_hom_differs_from_injective() {
        // A 2-path pattern maps homomorphically onto a single edge looped
        // back and forth, but not injectively when nodes run out.
        let g = graph(&[("a", "e", "b"), ("b", "e", "a")]);
        let e = g.alphabet().get("e").unwrap();
        // 3-path needs 4 distinct nodes injectively.
        let q = Cq::boolean(vec![
            CqAtom {
                src: Var(0),
                label: e,
                dst: Var(1),
            },
            CqAtom {
                src: Var(1),
                label: e,
                dst: Var(2),
            },
            CqAtom {
                src: Var(2),
                label: e,
                dst: Var(3),
            },
        ]);
        assert!(!subgraph_iso_brute_force(&q, &g));
        let crpq = Crpq::from_cq(&q);
        assert!(Eval::new(&crpq, &g).contains(&[]), "hom exists");
        assert!(!Eval::new(&crpq, &g)
            .semantics(Semantics::QueryInjective)
            .contains(&[]));
        let (q_plus, g_plus) = subgraph_to_evaluation(&q, &g);
        assert!(!Eval::new(&q_plus, &g_plus)
            .semantics(Semantics::AtomInjective)
            .contains(&[]));
    }

    #[test]
    fn reduction_agreement_on_random_instances() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..10 {
            let g = crpq_graph::generators::random_graph(5, 8, &["e"], rng.gen());
            let e = g.alphabet().get("e").unwrap();
            // random small pattern: 3 vars, 3 atoms
            let atoms: Vec<CqAtom> = (0..3)
                .map(|_| CqAtom {
                    src: Var(rng.gen_range(0..3u32)),
                    label: e,
                    dst: Var(rng.gen_range(0..3u32)),
                })
                .filter(|a| a.src != a.dst)
                .collect();
            if atoms.is_empty() {
                continue;
            }
            let q = Cq::boolean(atoms);
            let brute = subgraph_iso_brute_force(&q, &g);
            let direct = Eval::new(&Crpq::from_cq(&q), &g)
                .semantics(Semantics::QueryInjective)
                .contains(&[]);
            assert_eq!(brute, direct, "q-inj evaluation vs brute force");
            let (q_plus, g_plus) = subgraph_to_evaluation(&q, &g);
            let reduced = Eval::new(&q_plus, &g_plus)
                .semantics(Semantics::AtomInjective)
                .contains(&[]);
            assert_eq!(brute, reduced, "a-inj reduction vs brute force");
        }
    }
}
