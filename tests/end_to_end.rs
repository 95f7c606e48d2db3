//! Cross-crate integration tests: parse → evaluate → contain, engine
//! cross-validation, and reduction round-trips.

use crpq::containment::abstraction;
use crpq::core::expansion_eval;
use crpq::prelude::*;
use crpq::workloads::{paper_examples as paper, random};

#[test]
fn parse_evaluate_contain_pipeline() {
    let mut b = GraphBuilder::new();
    b.edge("a1", "edge", "a2");
    b.edge("a2", "edge", "a3");
    b.edge("a3", "edge", "a1");
    let mut g = b.finish();
    let q = parse_crpq("(x, y) <- x -[edge edge]-> y", g.alphabet_mut()).unwrap();
    let st = Eval::new(&q, &g).tuples();
    assert_eq!(st.len(), 3, "each node reaches one other in two steps");
    let qi = Eval::new(&q, &g)
        .semantics(Semantics::QueryInjective)
        .tuples();
    assert_eq!(st, qi, "triangle two-hops are injective");

    let mut sigma = Interner::new();
    let q1 = parse_crpq("x -[edge edge]-> y", &mut sigma).unwrap();
    let q2 = parse_crpq("x -[edge]-> y", &mut sigma).unwrap();
    for sem in Semantics::ALL {
        assert!(
            contain(&q1, &q2, sem).is_contained(),
            "two hops imply one hop under {sem}"
        );
    }
}

#[test]
fn direct_and_expansion_evaluators_agree() {
    // The deepest internal consistency check: the operational engine
    // (path search) versus the characterisation engine (Prop 2.2/2.3).
    for seed in 0..6u64 {
        let mut sigma = Interner::new();
        let q = random::random_query(
            random::RandomQueryParams {
                class: QueryClass::CrpqFin,
                num_vars: 3,
                num_atoms: 2,
                alphabet: 2,
                arity: 1,
                max_word: 2,
            },
            &mut sigma,
            seed,
        );
        let g = random::random_graph_for(&mut sigma, 2, 5, 10, seed + 100);
        for sem in Semantics::ALL {
            for node in g.nodes() {
                let direct = Eval::new(&q, &g).semantics(sem).contains(&[node]);
                let via_exp = expansion_eval::eval_contains_complete(&q, &g, &[node], sem);
                assert_eq!(
                    direct, via_exp,
                    "engines disagree: seed={seed} node={node:?} sem={sem}"
                );
            }
        }
    }
}

#[test]
fn abstraction_and_naive_containment_agree_on_finite() {
    for seed in 0..8u64 {
        let mut sigma = Interner::new();
        let q1 = random::random_query(
            random::RandomQueryParams {
                class: QueryClass::CrpqFin,
                num_vars: 2,
                num_atoms: 2,
                alphabet: 2,
                arity: 0,
                max_word: 2,
            },
            &mut sigma,
            seed,
        );
        let q2 = random::random_query(
            random::RandomQueryParams {
                class: QueryClass::CrpqFin,
                num_vars: 2,
                num_atoms: 1,
                alphabet: 2,
                arity: 0,
                max_word: 2,
            },
            &mut sigma,
            seed + 1000,
        );
        let naive = contain(&q1, &q2, Semantics::QueryInjective);
        if let (Some(abs), Some(naive)) = (abstraction::try_contain_qinj(&q1, &q2), naive.as_bool())
        {
            assert_eq!(abs, naive, "abstraction vs naive on seed {seed}");
        }
    }
}

#[test]
fn hierarchy_on_paper_and_random_instances() {
    let mut sigma = Interner::new();
    let q = paper::example21_query(&mut sigma);
    for g in [
        paper::example21_g(&sigma),
        paper::example21_gprime(&sigma),
        paper::example21_full_separation(&sigma),
    ] {
        assert!(check_hierarchy(&q, &g).holds());
    }
    for seed in 0..4u64 {
        let mut sigma = Interner::new();
        let q = random::random_query(
            random::RandomQueryParams {
                arity: 2,
                ..Default::default()
            },
            &mut sigma,
            seed,
        );
        let g = random::random_graph_for(&mut sigma, 3, 5, 12, seed);
        assert!(check_hierarchy(&q, &g).holds(), "Remark 2.1 on seed {seed}");
    }
}

#[test]
fn counter_examples_are_verifiable() {
    // Whenever the engine reports NotContained, re-checking the witness by
    // evaluation must confirm it.
    let mut sigma = Interner::new();
    let q1 = parse_crpq("(x, y) <- x -[a+b]-> y", &mut sigma).unwrap();
    let q2 = parse_crpq("(x, y) <- x -[a]-> y", &mut sigma).unwrap();
    for sem in Semantics::ALL {
        let out = contain(&q1, &q2, sem);
        match out {
            Outcome::NotContained(ce) => {
                let g = ce.witness.to_graph_anon(sigma.len());
                let tuple: Vec<NodeId> = ce.witness.free.iter().map(|v| NodeId(v.0)).collect();
                assert!(
                    Eval::new(&q1, &g).semantics(sem).contains(&tuple),
                    "witness satisfies Q1 under {sem}"
                );
                assert!(
                    !Eval::new(&q2, &g).semantics(sem).contains(&tuple),
                    "witness avoids Q2 under {sem}"
                );
            }
            other => panic!("expected NotContained under {sem}, got {other:?}"),
        }
    }
}

#[test]
fn epsilon_queries_flow_through_everything() {
    let mut b = GraphBuilder::new();
    b.edge("u", "a", "v");
    let mut g = b.finish();
    let q = parse_crpq("(x, y) <- x -[a?]-> y", g.alphabet_mut()).unwrap();
    let st = Eval::new(&q, &g).tuples();
    // (u,u), (v,v) via ε and (u,v) via a.
    assert_eq!(st.len(), 3);
    for sem in Semantics::ALL {
        assert_eq!(
            Eval::new(&q, &g).semantics(sem).tuples().len(),
            3,
            "ε-handling under {sem}"
        );
    }

    let mut sigma = Interner::new();
    let q1 = parse_crpq("(x, y) <- x -[a]-> y", &mut sigma).unwrap();
    let q2 = parse_crpq("(x, y) <- x -[a?]-> y", &mut sigma).unwrap();
    for sem in Semantics::ALL {
        assert!(contain(&q1, &q2, sem).is_contained(), "a ⊆ a? under {sem}");
        assert!(
            contain(&q2, &q1, sem).is_not_contained(),
            "a? ⊄ a under {sem}"
        );
    }
}

#[test]
fn graph_formats_roundtrip_through_evaluation() {
    use crpq::graph::format;
    let g = crpq::graph::generators::random_graph(10, 25, &["a", "b"], 3);
    let text = format::to_graph_text(&g).unwrap();
    let mut g2 = format::parse_graph_text(&text).unwrap();
    let bin = format::to_binary(&g);
    let g3 = format::from_binary(bin).unwrap();
    assert_eq!(g2.num_edges(), g3.num_edges());

    let q = parse_crpq("(x, y) <- x -[a b]-> y", g2.alphabet_mut()).unwrap();
    let r2 = Eval::new(&q, &g2).tuples();
    // node ids may be permuted across formats; compare by names
    let names = |g: &GraphDb, ts: &[Vec<NodeId>]| {
        let mut v: Vec<(String, String)> = ts
            .iter()
            .map(|t| (g.node_name(t[0]).to_owned(), g.node_name(t[1]).to_owned()))
            .collect();
        v.sort();
        v
    };
    let mut g3 = g3;
    let q3 = parse_crpq("(x, y) <- x -[a b]-> y", g3.alphabet_mut()).unwrap();
    let r3 = Eval::new(&q3, &g3).tuples();
    assert_eq!(names(&g2, &r2), names(&g3, &r3));
}

#[test]
fn two_way_navigation_c2rpq() {
    use crpq::graph::two_way::augment_with_inverses;
    // Sibling pattern via inverse steps: x -[a⁻ a]-> y on a 2-child parent.
    let mut b = GraphBuilder::new();
    b.edge("p", "a", "c1");
    b.edge("p", "a", "c2");
    let g = b.finish();
    let (mut g2, _) = augment_with_inverses(&g);
    let q = parse_crpq("(x, y) <- x -[a⁻ a]-> y", g2.alphabet_mut()).unwrap();
    let tuples = Eval::new(&q, &g2)
        .semantics(Semantics::QueryInjective)
        .tuples();
    // q-inj: x ≠ y with the parent as distinct internal node: exactly the
    // two ordered sibling pairs.
    let names: Vec<(String, String)> = tuples
        .iter()
        .map(|t| (g2.node_name(t[0]).to_owned(), g2.node_name(t[1]).to_owned()))
        .collect();
    assert_eq!(names.len(), 2);
    assert!(names.contains(&("c1".into(), "c2".into())));
    // Standard semantics additionally returns the self-pairs (x = y via
    // the same child twice is blocked only by injectivity).
    let st = Eval::new(&q, &g2).tuples();
    assert_eq!(st.len(), 4);
}

#[test]
fn core_minimisation_preserves_containment() {
    // Q and core(Q) are equivalent under standard semantics.
    let mut sigma = Interner::new();
    let q = parse_crpq("x -[a]-> y, x -[a]-> z, z -[b]-> w", &mut sigma).unwrap();
    let cq = q.as_cq().unwrap();
    let core = cq.core();
    assert!(core.num_vars < cq.num_vars, "redundant branch must fold");
    let q_core = Crpq::from_cq(&core);
    assert!(contain(&q, &q_core, Semantics::Standard).is_contained());
    assert!(contain(&q_core, &q, Semantics::Standard).is_contained());
}
