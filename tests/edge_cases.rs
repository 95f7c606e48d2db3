//! Edge-case and failure-injection integration tests: degenerate queries
//! and graphs, malformed inputs, and serialisation roundtrips.

use crpq::containment::{contain, Outcome};
use crpq::graph::{format, generators, GraphBuilder, GraphDb};
use crpq::prelude::*;
use crpq::query::parse_crpq as parse_query;

fn graph(edges: &[(&str, &str, &str)]) -> GraphDb {
    let mut b = GraphBuilder::new();
    for &(u, l, v) in edges {
        b.edge(u, l, v);
    }
    b.finish()
}

// ---------------------------------------------------------------- queries

#[test]
fn epsilon_only_query_holds_on_any_nonempty_graph() {
    let mut g = graph(&[("u", "a", "v")]);
    let q = parse_query("x -[a*]-> y, y -[a*]-> x", g.alphabet_mut()).unwrap();
    for sem in Semantics::ALL {
        assert!(
            Eval::new(&q, &g).semantics(sem).contains(&[]),
            "ε-collapse variant must fire under {sem}"
        );
    }
    // … but not on the empty graph.
    let empty = GraphBuilder::new().finish();
    for sem in Semantics::ALL {
        assert!(!Eval::new(&q, &empty).semantics(sem).contains(&[]));
    }
}

#[test]
fn disconnected_query_evaluates_per_component() {
    let mut g = graph(&[("u", "a", "v"), ("p", "b", "r")]);
    let q = parse_query("x -[a]-> y, z -[b]-> w", g.alphabet_mut()).unwrap();
    assert!(!q.is_connected());
    for sem in Semantics::ALL {
        assert!(
            Eval::new(&q, &g).semantics(sem).contains(&[]),
            "components satisfied separately under {sem}"
        );
    }
    // q-inj additionally needs the four images distinct — force a clash.
    let mut g2 = graph(&[("u", "a", "v"), ("u", "b", "v")]);
    let q2 = parse_query("x -[a]-> y, z -[b]-> w", g2.alphabet_mut()).unwrap();
    assert!(Eval::new(&q2, &g2).contains(&[]));
    assert!(Eval::new(&q2, &g2)
        .semantics(Semantics::AtomInjective)
        .contains(&[]));
    assert!(
        !Eval::new(&q2, &g2)
            .semantics(Semantics::QueryInjective)
            .contains(&[]),
        "two nodes cannot host four distinct variable images"
    );
}

#[test]
fn repeated_free_variables_constrain_tuples() {
    let mut g = graph(&[("u", "a", "u"), ("u", "a", "v")]);
    let q = parse_query("(x, x) <- x -[a]-> x", g.alphabet_mut()).unwrap();
    let u = g.node_by_name("u").unwrap();
    let v = g.node_by_name("v").unwrap();
    assert!(Eval::new(&q, &g).contains(&[u, u]));
    assert!(
        !Eval::new(&q, &g).contains(&[u, v]),
        "repeated frees must agree"
    );
}

#[test]
fn zero_atom_query_is_always_true() {
    let mut g = graph(&[("u", "a", "v")]);
    let q = parse_query("(x) <- true", g.alphabet_mut()).unwrap();
    for sem in Semantics::ALL {
        assert_eq!(
            Eval::new(&q, &g).semantics(sem).tuples().len(),
            g.num_nodes()
        );
    }
}

#[test]
fn containment_with_empty_language_left_is_vacuous() {
    let mut sigma = Interner::new();
    let q1 = parse_query("(x, y) <- x -[∅]-> y", &mut sigma).unwrap();
    let q2 = parse_query("(x, y) <- x -[a]-> y", &mut sigma).unwrap();
    for sem in Semantics::ALL {
        assert!(
            contain(&q1, &q2, sem).is_contained(),
            "no expansions on the left means vacuous containment under {sem}"
        );
    }
}

#[test]
fn containment_outcome_three_valuedness() {
    let mut sigma = Interner::new();
    // Infinite LHS vs unrelated RHS: refuted with a concrete witness.
    let q1 = parse_query("(x, y) <- x -[a a*]-> y", &mut sigma).unwrap();
    let q2 = parse_query("(x, y) <- x -[b]-> y", &mut sigma).unwrap();
    match contain(&q1, &q2, Semantics::Standard) {
        Outcome::NotContained(c) => {
            assert!(!c.profile.is_empty());
        }
        other => panic!("expected refutation, got {other:?}"),
    }
}

// ----------------------------------------------------------------- parsing

#[test]
fn malformed_regexes_error_not_panic() {
    let mut sigma = Interner::new();
    for bad in ["(a", "a)", "+", "a +", "* a", "()", "a + + b", "(a))("] {
        assert!(
            crpq::automata::parse_regex(bad, &mut sigma).is_err(),
            "regex {bad:?} must be rejected"
        );
    }
}

#[test]
fn malformed_queries_error_not_panic() {
    let mut sigma = Interner::new();
    for bad in [
        "",
        "x -[a]->",
        "-[a]-> y",
        "x -[]-> y",
        "x -[(a]-> y",
        "(x, <- x -[a]-> y",
        "x -a-> y -b-> z",
    ] {
        assert!(
            parse_query(bad, &mut sigma).is_err(),
            "query {bad:?} must be rejected"
        );
    }
    // An empty body after `<-` is the 0-atom (always-true) query by design.
    let q = parse_query("(x) <-", &mut sigma).unwrap();
    assert_eq!(q.atoms.len(), 0);
    assert_eq!(q.free.len(), 1);
}

#[test]
fn malformed_graph_text_errors() {
    for bad in ["u a", "u a v w"] {
        assert!(
            format::parse_graph_text(bad).is_err(),
            "graph text {bad:?} must be rejected"
        );
    }
    // Node names are free-form tokens: this parses as an edge "->" -x-> "y".
    let odd = format::parse_graph_text("-> x y").unwrap();
    assert_eq!(odd.num_edges(), 1);
}

// ------------------------------------------------------------- roundtrips

#[test]
fn graph_text_roundtrip() {
    for g in [
        graph(&[("u", "a", "v"), ("v", "b", "w"), ("w", "c", "v")]),
        generators::grid(3, 3, "right", "down"),
        generators::clique(4, "e"),
    ] {
        let text = format::to_graph_text(&g).unwrap();
        let back = format::parse_graph_text(&text).unwrap();
        assert_eq!(back.num_nodes(), g.num_nodes());
        assert_eq!(back.num_edges(), g.num_edges());
        for (u, sym, v) in g.edges() {
            let label = g.alphabet().resolve(sym);
            let (bu, bv) = (
                back.node_by_name(g.node_name(u)).unwrap(),
                back.node_by_name(g.node_name(v)).unwrap(),
            );
            let bsym = back.alphabet().get(label).unwrap();
            assert!(
                back.has_edge(bu, bsym, bv),
                "edge {u:?}-{label}->{v:?} lost"
            );
        }
    }
}

#[test]
fn graph_binary_roundtrip() {
    for g in [
        graph(&[("u", "a", "v"), ("v", "b", "w")]),
        generators::random_graph(12, 30, &["a", "b", "c"], 7),
    ] {
        let bin = format::to_binary(&g);
        let back = format::from_binary(bin).unwrap();
        assert_eq!(back.num_nodes(), g.num_nodes());
        assert_eq!(back.num_edges(), g.num_edges());
    }
}

#[test]
fn corrupt_binary_snapshots_error() {
    let g = graph(&[("u", "a", "v")]);
    let bin = format::to_binary(&g);
    // Truncations must fail loudly, not panic.
    for cut in [0, 1, bin.len() / 2, bin.len().saturating_sub(1)] {
        let slice = bin.slice(0..cut);
        assert!(
            format::from_binary(slice).is_err(),
            "truncated snapshot (len {cut}) must be rejected"
        );
    }
}

// ------------------------------------------------------ semantics corners

#[test]
fn parallel_edges_with_distinct_labels() {
    // Both labels between the same pair: path search must consider both.
    let mut g = graph(&[("u", "a", "v"), ("u", "b", "v"), ("v", "a", "w")]);
    let q = parse_query("(x, y) <- x -[b a]-> y", g.alphabet_mut()).unwrap();
    let (u, w) = (g.node_by_name("u").unwrap(), g.node_by_name("w").unwrap());
    for sem in Semantics::ALL {
        assert!(
            Eval::new(&q, &g).semantics(sem).contains(&[u, w]),
            "b·a path exists under {sem}"
        );
    }
}

#[test]
fn simple_cycle_excludes_shorter_revisits() {
    // A 3-cycle with a chord: x -[a a a]-> x needs the full triangle.
    let mut g = graph(&[
        ("u", "a", "v"),
        ("v", "a", "w"),
        ("w", "a", "u"),
        ("v", "a", "u"),
    ]);
    let q3 = parse_query("x -[a a a]-> x", g.alphabet_mut()).unwrap();
    let q2 = parse_query("x -[a a]-> x", g.alphabet_mut()).unwrap();
    assert!(Eval::new(&q3, &g)
        .semantics(Semantics::AtomInjective)
        .contains(&[]));
    assert!(
        Eval::new(&q2, &g)
            .semantics(Semantics::AtomInjective)
            .contains(&[]),
        "u→v→u chord 2-cycle"
    );
    // Length-4 simple cycles do not exist in this graph.
    let q4 = parse_query("x -[a a a a]-> x", g.alphabet_mut()).unwrap();
    assert!(!Eval::new(&q4, &g)
        .semantics(Semantics::AtomInjective)
        .contains(&[]));
    assert!(Eval::new(&q4, &g).contains(&[]), "walk may repeat");
}

#[test]
fn witness_roundtrip_on_generated_workloads() {
    use crpq::core::{eval_witness, verify_witness, Eval};
    let mut sigma = Interner::new();
    let g = crpq::workloads::random::random_graph_for(&mut sigma, 3, 8, 20, 42);
    let q = crpq::workloads::random::random_query(
        crpq::workloads::random::RandomQueryParams {
            class: QueryClass::Crpq,
            num_vars: 3,
            num_atoms: 2,
            alphabet: 3,
            arity: 2,
            max_word: 2,
        },
        &mut sigma,
        42,
    );
    for sem in Semantics::ALL {
        for t in Eval::new(&q, &g).semantics(sem).tuples() {
            let w = eval_witness(&q, &g, &t, sem).expect("member tuple must have witness");
            verify_witness(&q, &g, &t, sem, &w).expect("witness must verify");
        }
    }
}
