//! The paper's concrete examples as reusable objects.
//!
//! Figure 2's graphs are reconstructed to witness exactly the claims of
//! Example 2.1 (the arXiv figure is vector art; the edge lists below are
//! the minimal graphs satisfying every stated membership fact — see
//! EXPERIMENTS.md E2).

use crpq_graph::{GraphBuilder, GraphDb};
use crpq_query::{parse_crpq, Crpq};
use crpq_util::Interner;

/// The Example 2.1 query `Q(x, y) = x -(ab)*-> y ∧ y -c*-> x`, parsed
/// against `alphabet`.
pub fn example21_query(alphabet: &mut Interner) -> Crpq {
    parse_crpq("(x, y) <- x -[(a b)*]-> y, y -[c*]-> x", alphabet).unwrap() // invariant: fixed workload query text parses
}

/// Figure-2 style `G`: separates a-inj from q-inj and has `Q(G)_st =
/// Q(G)_a-inj`. Edges: `u -a-> v -b-> w`, `w -c-> v -c-> u`.
///
/// `(u, w) ∈ Q(G)_a-inj \ Q(G)_q-inj`: the `ab`-path and the `cc`-path both
/// run through `v`.
pub fn example21_g(alphabet: &Interner) -> GraphDb {
    let mut b = GraphBuilder::with_alphabet(alphabet.clone());
    b.edge("u", "a", "v");
    b.edge("v", "b", "w");
    b.edge("w", "c", "v");
    b.edge("v", "c", "u");
    b.finish()
}

/// Figure-2 style `G′`: separates st from a-inj.
/// Edges: `u -a-> w -b-> t -a-> u -b-> v -c-> u`.
///
/// `(u, v) ∈ Q(G′)_st \ Q(G′)_a-inj`: the only `(ab)^k` walks from `u` to
/// `v` revisit `u` (e.g. `u a w b t a u b v`).
pub fn example21_gprime(alphabet: &Interner) -> GraphDb {
    let mut b = GraphBuilder::with_alphabet(alphabet.clone());
    b.edge("u", "a", "w");
    b.edge("w", "b", "t");
    b.edge("t", "a", "u");
    b.edge("u", "b", "v");
    b.edge("v", "c", "u");
    b.finish()
}

/// A single graph separating **all three** semantics for the Example 2.1
/// query (the union of the two gadgets above on disjoint nodes).
pub fn example21_full_separation(alphabet: &Interner) -> GraphDb {
    let mut b = GraphBuilder::with_alphabet(alphabet.clone());
    b.edge("u", "a", "v");
    b.edge("v", "b", "w");
    b.edge("w", "c", "v");
    b.edge("v", "c", "u");
    b.edge("u2", "a", "w2");
    b.edge("w2", "b", "t2");
    b.edge("t2", "a", "u2");
    b.edge("u2", "b", "v2");
    b.edge("v2", "c", "u2");
    b.finish()
}

/// Example 4.7's four queries `(Q₁, Q₂, Q₁′, Q₂′)`:
/// `Q₁ = x -a-> y ∧ y -b-> z`, `Q₂ = x -[ab]-> y`,
/// `Q₁′ = x -a-> y ∧ x -b-> y`, `Q₂′ = x -a-> y ∧ x′ -b-> y′`.
pub fn example47_queries(alphabet: &mut Interner) -> (Crpq, Crpq, Crpq, Crpq) {
    let q1 = parse_crpq("x -[a]-> y, y -[b]-> z", alphabet).unwrap(); // invariant: fixed workload query text parses
    let q2 = parse_crpq("x -[a b]-> y", alphabet).unwrap(); // invariant: fixed workload query text parses
    let q1p = parse_crpq("x -[a]-> y, x -[b]-> y", alphabet).unwrap(); // invariant: fixed workload query text parses
    let q2p = parse_crpq("x -[a]-> y, x' -[b]-> y'", alphabet).unwrap(); // invariant: fixed workload query text parses
    (q1, q2, q1p, q2p)
}

/// The §1 introduction query
/// `Q = ∃x,y,z (x -(a+b)⁺-> y ∧ x -(b+c)⁺-> z)`.
pub fn intro_query(alphabet: &mut Interner) -> Crpq {
    parse_crpq("x -[(a+b)(a+b)*]-> y, x -[(b+c)(b+c)*]-> z", alphabet).unwrap() // invariant: fixed workload query text parses
}

/// The intro's motivating database: a directed path of `n` `b`-edges
/// (`Q` holds under st/a-inj by overlapping paths, fails under q-inj).
pub fn intro_b_path(alphabet: &Interner, n: usize) -> GraphDb {
    let mut b = GraphBuilder::with_alphabet(alphabet.clone());
    for i in 0..n {
        b.edge(&format!("n{i}"), "b", &format!("n{}", i + 1));
    }
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crpq_core::{Eval, Semantics};

    #[test]
    fn example21_claims_hold() {
        let mut it = Interner::new();
        let q = example21_query(&mut it);
        let g = example21_g(&it);
        let (u, w) = (g.node_by_name("u").unwrap(), g.node_by_name("w").unwrap());
        assert!(Eval::new(&q, &g)
            .semantics(Semantics::AtomInjective)
            .contains(&[u, w]));
        assert!(!Eval::new(&q, &g)
            .semantics(Semantics::QueryInjective)
            .contains(&[u, w]));
        assert_eq!(
            Eval::new(&q, &g).tuples(),
            Eval::new(&q, &g)
                .semantics(Semantics::AtomInjective)
                .tuples(),
            "Q(G)_st = Q(G)_a-inj"
        );

        let gp = example21_gprime(&it);
        let (u, v) = (gp.node_by_name("u").unwrap(), gp.node_by_name("v").unwrap());
        assert!(Eval::new(&q, &gp).contains(&[u, v]));
        assert!(!Eval::new(&q, &gp)
            .semantics(Semantics::AtomInjective)
            .contains(&[u, v]));
    }

    #[test]
    fn full_separation_graph_separates() {
        let mut it = Interner::new();
        let q = example21_query(&mut it);
        let g = example21_full_separation(&it);
        let st = Eval::new(&q, &g).tuples().len();
        let ai = Eval::new(&q, &g)
            .semantics(Semantics::AtomInjective)
            .tuples()
            .len();
        let qi = Eval::new(&q, &g)
            .semantics(Semantics::QueryInjective)
            .tuples()
            .len();
        assert!(qi < ai && ai < st, "strict hierarchy: {qi} < {ai} < {st}");
    }

    #[test]
    fn intro_example_behaviour() {
        let mut it = Interner::new();
        let q = intro_query(&mut it);
        let g = intro_b_path(&it, 2);
        assert!(Eval::new(&q, &g).contains(&[]));
        assert!(Eval::new(&q, &g)
            .semantics(Semantics::AtomInjective)
            .contains(&[]));
        assert!(!Eval::new(&q, &g)
            .semantics(Semantics::QueryInjective)
            .contains(&[]));
    }
}
