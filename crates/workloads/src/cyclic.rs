//! Cyclic-shape CRPQ workloads for the worst-case-optimal join.
//!
//! The variants of these queries close cycles in the atom–variable
//! incidence graph — exactly the shapes where a backtracking binary join
//! can materialise asymptotically more intermediate bindings than the
//! output (AGM bound: `O(|R|²)` vs `O(|R|^{3/2})` on the triangle) and
//! where the Generic-Join executor (`crpq_core::wcoj`, dispatched by
//! `JoinPlan::is_cyclic`) is provably better. Used by
//! `tests/wcoj_equivalence.rs` (differential correctness against the
//! enumeration oracle) and by `BENCH_eval`'s `cyclic_rows` (WCOJ-vs-binary
//! wall clock, with the CI-asserted "WCOJ no slower than binary join"
//! floor on the triangle).
//!
//! Each query keeps its atoms ε-free and single-label, so there is exactly
//! one ε-free variant, the atom relations are the label's edge sets, and
//! the measured gap is the executors' — not ε-variant bookkeeping or
//! materialisation.

use crpq_graph::{generators, GraphDb};
use crpq_query::{parse_crpq, Crpq};
use crpq_util::Interner;

/// The triangle CRPQ
/// `Q(x, y, z) = x -[a]-> y ∧ y -[b]-> z ∧ z -[c]-> x` — the canonical
/// cyclic shape (3 variables, 3 atoms, one cycle).
pub fn triangle_query(alphabet: &mut Interner) -> Crpq {
    // invariant: fixed workload query text parses
    parse_crpq("(x, y, z) <- x -[a]-> y, y -[b]-> z, z -[c]-> x", alphabet).unwrap()
}

/// The 4-cycle CRPQ
/// `Q(x, y, z, w) = x -[a]-> y ∧ y -[b]-> z ∧ z -[c]-> w ∧ w -[d]-> x`.
pub fn four_cycle_query(alphabet: &mut Interner) -> Crpq {
    parse_crpq(
        "(x, y, z, w) <- x -[a]-> y, y -[b]-> z, z -[c]-> w, w -[d]-> x",
        alphabet,
    )
    .unwrap() // invariant: fixed workload query text parses
}

/// The diamond-with-chord CRPQ: the 4-cycle of [`four_cycle_query`] plus
/// the `x -[e]-> z` diagonal — two triangles sharing the chord, the
/// smallest shape where *every* pair of adjacent variables is constrained
/// by at least two atoms once the cycle closes.
pub fn diamond_chord_query(alphabet: &mut Interner) -> Crpq {
    parse_crpq(
        "(x, y, z, w) <- x -[a]-> y, y -[b]-> z, z -[c]-> w, w -[d]-> x, x -[e]-> z",
        alphabet,
    )
    .unwrap() // invariant: fixed workload query text parses
}

/// A starred triangle whose atoms are all ε-bearing
/// (`x -[(a b)*]-> y ∧ y -[c*]-> z ∧ z -[(b c)*]-> x`): 2³ = 8 ε-free
/// variants whose non-collapsed ones stay cyclic — exercises the
/// per-variant dispatch (collapsed variants lose variables and may become
/// acyclic) together with the relation catalog.
pub fn starred_triangle_query(alphabet: &mut Interner) -> Crpq {
    parse_crpq(
        "(x, y) <- x -[(a b)*]-> y, y -[c*]-> z, z -[(b c)*]-> x",
        alphabet,
    )
    .unwrap() // invariant: fixed workload query text parses
}

/// The number of edge labels the cyclic workload graphs carry — one per
/// atom of the largest query ([`diamond_chord_query`]).
pub const CYCLIC_LABELS: [&str; 5] = ["a", "b", "c", "d", "e"];

/// Random graph for the cyclic workloads: `n` nodes, `edges_per_label · n`
/// edges uniformly over [`CYCLIC_LABELS`]. At the default
/// [`cyclic_graph`] density (4 edges per label per node) a triangle query
/// has ~`(4n)³/n³ · …` expected matches — small but non-empty at bench
/// sizes, while the intermediate `x -[a]-> y` binding set is `Θ(n)`.
pub fn cyclic_graph_with_density(n: usize, edges_per_label: usize, seed: u64) -> GraphDb {
    generators::random_graph(
        n,
        edges_per_label * CYCLIC_LABELS.len() * n,
        &CYCLIC_LABELS,
        seed,
    )
}

/// [`cyclic_graph_with_density`] at the default density (4 edges per label
/// per node).
pub fn cyclic_graph(n: usize, seed: u64) -> GraphDb {
    cyclic_graph_with_density(n, 4, seed)
}

/// A graph on which the triangle query is **empty**: `a`/`b`/`c` edges
/// only ever point "forward" across three strata, so no `c` edge can close
/// a triangle back into the first stratum. Differential tests use it to
/// pin the empty-output path of the WCOJ executor.
pub fn triangle_free_graph(n: usize) -> GraphDb {
    let mut b = crpq_graph::GraphBuilder::new();
    for i in 0..n {
        let j = (i + 1) % n;
        b.edge(&format!("s0_{i}"), "a", &format!("s1_{j}"));
        b.edge(&format!("s1_{i}"), "b", &format!("s2_{j}"));
        // `c` edges stay inside stratum 2 instead of returning to
        // stratum 0: every z -[c]-> x lands where no `a` edge starts.
        b.edge(&format!("s2_{i}"), "c", &format!("s2_{j}"));
    }
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crpq_core::{eval_tuples_enumerate, Eval, EvalStrategy, Semantics};

    #[test]
    fn triangle_workload_has_matches_and_agrees() {
        let mut g = cyclic_graph(30, 3);
        let q = triangle_query(g.alphabet_mut());
        let join = Eval::new(&q, &g).tuples();
        let oracle = eval_tuples_enumerate(&q, &g, Semantics::Standard);
        assert_eq!(join, oracle);
    }

    #[test]
    fn triangle_free_graph_is_triangle_free() {
        let mut g = triangle_free_graph(8);
        let q = triangle_query(g.alphabet_mut());
        for sem in Semantics::ALL {
            for strategy in [
                EvalStrategy::Join,
                EvalStrategy::BinaryJoin,
                EvalStrategy::Wcoj,
            ] {
                assert!(
                    Eval::new(&q, &g)
                        .semantics(sem)
                        .strategy(strategy)
                        .tuples()
                        .is_empty(),
                    "{sem} {strategy:?}"
                );
            }
            assert!(
                eval_tuples_enumerate(&q, &g, sem).is_empty(),
                "{sem} oracle"
            );
        }
    }

    #[test]
    fn cyclic_queries_parse_to_expected_shapes() {
        let mut it = Interner::new();
        assert_eq!(triangle_query(&mut it).atoms.len(), 3);
        assert_eq!(four_cycle_query(&mut it).atoms.len(), 4);
        let diamond = diamond_chord_query(&mut it);
        assert_eq!(diamond.atoms.len(), 5);
        assert_eq!(diamond.num_vars, 4);
        assert_eq!(
            starred_triangle_query(&mut it).epsilon_free_union().len(),
            8
        );
    }
}
