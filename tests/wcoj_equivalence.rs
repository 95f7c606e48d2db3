//! Differential property tests for the worst-case-optimal join, the one
//! join executor: on the cyclic workloads (triangle, heavy-hitter hub
//! triangle, 4-cycle, diamond-with-chord, starred triangle) and on random
//! CRPQs, evaluation with one and with three materialisation threads
//! must return exactly the tuple sets of the enumeration oracle, under
//! all three semantics —
//! including graphs where the cyclic output is empty.

use crpq::core::{eval_tuples_enumerate, Eval};
use crpq::prelude::*;
use crpq::workloads::cyclic;
use proptest::prelude::*;

/// The join, with one and with three materialisation threads, must agree with the
/// enumeration oracle; returns the oracle's result for further checks.
fn assert_engines_agree(q: &Crpq, g: &GraphDb, ctx: &str) -> Vec<Vec<Vec<NodeId>>> {
    let mut per_sem = Vec::new();
    for sem in Semantics::ALL {
        let oracle = eval_tuples_enumerate(q, g, sem);
        assert_eq!(
            Eval::new(q, g).semantics(sem).tuples(),
            oracle,
            "{ctx}: sequential vs oracle under {sem}"
        );
        assert_eq!(
            Eval::new(q, g).semantics(sem).threads(3).tuples(),
            oracle,
            "{ctx}: parallel vs oracle under {sem}"
        );
        per_sem.push(oracle);
    }
    per_sem
}

#[test]
fn triangle_matches_oracle_on_random_graphs() {
    for seed in 0..8u64 {
        let mut g = cyclic::cyclic_graph(14, seed);
        let q = cyclic::triangle_query(g.alphabet_mut());
        assert_engines_agree(&q, &g, &format!("triangle seed {seed}"));
        // The heavy-hitter instance: every spoke pair meets at the hub.
        let mut g = cyclic::hub_triangle_graph(12, seed);
        let q = cyclic::triangle_query(g.alphabet_mut());
        let per_sem = assert_engines_agree(&q, &g, &format!("hub triangle seed {seed}"));
        assert!(
            !per_sem[0].is_empty(),
            "hub triangle seed {seed} has no st triangle"
        );
    }
}

#[test]
fn triangle_empty_output_matches_oracle() {
    // Stratified graph: no c-edge ever closes a triangle. The join must
    // agree that the output is empty under every semantics.
    let mut g = cyclic::triangle_free_graph(6);
    let q = cyclic::triangle_query(g.alphabet_mut());
    let per_sem = assert_engines_agree(&q, &g, "triangle-free");
    assert!(per_sem.iter().all(std::vec::Vec::is_empty));
}

#[test]
fn four_cycle_matches_oracle_on_random_graphs() {
    for seed in 0..5u64 {
        let mut g = cyclic::cyclic_graph(10, seed);
        let q = cyclic::four_cycle_query(g.alphabet_mut());
        assert_engines_agree(&q, &g, &format!("4-cycle seed {seed}"));
    }
}

#[test]
fn diamond_chord_matches_oracle_on_random_graphs() {
    for seed in 0..5u64 {
        let mut g = cyclic::cyclic_graph_with_density(9, 8, seed);
        let q = cyclic::diamond_chord_query(g.alphabet_mut());
        assert_engines_agree(&q, &g, &format!("diamond-chord seed {seed}"));
    }
}

#[test]
fn starred_triangle_exercises_per_variant_dispatch() {
    // 8 ε-free variants: collapsed ones lose variables (some acyclic),
    // non-collapsed ones stay cyclic — one evaluation mixes both shapes,
    // each variant with its own elimination order, and must still match
    // the oracle.
    for seed in [1u64, 4, 9] {
        let mut g = crpq::graph::generators::random_graph(8, 24, &["a", "b", "c"], seed);
        let q = cyclic::starred_triangle_query(g.alphabet_mut());
        assert_engines_agree(&q, &g, &format!("starred triangle seed {seed}"));
    }
}

fn random_instance(seed: u64, arity: usize) -> (Crpq, GraphDb) {
    let mut sigma = Interner::new();
    let q = crpq::workloads::random::random_query(
        crpq::workloads::random::RandomQueryParams {
            class: QueryClass::Crpq,
            num_vars: 3,
            num_atoms: 3,
            alphabet: 2,
            arity,
            max_word: 2,
        },
        &mut sigma,
        seed,
    );
    let g = crpq::workloads::random::random_graph_for(&mut sigma, 2, 6, 12, seed ^ 0x517c);
    (q, g)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(30))]

    /// The join ≡ oracle on random 3-atom CRPQs (which frequently close
    /// cycles on 3 variables), arity 1.
    #[test]
    fn wcoj_matches_oracle_random(seed in 0u64..100_000) {
        let (q, g) = random_instance(seed, 1);
        for sem in Semantics::ALL {
            prop_assert_eq!(
                Eval::new(&q, &g).semantics(sem).tuples(),
                eval_tuples_enumerate(&q, &g, sem),
                "seed {} sem {}", seed, sem
            );
        }
    }

    /// The default request on Boolean random CRPQs.
    #[test]
    fn auto_dispatch_matches_oracle_boolean(seed in 0u64..100_000) {
        let (q, g) = random_instance(seed, 0);
        for sem in Semantics::ALL {
            prop_assert_eq!(
                Eval::new(&q, &g).semantics(sem).tuples(),
                eval_tuples_enumerate(&q, &g, sem),
                "seed {} sem {}", seed, sem
            );
        }
    }
}
