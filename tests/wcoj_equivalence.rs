//! Differential property tests for the worst-case-optimal join executor:
//! on the cyclic workloads (triangle, 4-cycle, diamond-with-chord, starred
//! triangle) and on random CRPQs, the WCOJ engine must return exactly the
//! same tuple sets as the backtracking binary join and the legacy
//! enumeration oracle, under all three semantics — including graphs where
//! the cyclic output is empty, and through the auto-dispatching default
//! strategy and the parallel engine.

use crpq::core::{eval_tuples_enumerate, Eval, EvalStrategy};
use crpq::prelude::*;
use crpq::workloads::cyclic;
use proptest::prelude::*;

/// All three join-shaped strategies must agree with the enumeration
/// oracle; returns the oracle's result for further checks.
fn assert_engines_agree(q: &Crpq, g: &GraphDb, ctx: &str) -> Vec<Vec<Vec<NodeId>>> {
    let mut per_sem = Vec::new();
    for sem in Semantics::ALL {
        let oracle = eval_tuples_enumerate(q, g, sem);
        for strategy in [
            EvalStrategy::Join,
            EvalStrategy::BinaryJoin,
            EvalStrategy::Wcoj,
        ] {
            assert_eq!(
                Eval::new(q, g).semantics(sem).strategy(strategy).tuples(),
                oracle,
                "{ctx}: {strategy:?} vs oracle under {sem}"
            );
        }
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
    }
}

#[test]
fn triangle_empty_output_matches_oracle() {
    // Stratified graph: no c-edge ever closes a triangle. The WCOJ
    // executor must agree that the output is empty under every semantics
    // (the binary join short-circuits on empty domains; WCOJ must too).
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
    // non-collapsed ones stay cyclic — Join auto-dispatch mixes executors
    // within a single evaluation and must still match the oracle.
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

    /// Forced WCOJ ≡ forced binary join ≡ oracle on random 3-atom CRPQs
    /// (which frequently close cycles on 3 variables), arity 1.
    #[test]
    fn wcoj_matches_oracle_random(seed in 0u64..100_000) {
        let (q, g) = random_instance(seed, 1);
        for sem in Semantics::ALL {
            let oracle = eval_tuples_enumerate(&q, &g, sem);
            prop_assert_eq!(
                &Eval::new(&q, &g).semantics(sem).strategy(EvalStrategy::Wcoj).tuples(),
                &oracle,
                "wcoj seed {} sem {}", seed, sem
            );
            prop_assert_eq!(
                &Eval::new(&q, &g).semantics(sem).strategy(EvalStrategy::BinaryJoin).tuples(),
                &oracle,
                "binary seed {} sem {}", seed, sem
            );
        }
    }

    /// The auto-dispatching default strategy on Boolean random CRPQs.
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
