//! Differential property tests for the join-based evaluator: on random
//! graphs × random CRPQs, every terminal of an [`Eval`] request — at one
//! thread and under work stealing — must return exactly the same tuple
//! sets as the legacy `|V|^arity` enumeration oracle, under all three
//! semantics.

use crpq::core::{eval_tuples_enumerate, Eval};
use crpq::prelude::*;
use proptest::prelude::*;
use std::sync::Arc;

/// The generator slices of the contract table: (query class, arity).
const CONTRACT_ROWS: [(QueryClass, usize); 3] = [
    (QueryClass::CrpqFin, 1),
    (QueryClass::Crpq, 2),
    (QueryClass::Crpq, 0),
];

fn random_instance(seed: u64, class: QueryClass, arity: usize) -> (Crpq, GraphDb) {
    let mut sigma = Interner::new();
    let q = crpq::workloads::random::random_query(
        crpq::workloads::random::RandomQueryParams {
            class,
            num_vars: 3,
            num_atoms: 2,
            alphabet: 2,
            arity,
            max_word: 2,
        },
        &mut sigma,
        seed,
    );
    let g = crpq::workloads::random::random_graph_for(&mut sigma, 2, 6, 12, seed ^ 0x9e37);
    (q, g)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The `Eval` contract table. For every row of the random generator
    /// (finite languages at arity 1, starred languages with ε-variants at
    /// arity 2, Boolean queries, which take the join path at every thread
    /// count), every semantics and `threads ∈ {1, 2}`, the terminals agree:
    /// `tuples()` ≡ sorted `stream()` ≡ `limit(usize::MAX)` ≡ the
    /// enumeration oracle, `ask()` ≡ non-emptiness, and `contains(t)` holds
    /// for every returned `t`.
    #[test]
    fn eval_terminals_agree_with_oracle(seed in 0u64..100_000) {
        for (class, arity) in CONTRACT_ROWS {
            let (q, g) = random_instance(seed, class, arity);
            let g = Arc::new(g);
            for sem in Semantics::ALL {
                let oracle = eval_tuples_enumerate(&q, &*g, sem);
                for threads in [1, 2] {
                    let ctx = format!("seed {seed} {class:?}/{arity} {sem} threads {threads}");
                    let request = || Eval::new(&q, &g).semantics(sem).threads(threads);
                    let tuples = request().tuples();
                    let mut streamed: Vec<Vec<NodeId>> = request().stream().collect();
                    streamed.sort();
                    prop_assert_eq!(&tuples, &oracle, "tuples vs oracle: {}", ctx);
                    prop_assert_eq!(&streamed, &oracle, "stream vs oracle: {}", ctx);
                    prop_assert_eq!(
                        &request().limit(usize::MAX), &oracle, "limit(MAX) vs oracle: {}", ctx
                    );
                    prop_assert_eq!(request().ask(), !oracle.is_empty(), "ask: {}", ctx);
                    for t in &tuples {
                        prop_assert!(request().contains(t), "contains {:?}: {}", t, ctx);
                    }
                }
            }
        }
    }

    /// The analyzed engine (deletion-closed fast path) rides the join
    /// pipeline and must agree with the oracle as well.
    #[test]
    fn analyzed_join_matches_oracle(seed in 0u64..100_000) {
        let (q, g) = random_instance(seed, QueryClass::Crpq, 1);
        for sem in Semantics::ALL {
            prop_assert_eq!(
                Eval::new(&q, &g).semantics(sem).analyzed().tuples(),
                eval_tuples_enumerate(&q, &g, sem),
                "seed {} sem {}", seed, sem
            );
        }
    }

    /// The membership engine agrees tuple-by-tuple with the join result set
    /// (join results are exactly the tuples whose membership test passes).
    #[test]
    fn membership_consistent_with_join(seed in 0u64..100_000) {
        let (q, g) = random_instance(seed, QueryClass::CrpqFin, 1);
        for sem in Semantics::ALL {
            let results = Eval::new(&q, &g).semantics(sem).tuples();
            for n in g.nodes() {
                let member = Eval::new(&q, &g).semantics(sem).contains(&[n]);
                prop_assert_eq!(
                    results.contains(&vec![n]),
                    member,
                    "seed {} sem {} node {:?}", seed, sem, n
                );
            }
        }
    }
}
