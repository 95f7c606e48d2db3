//! Differential tests pinning the work-stealing parallel search against
//! the sequential engine and the enumeration oracle on skewed Zipf label-rich
//! graphs: the workload family where a static top-level split would
//! strand workers behind the hot node's subtree, so every scheduler path
//! (seeding, donation, deepest-level splitting, quiescence) is actually
//! exercised.

use crpq::core::{eval_tuples_enumerate, Eval};
use crpq::prelude::*;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Work-stealing ≡ sequential ≡ enumeration oracle on skewed Zipf
    /// graphs under all three semantics (the steal query is acyclic). The
    /// Zipf exponent matches the bench steal family; 4 workers over a
    /// ~20-label graph forces donations on most seeds.
    #[test]
    fn work_stealing_matches_oracle_on_skewed_zipf(seed in 0u64..100_000) {
        let mut g = generators::zipf_label_graph(36, 140, 20, 1.4, seed);
        let q = crpq::workloads::scaling::steal_query(g.alphabet_mut());
        for sem in Semantics::ALL {
            let oracle = eval_tuples_enumerate(&q, &g, sem);
            prop_assert_eq!(
                Eval::new(&q, &g).semantics(sem).tuples(),
                oracle.clone(),
                "sequential vs oracle: seed {} sem {}", seed, sem
            );
            prop_assert_eq!(
                Eval::new(&q, &g).semantics(sem).threads(4).tuples(),
                oracle,
                "work-stealing vs oracle: seed {} sem {}", seed, sem
            );
        }
    }

    /// Same agreement on a cyclic shape, where the parallel evaluator
    /// descends through the join's level candidates.
    #[test]
    fn work_stealing_matches_oracle_on_cyclic_shape(seed in 0u64..100_000) {
        let mut g = generators::random_graph(10, 45, &["a", "b", "c"], seed);
        let q = parse_crpq(
            "(x, z) <- x -[a+b]-> y, y -[b+c]-> z, z -[c a*]-> x",
            g.alphabet_mut(),
        )
        .unwrap();
        for sem in Semantics::ALL {
            let oracle = eval_tuples_enumerate(&q, &g, sem);
            prop_assert_eq!(
                Eval::new(&q, &g).semantics(sem).threads(4).tuples(),
                oracle,
                "work-stealing vs oracle: seed {} sem {}", seed, sem
            );
        }
    }
}
