//! Differential tests on skewed Zipf label-rich graphs and a cyclic shape:
//! requests whose catalogs materialise on four threads (the sweep's
//! scoped workers claiming blocks of source ids) must return the
//! enumeration oracle's answers. The test names are older than the
//! cursor: these graphs were chosen to exercise a work-stealing search,
//! deleted since, and now drive the parallel sweep over hot sources.

use crpq::core::{eval_tuples_enumerate, Eval};
use crpq::prelude::*;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// One thread ≡ four materialisation threads ≡ enumeration oracle on
    /// skewed Zipf graphs under all three semantics (the steal query is
    /// acyclic; its Zipf exponent concentrates edges on a few hot
    /// sources).
    #[test]
    fn work_stealing_matches_oracle_on_skewed_zipf(seed in 0u64..100_000) {
        let mut g = generators::zipf_label_graph(36, 140, 20, 1.4, seed);
        let q = crpq::workloads::scaling::steal_query(g.alphabet_mut());
        for sem in Semantics::ALL {
            let oracle = eval_tuples_enumerate(&q, &g, sem);
            prop_assert_eq!(
                Eval::new(&q, &g).semantics(sem).tuples(),
                oracle.clone(),
                "1 thread vs oracle: seed {} sem {}", seed, sem
            );
            prop_assert_eq!(
                Eval::new(&q, &g).semantics(sem).threads(4).tuples(),
                oracle,
                "4 threads vs oracle: seed {} sem {}", seed, sem
            );
        }
    }

    /// Same agreement on a cyclic shape.
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
                "4 threads vs oracle: seed {} sem {}", seed, sem
            );
        }
    }
}
