//! Differential tests of materialisation threads. The proptests run
//! skewed Zipf label-rich graphs and a cyclic shape: requests whose
//! catalogs ask for four threads must return the enumeration oracle's
//! answers. Their names are older than the cursor (these graphs were
//! chosen to exercise a work-stealing search, deleted since), and their
//! graphs have fewer nodes than one sweep block (8 192 source ids), so
//! the sweep runs them on one worker whatever the thread count. Only
//! `sweep_workers_match_one_thread_past_one_block`, on 20 000 nodes,
//! spawns the sweep's scoped workers.

use crpq::core::{eval_tuples_enumerate, Eval};
use crpq::graph::rpq::{self, ReachScratch};
use crpq::prelude::*;
use proptest::prelude::*;

/// On more nodes than one sweep block, `.threads(4)` sweeps on
/// `min(4, ⌈20 000 / 8 192⌉) = 3` workers, two of them spawned: every
/// atom's relation equals its one-thread relation, and the request
/// returns the one-thread answers under all three semantics.
#[test]
fn sweep_workers_match_one_thread_past_one_block() {
    let mut g = generators::random_graph(20_000, 40_000, &["a", "b", "c"], 7);
    let q = parse_crpq(
        "(x, z) <- x -[a b*]-> y, y -[c + a]-> z, z -[b]-> w",
        g.alphabet_mut(),
    )
    .unwrap();
    for atom in &q.atoms {
        let nfa = atom.nfa();
        let (four, stats) = rpq::rpq_relation(&g, &nfa, &mut ReachScratch::new(), 4);
        let (one, _) = rpq::rpq_relation(&g, &nfa, &mut ReachScratch::new(), 1);
        assert!(stats.sources_swept > 0);
        assert_eq!(four, one);
    }
    for sem in Semantics::ALL {
        let one = Eval::new(&q, &g).semantics(sem).tuples();
        assert!(!one.is_empty(), "{sem} has answers");
        assert_eq!(
            Eval::new(&q, &g).semantics(sem).threads(4).tuples(),
            one,
            "{sem}"
        );
    }
}

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
