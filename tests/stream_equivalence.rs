//! Differential tests for the streaming enumeration API: a collected
//! stream must equal the fully materialised answer set under every
//! semantics and executor (binary join, WCOJ, work-stealing parallel),
//! `Eval::limit(k)` must return exactly `min(k, |answers|)` true answers,
//! and `Eval::ask` must agree with non-emptiness, cold and on a warm
//! caller catalog. Plus the consumer-side
//! cancellation path: dropping a stream after a few tuples must wind the
//! producer down without hanging or panicking.

use crpq::core::{Eval, EvalStrategy, RelationCatalog};
use crpq::prelude::*;
use proptest::prelude::*;
use std::sync::Arc;

/// Collects a stream and sorts it into the canonical `Eval::tuples` order.
fn collect_sorted(stream: crpq::core::stream::TupleStream) -> Vec<Vec<NodeId>> {
    let mut tuples: Vec<Vec<NodeId>> = stream.collect();
    tuples.sort();
    tuples
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Stream-collected == materialised for every semantics × executor on
    /// skewed Zipf graphs (the work-stealing bench family).
    #[test]
    fn stream_matches_materialised(seed in 0u64..100_000) {
        let mut g = generators::zipf_label_graph(30, 120, 16, 1.4, seed);
        let q = crpq::workloads::scaling::steal_query(g.alphabet_mut());
        let g = Arc::new(g);
        for sem in Semantics::ALL {
            for strategy in [EvalStrategy::Join, EvalStrategy::BinaryJoin, EvalStrategy::Wcoj] {
                let request = || Eval::new(&q, &g).semantics(sem).strategy(strategy);
                let materialised = request().tuples();
                let streamed = collect_sorted(request().stream());
                prop_assert_eq!(
                    streamed, materialised.clone(),
                    "stream vs materialised: seed {} sem {} strategy {:?}", seed, sem, strategy
                );
            }
            let parallel = collect_sorted(Eval::new(&q, &g).semantics(sem).threads(4).stream());
            prop_assert_eq!(
                parallel, Eval::new(&q, &g).semantics(sem).tuples(),
                "parallel stream vs materialised: seed {} sem {}", seed, sem
            );
        }
    }

    /// Same agreement on a cyclic (triangle-ish) shape, which routes the
    /// default strategy through the WCOJ executor.
    #[test]
    fn stream_matches_materialised_on_cyclic_shape(seed in 0u64..100_000) {
        let mut g = generators::random_graph(10, 45, &["a", "b", "c"], seed);
        let q = parse_crpq(
            "(x, z) <- x -[a+b]-> y, y -[b+c]-> z, z -[c a*]-> x",
            g.alphabet_mut(),
        )
        .unwrap();
        let g = Arc::new(g);
        for sem in Semantics::ALL {
            let materialised = Eval::new(&q, &g).semantics(sem).tuples();
            let streamed = collect_sorted(Eval::new(&q, &g).semantics(sem).stream());
            prop_assert_eq!(
                streamed, materialised.clone(),
                "stream vs materialised: seed {} sem {}", seed, sem
            );
            let parallel = collect_sorted(Eval::new(&q, &g).semantics(sem).threads(4).stream());
            prop_assert_eq!(
                parallel, materialised,
                "parallel stream vs materialised: seed {} sem {}", seed, sem
            );
        }
    }

    /// `Eval::ask` (sequential, catalog-backed, parallel) == non-emptiness
    /// of the materialised answer set.
    #[test]
    fn ask_matches_existence(seed in 0u64..100_000) {
        let mut g = generators::random_graph(9, 22, &["a", "b"], seed);
        let q = parse_crpq("(x, y) <- x -[a b*]-> y, y -[b]-> z", g.alphabet_mut()).unwrap();
        for sem in Semantics::ALL {
            let exists = !Eval::new(&q, &g).semantics(sem).tuples().is_empty();
            prop_assert_eq!(Eval::new(&q, &g).semantics(sem).ask(), exists, "ask: seed {} sem {}", seed, sem);
            let mut catalog = RelationCatalog::new(&g);
            prop_assert_eq!(
                Eval::new(&q, &g).semantics(sem).catalog(&mut catalog).ask(), exists,
                "ask with catalog: seed {} sem {}", seed, sem
            );
            // Warm catalog: second call must agree too (exercises the
            // cached-relation path of the ASK fast path).
            prop_assert_eq!(
                Eval::new(&q, &g).semantics(sem).catalog(&mut catalog).ask(), exists,
                "warm ask: seed {} sem {}", seed, sem
            );
            prop_assert_eq!(
                Eval::new(&q, &g).semantics(sem).threads(3).ask(), exists,
                "parallel ask: seed {} sem {}", seed, sem
            );
        }
    }

    /// `Eval::limit(k)` returns exactly `min(k, |answers|)` distinct true
    /// answers, sorted, under every strategy — set-wise only: any k
    /// answers are valid.
    #[test]
    fn limit_returns_k_true_answers(seed in 0u64..100_000) {
        let mut g = generators::zipf_label_graph(24, 90, 8, 1.3, seed);
        let q = parse_crpq("(x, y) <- x -[(l0+l1)(l0+l1+l2)*]-> y", g.alphabet_mut()).unwrap();
        for sem in Semantics::ALL {
            let full = Eval::new(&q, &g).semantics(sem).tuples();
            for k in [0usize, 1, 3, full.len(), full.len() + 5] {
                for strategy in [EvalStrategy::Join, EvalStrategy::BinaryJoin, EvalStrategy::Wcoj] {
                    let limited = Eval::new(&q, &g).semantics(sem).strategy(strategy).limit(k);
                    prop_assert_eq!(
                        limited.len(), k.min(full.len()),
                        "limit len: seed {} sem {} k {} strategy {:?}", seed, sem, k, strategy
                    );
                    prop_assert!(
                        limited.iter().all(|t| full.contains(t)),
                        "limit subset: seed {} sem {} k {} strategy {:?}", seed, sem, k, strategy
                    );
                    let mut sorted = limited.clone();
                    sorted.sort();
                    prop_assert_eq!(limited, sorted, "limit output must be sorted");
                }
                let limited = Eval::new(&q, &g).semantics(sem).threads(3).limit(k);
                prop_assert_eq!(limited.len(), k.min(full.len()));
                prop_assert!(limited.iter().all(|t| full.contains(t)));
            }
        }
    }
}

/// Dropping a stream after two tuples cancels the producer: no hang, no
/// panic, and the tuples received are true (distinct) answers.
#[test]
fn early_drop_cancels_producer() {
    let mut g = generators::zipf_label_graph(60, 360, 6, 1.1, 17);
    let q = parse_crpq("(x, y) <- x -[(l0+l1)(l0+l1+l2)*]-> y", g.alphabet_mut()).unwrap();
    let full = Eval::new(&q, &g).tuples();
    assert!(full.len() > 10, "need a sizeable answer set");
    let g = Arc::new(g);
    for threads in [0usize, 4] {
        let stream = if threads == 0 {
            Eval::new(&q, &g).stream()
        } else {
            Eval::new(&q, &g).threads(threads).stream()
        };
        let first_two: Vec<Vec<NodeId>> = stream.take(2).collect();
        assert_eq!(first_two.len(), 2);
        assert_ne!(first_two[0], first_two[1], "stream tuples must be distinct");
        assert!(first_two.iter().all(|t| full.contains(t)));
    }
}

/// `Eval::limit(1)` agrees with `Eval::ask`, and a boolean (arity-0) query
/// streams its single empty tuple.
#[test]
fn boolean_and_singleton_contracts() {
    let mut g = generators::labelled_path(4, &["a"]);
    let q_bool = parse_crpq("x -[a a]-> y", g.alphabet_mut()).unwrap();
    let q_none = parse_crpq("x -[a a a a a a]-> y", g.alphabet_mut()).unwrap();
    let g = Arc::new(g);
    for sem in Semantics::ALL {
        assert!(Eval::new(&q_bool, &g).semantics(sem).ask());
        assert_eq!(
            Eval::new(&q_bool, &g).semantics(sem).limit(1),
            vec![Vec::new()]
        );
        assert_eq!(
            collect_sorted(Eval::new(&q_bool, &g).semantics(sem).stream()),
            vec![Vec::new()],
            "boolean stream under {sem}"
        );
        assert!(!Eval::new(&q_none, &g).semantics(sem).ask());
        assert!(Eval::new(&q_none, &g).semantics(sem).limit(5).is_empty());
        assert!(collect_sorted(Eval::new(&q_none, &g).semantics(sem).stream()).is_empty());
    }
}
