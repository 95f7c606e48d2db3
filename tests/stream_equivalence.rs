//! Differential tests for the streaming enumeration API: a collected
//! stream must equal the fully materialised answer set under every
//! semantics, with one and with four materialisation threads,
//! `Eval::limit(k)` must return exactly `min(k, |answers|)` true answers,
//! and `Eval::ask` must agree with non-emptiness, cold and on a warm
//! caller catalog. Plus the consumer side of the cursor: a stream dropped
//! after a few tuples has yielded distinct true answers, and a drained
//! stream stays drained.

use crpq::core::{Eval, RelationCatalog};
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

    /// Stream-collected == materialised for every semantics, with one and
    /// with four materialisation threads, on skewed Zipf graphs.
    #[test]
    fn stream_matches_materialised(seed in 0u64..100_000) {
        let mut g = generators::zipf_label_graph(30, 120, 16, 1.4, seed);
        let q = crpq::workloads::scaling::steal_query(g.alphabet_mut());
        let g = Arc::new(g);
        for sem in Semantics::ALL {
            let materialised = Eval::new(&q, &g).semantics(sem).tuples();
            let streamed = collect_sorted(Eval::new(&q, &g).semantics(sem).stream());
            prop_assert_eq!(
                streamed, materialised.clone(),
                "stream vs materialised: seed {} sem {}", seed, sem
            );
            let four = collect_sorted(Eval::new(&q, &g).semantics(sem).threads(4).stream());
            prop_assert_eq!(
                four, materialised,
                "4-thread stream vs materialised: seed {} sem {}", seed, sem
            );
        }
    }

    /// Same agreement on a cyclic (triangle-ish) shape.
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
            let four = collect_sorted(Eval::new(&q, &g).semantics(sem).threads(4).stream());
            prop_assert_eq!(
                four, materialised,
                "4-thread stream vs materialised: seed {} sem {}", seed, sem
            );
        }
    }

    /// `Eval::ask` (fresh, catalog-backed, 3 threads) == non-emptiness
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
                "3-thread ask: seed {} sem {}", seed, sem
            );
        }
    }

    /// `Eval::limit(k)` returns exactly `min(k, |answers|)` distinct true
    /// answers, sorted, with one and with three materialisation threads —
    /// set-wise only: any k answers are valid.
    #[test]
    fn limit_returns_k_true_answers(seed in 0u64..100_000) {
        let mut g = generators::zipf_label_graph(24, 90, 8, 1.3, seed);
        let q = parse_crpq("(x, y) <- x -[(l0+l1)(l0+l1+l2)*]-> y", g.alphabet_mut()).unwrap();
        for sem in Semantics::ALL {
            let full = Eval::new(&q, &g).semantics(sem).tuples();
            for k in [0usize, 1, 3, full.len(), full.len() + 5] {
                let limited = Eval::new(&q, &g).semantics(sem).limit(k);
                prop_assert_eq!(
                    limited.len(), k.min(full.len()),
                    "limit len: seed {} sem {} k {}", seed, sem, k
                );
                prop_assert!(
                    limited.iter().all(|t| full.contains(t)),
                    "limit subset: seed {} sem {} k {}", seed, sem, k
                );
                let mut sorted = limited.clone();
                sorted.sort();
                prop_assert_eq!(limited, sorted, "limit output must be sorted");
                let limited = Eval::new(&q, &g).semantics(sem).threads(3).limit(k);
                prop_assert_eq!(limited.len(), k.min(full.len()));
                prop_assert!(limited.iter().all(|t| full.contains(t)));
            }
        }
    }
}

/// A stream dropped after two tuples has yielded two distinct true
/// answers, with one and with four materialisation threads.
#[test]
fn early_drop_yields_distinct_true_answers() {
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

/// A drained stream keeps returning `None`, for a query with answers,
/// one without, and a Boolean one.
#[test]
fn drained_stream_stays_drained() {
    let mut g = generators::labelled_path(4, &["a"]);
    let queries = [
        "(x, y) <- x -[a a*]-> y",
        "x -[a a a a a a]-> y",
        "x -[a]-> y",
    ]
    .map(|text| parse_crpq(text, g.alphabet_mut()).unwrap());
    let g = Arc::new(g);
    for q in &queries {
        for sem in Semantics::ALL {
            let mut stream = Eval::new(q, &g).semantics(sem).stream();
            let drained = stream.by_ref().count();
            assert_eq!(drained, Eval::new(q, &g).semantics(sem).tuples().len());
            for _ in 0..3 {
                assert_eq!(stream.next(), None, "drained stream under {sem}");
            }
        }
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
