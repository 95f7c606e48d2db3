//! The witness phase: on a memo miss, `limit(k)`, `ask()` and a stream's
//! first tuple come from one cursor over unpruned plans that reads only
//! the rows its search touches. Its answer must be one the full
//! evaluation returns; when it answers, or proves the result empty within
//! its budget, nothing is materialised; past its budget the request falls
//! back to the planned path, which caches every relation as before.

use crpq::core::{eval_tuples_enumerate, Eval, RelationCatalog};
use crpq::prelude::*;
use std::sync::Arc;

/// Query shapes over the labels `a`, `b`, `c`: a chain with a starred
/// tail, a multi-variant `a*` atom, self-loop atoms, a head that makes
/// the order bind the end of the chain first (so atoms are read
/// backward), and a Boolean query.
const SHAPES: [&str; 7] = [
    "(x, y) <- x -[a b*]-> y, y -[c]-> z",
    "(x, y) <- x -[a*]-> y, y -[b]-> z",
    "(x) <- x -[a b]-> x",
    "(x, y) <- x -[a]-> y, y -[b a*]-> y",
    "(x, z) <- x -[a]-> y, y -[b c*]-> z",
    "(z, x) <- x -[a]-> y, y -[b c*]-> z",
    "x -[a]-> y, y -[b]-> z",
];

fn instance(text: &str, seed: u64) -> (Crpq, GraphDb) {
    let mut g = generators::random_graph(9, 24, &["a", "b", "c"], seed);
    let q = parse_crpq(text, g.alphabet_mut()).unwrap();
    (q, g)
}

/// On a cold caller catalog, `limit(1)` and `ask()` answer from the
/// witness phase: the answer is an oracle answer, and afterwards the
/// catalog holds nothing and counted no miss. A stream's first tuple is
/// the same answer, and `limit(2)` starts from it too.
#[test]
fn cold_first_answers_are_oracle_answers_and_cache_nothing() {
    let mut answered = 0;
    for seed in 0..12 {
        for text in SHAPES {
            let (q, g) = instance(text, seed);
            let g = Arc::new(g);
            for sem in Semantics::ALL {
                let ctx = format!("{text} seed {seed} {sem}");
                let oracle = eval_tuples_enumerate(&q, &*g, sem);
                let mut catalog = RelationCatalog::new(&*g);
                let first = Eval::new(&q, &g)
                    .semantics(sem)
                    .catalog(&mut catalog)
                    .limit(1);
                assert_eq!(first.len(), oracle.len().min(1), "{ctx}");
                assert!(first.iter().all(|t| oracle.contains(t)), "{ctx}");
                let exists = Eval::new(&q, &g).semantics(sem).catalog(&mut catalog).ask();
                assert_eq!(exists, !oracle.is_empty(), "{ctx}");
                assert_eq!(catalog.misses(), 0, "{ctx}");
                assert_eq!(catalog.cached_entries(), 0, "{ctx}");
                assert_eq!(catalog.cached_plans(), 0, "{ctx}");
                let streamed = Eval::new(&q, &g).semantics(sem).stream().next();
                assert_eq!(streamed.as_ref(), first.first(), "{ctx}");
                let two = Eval::new(&q, &g).semantics(sem).limit(2);
                assert!(first.iter().all(|t| two.contains(t)), "{ctx}");
                answered += first.len();
            }
        }
    }
    assert!(answered > 100, "only {answered} requests had an answer");
}

/// A graph of `n` nodes with four random `a`-edges per node and no
/// `b`-edge, and a query whose second atom reads `b`: no answer, and the
/// witness phase tries every `a`-edge before it can tell.
fn answerless(n: usize) -> (Crpq, GraphDb) {
    let mut g = generators::random_graph(n, 4 * n, &["a"], 7);
    let q = parse_crpq("(x) <- x -[a]-> y, y -[b]-> z", g.alphabet_mut()).unwrap();
    (q, g)
}

/// An answerless query on a graph large enough that its search exhausts
/// the witness phase's budget: the planned path answers, with the
/// oracle's empty result, and leaves both relations cached.
#[test]
fn answerless_query_past_the_budget_falls_back_and_caches() {
    let (q, g) = answerless(3_000);
    assert!(eval_tuples_enumerate(&q, &g, Semantics::Standard).is_empty());
    let mut catalog = RelationCatalog::new(&g);
    assert!(Eval::new(&q, &g).catalog(&mut catalog).limit(1).is_empty());
    assert_eq!((catalog.misses(), catalog.cached_entries()), (2, 2));
    assert_eq!(catalog.cached_plans(), 1);
    // The next request is a memo hit and skips the witness phase.
    assert!(!Eval::new(&q, &g).catalog(&mut catalog).ask());
    assert_eq!(catalog.misses(), 2);
    assert!(Eval::new(&q, &Arc::new(g)).stream().next().is_none());
}

/// An answerless query whose search ends within the budget: the result
/// is empty and nothing is materialised or planned.
#[test]
fn answerless_query_within_budget_materialises_nothing() {
    let (q, g) = answerless(40);
    for sem in Semantics::ALL {
        assert!(eval_tuples_enumerate(&q, &g, sem).is_empty());
        let mut catalog = RelationCatalog::new(&g);
        assert!(Eval::new(&q, &g)
            .semantics(sem)
            .catalog(&mut catalog)
            .limit(3)
            .is_empty());
        assert!(!Eval::new(&q, &g).semantics(sem).catalog(&mut catalog).ask());
        assert_eq!(catalog.misses(), 0, "{sem}");
        assert_eq!(catalog.cached_entries(), 0, "{sem}");
        assert_eq!(catalog.cached_plans(), 0, "{sem}");
    }
}

/// With some relations cached but the plan memo missing, the witness
/// phase reads the cached rows and sweeps the rest, and still caches
/// nothing; the full evaluation then plans and counts the cached relation
/// as a hit.
#[test]
fn partly_cached_catalog_caches_nothing_more() {
    for seed in 0..8 {
        let (q, mut g) = instance("(x, z) <- x -[a]-> y, y -[b c*]-> z", seed);
        let warm = parse_crpq("(y, z) <- y -[b c*]-> z", g.alphabet_mut()).unwrap();
        let oracle = eval_tuples_enumerate(&q, &g, Semantics::Standard);
        let mut catalog = RelationCatalog::new(&g);
        Eval::new(&warm, &g).catalog(&mut catalog).tuples();
        let first = Eval::new(&q, &g).catalog(&mut catalog).limit(1);
        assert_eq!(first.len(), oracle.len().min(1), "seed {seed}");
        assert!(first.iter().all(|t| oracle.contains(t)), "seed {seed}");
        assert_eq!((catalog.misses(), catalog.cached_entries()), (1, 1));
        let all = Eval::new(&q, &g).catalog(&mut catalog).tuples();
        assert_eq!(all, oracle, "seed {seed}");
        assert_eq!((catalog.misses(), catalog.hits()), (2, 1), "seed {seed}");
    }
}
