//! Differential property tests for the planner layer: catalog-backed
//! evaluation (shared atom relations, adaptive sparse/dense rows) must
//! return exactly the same tuple sets as the legacy `|V|^arity`
//! enumeration oracle and as a fresh catalog swept on three threads, on random
//! graphs × random CRPQs under all three semantics — including when one
//! catalog is reused across semantics and repeated calls. Plus unit tests
//! pinning the sharing contract itself: a multi-variant query with shared
//! atoms materialises each distinct atom exactly once, observable through
//! the catalog's hit/miss counters.

use crpq::core::{eval_tuples_enumerate, Eval, RelationCatalog};
use crpq::prelude::*;
use proptest::prelude::*;

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
    let g = crpq::workloads::random::random_graph_for(&mut sigma, 2, 6, 12, seed ^ 0x517c);
    (q, g)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// One catalog reused across all three semantics (and therefore across
    /// 3× the ε-free variants) still matches the enumeration oracle and
    /// a fresh three-thread catalog; relations materialised for one
    /// semantics are hits for the next.
    #[test]
    fn shared_catalog_matches_oracle_and_parallel(seed in 0u64..100_000) {
        let (q, g) = random_instance(seed, QueryClass::Crpq, 2);
        let mut catalog = RelationCatalog::new(&g);
        for sem in Semantics::ALL {
            let shared = Eval::new(&q, &g).semantics(sem).catalog(&mut catalog).tuples();
            prop_assert_eq!(
                &shared,
                &eval_tuples_enumerate(&q, &g, sem),
                "catalog vs oracle, seed {} sem {}", seed, sem
            );
            prop_assert_eq!(
                &shared,
                &Eval::new(&q, &g).semantics(sem).threads(3).tuples(),
                "catalog vs parallel, seed {} sem {}", seed, sem
            );
        }
        // Every distinct atom is materialised at most once across all three
        // semantics: the runs for the second and third semantics repeat the
        // first run's lookups exactly, so they are pure hits and hits must
        // be at least twice the misses.
        prop_assert!(
            catalog.hits() >= 2 * catalog.misses(),
            "later semantics must reuse the first run's relations \
             (hits {} misses {})", catalog.hits(), catalog.misses()
        );
    }

    /// Finite-language queries, arity 1, with a catalog reused across
    /// *repeated* evaluations of the same query: the second pass must be
    /// all hits and return the identical result.
    #[test]
    fn repeated_evaluation_is_all_hits(seed in 0u64..100_000) {
        let (q, g) = random_instance(seed, QueryClass::CrpqFin, 1);
        let mut catalog = RelationCatalog::new(&g);
        let first = Eval::new(&q, &g).catalog(&mut catalog).tuples();
        let misses_after_first = catalog.misses();
        let second = Eval::new(&q, &g).catalog(&mut catalog).tuples();
        prop_assert_eq!(first, second, "seed {}", seed);
        prop_assert_eq!(
            catalog.misses(), misses_after_first,
            "second evaluation must not materialise anything, seed {}", seed
        );
    }

    /// A caller catalog built with two materialisation threads serves a
    /// repeat request under each semantics from its memoised plans: the
    /// same answers, no miss, and exactly one hit per lookup the first
    /// request made. `Eval::threads` does not apply with `.catalog(..)`:
    /// the catalog keeps the thread count it was built with.
    #[test]
    fn parallel_search_reuses_caller_catalog(seed in 0u64..100_000) {
        let (q, g) = random_instance(seed, QueryClass::Crpq, 1);
        let mut catalog = RelationCatalog::with_threads(&g, 2);
        let mut lookups = None;
        for sem in Semantics::ALL {
            let first = Eval::new(&q, &g).semantics(sem).catalog(&mut catalog).tuples();
            let lookups = *lookups.get_or_insert(catalog.hits() + catalog.misses());
            prop_assert_eq!(
                &first,
                &Eval::new(&q, &g).semantics(sem).tuples(),
                "two-thread catalog vs a fresh one, seed {} sem {}", seed, sem
            );
            let (hits, misses) = (catalog.hits(), catalog.misses());
            let repeat = Eval::new(&q, &g).semantics(sem).catalog(&mut catalog).tuples();
            prop_assert_eq!(&repeat, &first, "seed {} sem {}", seed, sem);
            prop_assert_eq!(catalog.misses(), misses, "a warm repeat must not materialise");
            prop_assert_eq!(
                catalog.hits(), hits + lookups,
                "a warm repeat counts one hit per lookup of the first request, seed {} sem {}",
                seed, sem
            );
        }
    }
}

/// A 2-variant query whose variants share an atom verbatim performs
/// exactly one materialisation per *distinct* atom — the sharing contract
/// of the catalog, observed through its hit/miss counters.
#[test]
fn shared_atoms_materialise_once() {
    let mut b = GraphBuilder::new();
    b.edge("u", "a", "v");
    b.edge("v", "b", "w");
    let mut g = b.finish();
    // a* is nullable → two ε-free variants: {x -[a⁺]-> y, y -[b]-> z} and
    // the collapse x=y with {y -[b]-> z}. The `b` atom is shared verbatim,
    // so the distinct atoms are exactly {a⁺, b}.
    let q = parse_crpq("(z) <- x -[a*]-> y, y -[b]-> z", g.alphabet_mut()).unwrap();
    assert_eq!(q.epsilon_free_union().len(), 2);

    let mut catalog = RelationCatalog::new(&g);
    let result = Eval::new(&q, &g).catalog(&mut catalog).tuples();
    assert_eq!(result, vec![vec![g.node_by_name("w").unwrap()]]);
    assert_eq!(
        catalog.misses(),
        2,
        "exactly one materialisation per distinct atom (a⁺ and b)"
    );
    assert_eq!(catalog.hits(), 1, "the shared b atom is a catalog hit");
    assert_eq!(catalog.len(), 2);
    assert!(catalog.hit_rate() > 0.0);
}

/// The same atom language written through different-but-equal regexes
/// still unifies via the canonical NFA key when the compiled automata are
/// structurally identical across variants of one query.
#[test]
fn canonical_keys_unify_across_variants() {
    let mut sigma = Interner::new();
    // Both atoms nullable → 4 ε-free variants, reusing the (ab)⁺ and c⁺
    // relations across them: 2 misses, with every other lookup a hit.
    let q = parse_crpq("(x, y) <- x -[(a b)*]-> y, y -[c*]-> x", &mut sigma).unwrap();
    let g = crpq::workloads::scaling::data_complexity_graph(30, 11);
    let mut catalog = RelationCatalog::new(&g);
    let _ = Eval::new(&q, &g).catalog(&mut catalog).tuples();
    assert_eq!(q.epsilon_free_union().len(), 4);
    assert_eq!(catalog.misses(), 2, "only (ab)⁺ and c⁺ are distinct");
    assert_eq!(
        catalog.hits(),
        2,
        "the collapsed self-loop variants reuse them"
    );
}

/// `CrpqAtom::canonical_key` agrees with the key of the compiled NFA, and
/// differs across languages.
#[test]
fn atom_canonical_key_matches_nfa_key() {
    let mut sigma = Interner::new();
    let q = parse_crpq("x -[a b]-> y, y -[a b]-> z, z -[b a]-> w", &mut sigma).unwrap();
    let keys: Vec<_> = q
        .atoms
        .iter()
        .map(crpq::prelude::CrpqAtom::canonical_key)
        .collect();
    assert_eq!(keys[0], keys[1], "identical regexes share a key");
    assert_ne!(keys[0], keys[2], "different languages differ");
    assert_eq!(keys[0], q.atoms[0].nfa().canonical_key());
}
