//! Differential property tests for the join-based evaluator: on random
//! graphs × random CRPQs, every terminal of an [`Eval`] request — with one
//! and with two materialisation threads — must return exactly the same
//! tuple sets as the legacy `|V|^arity` enumeration oracle, under all three
//! semantics, and every prefix of a stream must be the matching `limit`.

use crpq::core::{eval_tuples_enumerate, Eval};
use crpq::prelude::*;
use proptest::prelude::*;
use std::sync::Arc;

/// The generator slices of the contract table: (query class, arity).
const CONTRACT_ROWS: [(QueryClass, usize); 4] = [
    (QueryClass::CrpqFin, 1),
    (QueryClass::Crpq, 1),
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
    /// arities 1 and 2, Boolean queries, which take the join path at every
    /// thread count), every semantics and `threads ∈ {1, 2}`, the terminals agree:
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

    /// The cursor resumes at every depth: for every row of the contract
    /// table and every semantics, the first `k` tuples of `stream()`,
    /// sorted, are `limit(k)` for every `k` in `0..=|answers| + 1` — so
    /// resumes land inside variants, across variant boundaries and below
    /// existential suffixes.
    #[test]
    fn stream_prefixes_equal_limits(seed in 0u64..100_000) {
        for (class, arity) in CONTRACT_ROWS {
            let (q, g) = random_instance(seed, class, arity);
            let g = Arc::new(g);
            for sem in Semantics::ALL {
                let request = || Eval::new(&q, &g).semantics(sem);
                let answers = request().tuples().len();
                let mut stream = request().stream();
                let mut prefix: Vec<Vec<NodeId>> = Vec::new();
                for k in 0..=answers + 1 {
                    let mut sorted = prefix.clone();
                    sorted.sort();
                    prop_assert_eq!(
                        request().limit(k), sorted,
                        "seed {} {:?}/{} {} k {}", seed, class, arity, sem, k
                    );
                    prefix.extend(stream.next());
                }
                prop_assert_eq!(prefix.len(), answers);
            }
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

/// A graph whose `a`-edges all end, and whose `b`-edges all start, in two
/// middle nodes (`n0`, `n1`), with `c`-edges anywhere: a variable between
/// an `a`- and a `b`-atom has the smallest domain, so the elimination
/// order binds it first, before the free variables around it.
fn middle_graph(seed: u64) -> GraphDb {
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = |k: u64| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x % k
    };
    let nodes = 7 + next(4);
    let name = |v: u64| format!("n{v}");
    let mut b = GraphBuilder::new();
    for v in 0..nodes {
        b.node(&name(v));
    }
    for _ in 0..nodes {
        let (mid, outer) = (next(2), 2 + next(nodes - 2));
        b.edge(&name(outer), "a", &name(mid));
        let (mid, outer) = (next(2), 2 + next(nodes - 2));
        b.edge(&name(mid), "b", &name(outer));
        b.edge(&name(next(nodes)), "c", &name(next(nodes)));
    }
    b.finish()
}

/// The output path on the shapes that need the cursor's seen index and
/// on those that do not, under every semantics: an existential variable
/// ordered before the free ones, a multi-variant query (an `a*` atom), a
/// Boolean query with one and with two variants, and a repeated free
/// variable. `tuples()` equals the enumeration oracle and the sorted
/// stream, the stream and every `limit(k)` are distinct, and `limit(k)`
/// is the first `min(k, |answers|)` answers of a subset of `tuples()`.
#[test]
fn output_path_matches_oracle_on_seen_index_shapes() {
    let shapes = [
        "(x, z) <- x -[a]-> y, y -[b c*]-> z",
        "(x, y) <- x -[a*]-> y, y -[b]-> z",
        "x -[a]-> y, y -[b c*]-> z",
        "x -[a*]-> y, y -[b]-> z",
        "(x, x) <- x -[a]-> y, y -[b c*]-> x",
    ];
    let mut answers = [0usize; 5];
    for seed in 0..16 {
        for (i, text) in shapes.into_iter().enumerate() {
            let mut g = middle_graph(seed);
            let q = parse_crpq(text, g.alphabet_mut()).unwrap();
            let g = Arc::new(g);
            for sem in Semantics::ALL {
                let ctx = format!("{text} seed {seed} {sem}");
                let request = || Eval::new(&q, &g).semantics(sem);
                let tuples = request().tuples();
                assert_eq!(tuples, eval_tuples_enumerate(&q, &*g, sem), "{ctx}");
                let mut streamed: Vec<Vec<NodeId>> = request().stream().collect();
                streamed.sort();
                assert_eq!(streamed, tuples, "stream: {ctx}");
                for k in 0..=tuples.len() + 1 {
                    let mut limited = request().limit(k);
                    assert_eq!(limited.len(), k.min(tuples.len()), "limit({k}): {ctx}");
                    limited.dedup();
                    assert_eq!(limited.len(), k.min(tuples.len()), "distinct: {ctx}");
                    assert!(limited.iter().all(|t| tuples.contains(t)), "subset: {ctx}");
                }
                answers[i] += tuples.len();
            }
        }
    }
    assert!(
        answers.iter().all(|&n| n > 0),
        "every shape has answers: {answers:?}"
    );
}

/// A stream's first tuple comes from the witness phase, and the planned
/// cursor behind the rest skips it. Under every semantics, on the
/// multi-variant `a*` shape and on the middle-node shapes (with the head
/// `(z, x)` a fresh stream binds `z` first and reads both atoms backward
/// by swept rows), the drained stream holds each answer once, starts with
/// `limit(1)`'s answer and, sorted, is the oracle.
#[test]
fn stream_never_repeats_the_witness() {
    let shapes = [
        "(x, y) <- x -[a*]-> y, y -[b]-> z",
        "(x, z) <- x -[a]-> y, y -[b c*]-> z",
        "(z, x) <- x -[a]-> y, y -[b c*]-> z",
    ];
    for seed in 0..16 {
        for text in shapes {
            let mut g = middle_graph(seed);
            let q = parse_crpq(text, g.alphabet_mut()).unwrap();
            let g = Arc::new(g);
            for sem in Semantics::ALL {
                let ctx = format!("{text} seed {seed} {sem}");
                let streamed: Vec<Vec<NodeId>> =
                    Eval::new(&q, &g).semantics(sem).stream().collect();
                let mut sorted = streamed.clone();
                sorted.sort();
                sorted.dedup();
                assert_eq!(sorted.len(), streamed.len(), "a repeated tuple: {ctx}");
                assert_eq!(sorted, eval_tuples_enumerate(&q, &*g, sem), "{ctx}");
                let first = Eval::new(&q, &g).semantics(sem).limit(1);
                assert_eq!(streamed.first(), first.first(), "{ctx}");
            }
        }
    }
}
