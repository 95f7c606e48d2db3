//! E10 — the §3 trichotomy discussion ([3]): the simple-path tractability
//! frontier, made executable.
//!
//! Three series:
//!
//! * `classify` — cost of the language classifier itself (monoid
//!   enumeration + deletion-closure inclusion) on canonical languages;
//! * `fastpath` — atom-injective evaluation of an `a·a*` atom on a clique
//!   with an unreachable target: the exact engine enumerates all simple
//!   paths (factorial wall), the analyzed engine answers by reachability
//!   (the NL-side of the trichotomy);
//! * `hard_class` — the `(a a)*` parity language on the same family: not
//!   deletion-closed, so *both* engines pay the NP-style search, matching
//!   the trichotomy's hard class.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use crpq_automata::tractability::{classify, AnalysisLimits};
use crpq_automata::{parse_regex, Nfa};
use crpq_core::{Eval, Semantics};
use crpq_graph::{generators, GraphDb, NodeId};
use crpq_query::parse_crpq;
use crpq_util::Interner;
use std::time::Duration;

/// Clique of `n` `a`-nodes plus an isolated target `t` — negative
/// simple-path instances with maximal search space.
fn clique_with_unreachable_target(n: usize) -> (GraphDb, NodeId, NodeId) {
    let mut b = generators::clique(n, "a").into_builder();
    let t = b.node("t");
    let g = b.finish();
    let s = g.node_by_name("v0").unwrap();
    (g, s, t)
}

fn bench_classify(c: &mut Criterion) {
    let mut group = c.benchmark_group("e10_classify");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(1));
    for expr in ["a*", "(a a)*", "a* b a*", "(a b)*", "(a+b)* c (a+b)*"] {
        group.bench_with_input(BenchmarkId::new("classify", expr), &expr, |bench, e| {
            bench.iter(|| {
                let mut sigma = Interner::new();
                let nfa = Nfa::from_regex(&parse_regex(e, &mut sigma).unwrap());
                let alphabet: Vec<_> = nfa.symbols();
                classify(&nfa, &alphabet, AnalysisLimits::default())
            });
        });
    }
    group.finish();
}

fn bench_fastpath(c: &mut Criterion) {
    let mut group = c.benchmark_group("e10_fastpath");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(1));
    for n in [6usize, 8, 9] {
        let (mut g, s, t) = clique_with_unreachable_target(n);
        let q = parse_crpq("(x, y) <- x -[a a*]-> y", g.alphabet_mut()).unwrap();
        group.bench_with_input(BenchmarkId::new("exact", n), &n, |bench, _| {
            bench.iter(|| {
                Eval::new(&q, &g)
                    .semantics(Semantics::AtomInjective)
                    .contains(&[s, t])
            });
        });
        group.bench_with_input(BenchmarkId::new("analyzed", n), &n, |bench, _| {
            bench.iter(|| {
                Eval::new(&q, &g)
                    .semantics(Semantics::AtomInjective)
                    .analyzed()
                    .contains(&[s, t])
            });
        });
    }
    // The analyzed engine stays flat far beyond the exact engine's horizon.
    for n in [20usize, 40] {
        let (mut g, s, t) = clique_with_unreachable_target(n);
        let q = parse_crpq("(x, y) <- x -[a a*]-> y", g.alphabet_mut()).unwrap();
        group.bench_with_input(BenchmarkId::new("analyzed", n), &n, |bench, _| {
            bench.iter(|| {
                Eval::new(&q, &g)
                    .semantics(Semantics::AtomInjective)
                    .analyzed()
                    .contains(&[s, t])
            });
        });
    }
    group.finish();
}

fn bench_hard_class(c: &mut Criterion) {
    let mut group = c.benchmark_group("e10_hard_class");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(1));
    for n in [6usize, 8, 9] {
        let (mut g, s, t) = clique_with_unreachable_target(n);
        let q = parse_crpq("(x, y) <- x -[(a a)*]-> y", g.alphabet_mut()).unwrap();
        group.bench_with_input(BenchmarkId::new("exact", n), &n, |bench, _| {
            bench.iter(|| {
                Eval::new(&q, &g)
                    .semantics(Semantics::AtomInjective)
                    .contains(&[s, t])
            });
        });
        group.bench_with_input(BenchmarkId::new("analyzed", n), &n, |bench, _| {
            bench.iter(|| {
                Eval::new(&q, &g)
                    .semantics(Semantics::AtomInjective)
                    .analyzed()
                    .contains(&[s, t])
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_classify, bench_fastpath, bench_hard_class);
criterion_main!(benches);
