//! Ablation benches for the design choices called out in DESIGN.md:
//!
//! * **parallel vs sequential** counter-example checking (crossbeam fan-out);
//! * **direct vs characterisation** evaluation engines (path search vs
//!   expansion + homomorphism — Prop 2.2/2.3);
//! * **reachability pruning** in the homomorphism/evaluation engine
//!   (measured via the exact-vs-overapproximate candidate domains on
//!   clique-shaped targets);
//! * **trail vs simple-path** search primitives on the same instances.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use crpq_containment::{contain_with, ContainmentConfig, Semantics};
use crpq_core::{expansion_eval, Eval};
use crpq_graph::{generators, rpq};
use crpq_query::expansion::ExpansionLimits;
use crpq_query::parse_crpq;
use crpq_util::Interner;
use std::time::Duration;

fn bench_parallel_containment(c: &mut Criterion) {
    let mut it = Interner::new();
    // 2^10 expansions on the ∀-side, all matched (worst case).
    let q1 = {
        use crpq_automata::Regex;
        use crpq_query::{Crpq, CrpqAtom, Var};
        let a = it.intern("a");
        let b = it.intern("b");
        let atoms = (0..10)
            .map(|i| CrpqAtom {
                src: Var(i as u32),
                dst: Var(i as u32 + 1),
                regex: Regex::alt(vec![Regex::lit(a), Regex::lit(b)]),
            })
            .collect();
        Crpq::boolean(atoms)
    };
    let q2 = parse_crpq("x -[a + b]-> y", &mut it).unwrap();
    let mut group = c.benchmark_group("ablation_parallel");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(1));
    for threads in [1usize, 4] {
        group.bench_with_input(BenchmarkId::from_parameter(threads), &threads, |b, &t| {
            b.iter(|| {
                let out = contain_with(
                    &q1,
                    &q2,
                    Semantics::Standard,
                    ContainmentConfig {
                        limits: ExpansionLimits {
                            max_word_len: 1,
                            max_expansions: usize::MAX,
                        },
                        threads: t,
                    },
                );
                assert!(out.is_contained());
            });
        });
    }
    group.finish();
}

fn bench_engines(c: &mut Criterion) {
    let mut g = generators::random_graph(8, 20, &["a", "b"], 5);
    let q = parse_crpq("x -[a b]-> y, y -[b a]-> z", g.alphabet_mut()).unwrap();
    let mut group = c.benchmark_group("ablation_engines");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(1));
    for sem in Semantics::ALL {
        group.bench_function(BenchmarkId::new("direct", sem.short_name()), |b| {
            b.iter(|| Eval::new(&q, &g).semantics(sem).contains(&[]));
        });
        group.bench_function(BenchmarkId::new("expansion", sem.short_name()), |b| {
            b.iter(|| expansion_eval::eval_contains_complete(&q, &g, &[], sem));
        });
    }
    group.finish();
}

fn bench_parallel_eval(c: &mut Criterion) {
    let mut g = generators::random_graph(10, 30, &["a", "b", "c"], 9);
    let q = parse_crpq("(x, y) <- x -[(a b)*]-> y, y -[c*]-> x", g.alphabet_mut()).unwrap();
    let mut group = c.benchmark_group("ablation_parallel_eval");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(1));
    group.bench_function("sequential", |b| {
        b.iter(|| {
            Eval::new(&q, &g)
                .semantics(Semantics::AtomInjective)
                .tuples()
        });
    });
    group.bench_function("parallel_4", |b| {
        b.iter(|| {
            Eval::new(&q, &g)
                .semantics(Semantics::AtomInjective)
                .threads(4)
                .tuples()
        });
    });
    group.finish();
}

fn bench_path_primitives(c: &mut Criterion) {
    let mut g = generators::grid(4, 4, "r", "d");
    let regex =
        crpq_automata::parse_regex("(r+d)(r+d)(r+d)(r+d)(r+d)(r+d)", g.alphabet_mut()).unwrap();
    let nfa = crpq_automata::Nfa::from_regex(&regex);
    let s = g.node_by_name("g0_0").unwrap();
    let t = g.node_by_name("g3_3").unwrap();
    let mut group = c.benchmark_group("ablation_path_primitives");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(1));
    group.bench_function("standard_reach", |b| {
        b.iter(|| rpq::rpq_exists(&g, &nfa, s, t));
    });
    group.bench_function("simple_path", |b| {
        b.iter(|| rpq::simple_path_exists(&g, &nfa, s, t, &g.node_set()));
    });
    group.bench_function("trail", |b| b.iter(|| rpq::trail_exists(&g, &nfa, s, t)));
    group.finish();
}

criterion_group!(
    benches,
    bench_parallel_containment,
    bench_engines,
    bench_parallel_eval,
    bench_path_primitives
);
criterion_main!(benches);
