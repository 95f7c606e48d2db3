//! Ablation benches for the engine's design choices:
//!
//! * **direct vs characterisation** evaluation engines (path search vs
//!   expansion + homomorphism — Prop 2.2/2.3);
//! * **trail vs simple-path** search primitives on the same instances.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use crpq_containment::Semantics;
use crpq_core::{expansion_eval, Eval};
use crpq_graph::{generators, rpq};
use crpq_query::parse_crpq;
use std::time::Duration;

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

criterion_group!(benches, bench_engines, bench_path_primitives);
criterion_main!(benches);
