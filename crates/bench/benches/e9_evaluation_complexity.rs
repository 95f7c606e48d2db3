//! E9 — Prop 3.1/3.2: evaluation complexity.
//!
//! * data complexity: fixed query, growing graphs — standard stays
//!   polynomial, injective semantics pay the simple-path premium;
//! * combined complexity: growing chain query, fixed graph;
//! * the exponential simple-path wall on diamond ladders.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use crpq_core::{Eval, Semantics};
use crpq_graph::{rpq, NodeId};
use crpq_util::Interner;
use crpq_workloads::scaling;
use std::time::Duration;

fn bench_data_complexity(c: &mut Criterion) {
    let mut group = c.benchmark_group("e9_data");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(1));
    let mut sigma = Interner::new();
    let q = scaling::data_complexity_query(&mut sigma);
    for n in [6usize, 10, 14] {
        let g = scaling::data_complexity_graph(n, 11);
        let tuple = [NodeId(0), NodeId((n - 1) as u32)];
        for sem in Semantics::ALL {
            group.bench_with_input(BenchmarkId::new(sem.short_name(), n), &n, |b, _| {
                b.iter(|| Eval::new(&q, &g).semantics(sem).contains(&tuple));
            });
        }
    }
    group.finish();
}

fn bench_combined_complexity(c: &mut Criterion) {
    let mut group = c.benchmark_group("e9_combined");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(1));
    let g = scaling::combined_complexity_graph(3);
    for k in [2usize, 4, 6] {
        let mut sigma = Interner::new();
        let q = scaling::combined_complexity_query(k, &mut sigma);
        for sem in Semantics::ALL {
            group.bench_with_input(BenchmarkId::new(sem.short_name(), k), &k, |b, _| {
                b.iter(|| Eval::new(&q, &g).semantics(sem).contains(&[]));
            });
        }
    }
    group.finish();
}

fn bench_simple_path_wall(c: &mut Criterion) {
    // The NP wall in its purest form: failing simple-path search explores
    // all 2^n routes of the diamond ladder.
    let mut group = c.benchmark_group("e9_simple_path_wall");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(1));
    for n in [6usize, 9, 12] {
        let mut g = scaling::diamond_ladder(n);
        let expr = vec!["a"; 2 * n + 1].join(" ");
        let regex = crpq_automata::parse_regex(&expr, g.alphabet_mut()).unwrap();
        let nfa = crpq_automata::Nfa::from_regex(&regex);
        let s = g.node_by_name("s0").unwrap();
        let t = g.node_by_name(&format!("s{n}")).unwrap();
        group.bench_with_input(BenchmarkId::new("simple_path_fail", n), &n, |b, _| {
            b.iter(|| {
                assert!(!rpq::simple_path_exists(&g, &nfa, s, t, &g.node_set()));
            });
        });
        // Standard reachability on the same instance is instant.
        group.bench_with_input(BenchmarkId::new("standard_reach", n), &n, |b, _| {
            b.iter(|| rpq::rpq_exists(&g, &nfa, s, t));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_data_complexity,
    bench_combined_complexity,
    bench_simple_path_wall
);
criterion_main!(benches);
