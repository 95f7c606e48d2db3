//! E3 — Remark 2.1: result-set selectivity per semantics as graph density
//! grows (the hierarchy `q-inj ⊆ a-inj ⊆ st` measured, not just proved).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use crpq_core::{check_hierarchy, Eval, Semantics};
use crpq_graph::generators;
use crpq_query::parse_crpq;
use std::time::Duration;

fn bench_selectivity(c: &mut Criterion) {
    let mut group = c.benchmark_group("e3_hierarchy");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(1));
    for edges in [10usize, 20, 30] {
        let mut g = generators::random_graph(8, edges, &["a", "b", "c"], 7);
        let q = parse_crpq("(x, y) <- x -[(a b)*]-> y, y -[c*]-> x", g.alphabet_mut()).unwrap();
        group.bench_with_input(
            BenchmarkId::new("check_hierarchy", edges),
            &edges,
            |b, _| {
                b.iter(|| {
                    let report = check_hierarchy(&q, &g);
                    assert!(report.holds());
                    report
                });
            },
        );
        // Per-semantics evaluation cost at this density.
        for sem in Semantics::ALL {
            group.bench_with_input(
                BenchmarkId::new(format!("eval_{}", sem.short_name()), edges),
                &edges,
                |b, _| b.iter(|| Eval::new(&q, &g).semantics(sem).tuples()),
            );
        }
    }
    group.finish();
}

fn bench_wikidata_log(c: &mut Criterion) {
    // The paper's §1 motivation: Wikidata-style property-path shapes.

    use crpq_util::Interner;
    use crpq_workloads::wikidata;
    let mut g = wikidata::knowledge_graph(30, 11);
    let mut sigma = Interner::new();
    // Align the query alphabet with the graph's labels.
    for (_, name) in g.alphabet().iter() {
        sigma.intern(name);
    }
    let log = wikidata::query_log(6, g.alphabet_mut(), 13);
    let mut group = c.benchmark_group("e3_wikidata_log");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(1));
    for (i, (shape, q)) in log.iter().enumerate() {
        for sem in Semantics::ALL {
            group.bench_function(
                BenchmarkId::new(format!("q{i}_{shape:?}"), sem.short_name()),
                |b| b.iter(|| Eval::new(q, &g).semantics(sem).tuples()),
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_selectivity, bench_wikidata_log);
criterion_main!(benches);
