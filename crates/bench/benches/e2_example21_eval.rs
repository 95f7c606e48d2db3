//! E2 — Figure 2 / Example 2.1: evaluation of the running-example query on
//! the reconstructed graphs `G` and `G′` under all three semantics.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use crpq_core::{Eval, Semantics};
use crpq_util::Interner;
use crpq_workloads::paper_examples as paper;
use std::time::Duration;

fn bench_example21(c: &mut Criterion) {
    let mut sigma = Interner::new();
    let q = paper::example21_query(&mut sigma);
    let graphs = [
        ("G", paper::example21_g(&sigma)),
        ("Gprime", paper::example21_gprime(&sigma)),
        ("Gfull", paper::example21_full_separation(&sigma)),
    ];
    let mut group = c.benchmark_group("e2_example21");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(1));
    for (name, g) in &graphs {
        for sem in Semantics::ALL {
            group.bench_function(BenchmarkId::new(*name, sem.short_name()), |b| {
                b.iter(|| {
                    Eval::new(std::hint::black_box(&q), g)
                        .semantics(sem)
                        .tuples()
                });
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_example21);
criterion_main!(benches);
