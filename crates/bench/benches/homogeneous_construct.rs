//! Bench: Theorem 3.2 construction cost — generator search + ordering +
//! exact homogeneity census, as m (i.e. 1/ε) grows.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use locap_core::homogeneous::construct_budgeted;
use locap_graph::budget::RunBudget;

fn bench_construct(c: &mut Criterion) {
    let mut group = c.benchmark_group("thm32_construct");
    group.sample_size(10);
    for m in [6u64, 10, 16] {
        group.bench_with_input(BenchmarkId::new("k1_r1", m), &m, |b, &m| {
            b.iter(|| {
                black_box(
                    construct_budgeted(1, 1, m, &RunBudget::unlimited()).unwrap().homogeneous_count,
                )
            })
        });
    }
    for m in [6u64, 10] {
        group.bench_with_input(BenchmarkId::new("k2_r1", m), &m, |b, &m| {
            b.iter(|| {
                black_box(
                    construct_budgeted(2, 1, m, &RunBudget::unlimited()).unwrap().homogeneous_count,
                )
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_construct);
criterion_main!(benches);
