//! Bench: the §1.5 / Thm 1.6 edge-dominating-set pipeline — the
//! double-cover upper bound, the exact solver, and the lower-bound
//! certification.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use locap_algos::double_cover::eds_double_cover;
use locap_core::eds_lower::{eds_instance, lower_bound_report_budgeted};
use locap_graph::budget::RunBudget;
use locap_graph::{gen, PortNumbering};
use locap_problems::edge_dominating_set;

fn bench_eds(c: &mut Criterion) {
    let mut group = c.benchmark_group("eds_upper_bound");
    for n in [9usize, 27, 81] {
        let g = gen::cycle(n);
        let ports = PortNumbering::sorted(&g);
        group.bench_with_input(BenchmarkId::new("double_cover_cycle", n), &n, |b, _| {
            b.iter(|| black_box(eds_double_cover(&g, &ports).unwrap().len()))
        });
    }
    let p = gen::petersen();
    let ports = PortNumbering::sorted(&p);
    group.bench_function("double_cover_petersen", |b| {
        b.iter(|| black_box(eds_double_cover(&p, &ports).unwrap().len()))
    });
    group.finish();

    let mut group = c.benchmark_group("eds_exact");
    group.sample_size(10);
    for n in [9usize, 15, 21] {
        let g = gen::cycle(n);
        group.bench_with_input(BenchmarkId::new("bnb_cycle", n), &n, |b, _| {
            b.iter(|| black_box(edge_dominating_set::opt_value(&g)))
        });
    }
    group.finish();

    let mut group = c.benchmark_group("eds_lower_bound");
    group.sample_size(10);
    for n in [9usize, 15] {
        let inst = eds_instance(2, n).unwrap();
        group.bench_with_input(BenchmarkId::new("certify_dp2", n), &n, |b, _| {
            b.iter(|| {
                black_box(
                    lower_bound_report_budgeted(&inst, &RunBudget::unlimited()).unwrap().ratio,
                )
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_eds);
criterion_main!(benches);
