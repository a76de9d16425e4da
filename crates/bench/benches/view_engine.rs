//! Bench: the memoized view/neighbourhood engine vs the naive per-vertex
//! reference paths — the perf trajectory of the `ViewCache` layer.
//!
//! Four shapes, engine and naive side by side:
//! * `view_census` on a label-complete lift (every view = T*, maximal
//!   interning win);
//! * `view_census` on a homogeneous graph of Thm 3.2;
//! * `view_census` on a random lift of Petersen (mixed classes);
//! * `ordered_type_census` on a random regular graph (scratch-reuse win).
//!
//! `bench_gate` divides each `…/engine/…` median by its `…/naive/…`
//! sibling's, so every row needs its partner under the mirrored name.
//! Every closure runs on one worker (`par::with_workers`): the engine's
//! census fans out over `available_parallelism()` threads on the
//! homogeneous graph while the naive oracle runs on one, so an unpinned
//! ratio would move with the host's core count.

use criterion::{black_box, criterion_group, BenchmarkId, Criterion};
use locap_core::eds_lower::eds_instance;
use locap_core::homogeneous::construct_budgeted;
use locap_graph::budget::RunBudget;
use locap_graph::canon::{ordered_type_census, ordered_type_census_naive};
use locap_graph::{gen, par, random, PoGraph};
use locap_lifts::{random_lift, view_census, view_census_naive};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_view_census(c: &mut Criterion) {
    let mut group = c.benchmark_group("view_census");
    group.sample_size(10);

    let inst = eds_instance(4, 7 * 128).expect("4-regular lift instance");
    for r in [2usize, 3] {
        group.bench_with_input(BenchmarkId::new("engine/label_complete_n896", r), &r, |b, &r| {
            b.iter(|| black_box(view_census(&inst.digraph, r).len()))
        });
        group.bench_with_input(BenchmarkId::new("naive/label_complete_n896", r), &r, |b, &r| {
            b.iter(|| black_box(view_census_naive(&inst.digraph, r).len()))
        });
    }

    let h =
        construct_budgeted(2, 1, 16, &RunBudget::unlimited()).expect("constructible parameters");
    for r in [2usize, 3] {
        group.bench_with_input(BenchmarkId::new("engine/homogeneous_n4096", r), &r, |b, &r| {
            b.iter(|| black_box(view_census(&h.digraph, r).len()))
        });
        group.bench_with_input(BenchmarkId::new("naive/homogeneous_n4096", r), &r, |b, &r| {
            b.iter(|| black_box(view_census_naive(&h.digraph, r).len()))
        });
    }

    let base = PoGraph::canonical(&gen::petersen());
    let mut rng = StdRng::seed_from_u64(42);
    let (lift, _) = random_lift(base.digraph(), 24, &mut rng);
    for r in [2usize, 3] {
        group.bench_with_input(BenchmarkId::new("engine/petersen_lift_n240", r), &r, |b, &r| {
            b.iter(|| black_box(view_census(&lift, r).len()))
        });
        group.bench_with_input(BenchmarkId::new("naive/petersen_lift_n240", r), &r, |b, &r| {
            b.iter(|| black_box(view_census_naive(&lift, r).len()))
        });
    }
    group.finish();
}

fn bench_type_census(c: &mut Criterion) {
    let mut group = c.benchmark_group("ordered_type_census");
    group.sample_size(10);
    let mut rng = StdRng::seed_from_u64(7);
    let g = random::random_regular(256, 4, 500, &mut rng).expect("feasible parameters");
    let rank: Vec<usize> = (0..g.node_count()).collect();
    for r in [1usize, 2] {
        group.bench_with_input(BenchmarkId::new("engine/regular_n256_d4", r), &r, |b, &r| {
            b.iter(|| black_box(ordered_type_census(&g, &rank, r).len()))
        });
        group.bench_with_input(BenchmarkId::new("naive/regular_n256_d4", r), &r, |b, &r| {
            b.iter(|| black_box(ordered_type_census_naive(&g, &rank, r).len()))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_view_census, bench_type_census);

fn main() {
    par::with_workers(1, benches);
}
