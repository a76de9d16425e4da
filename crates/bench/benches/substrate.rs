//! Bench: substrate costs — wreath-group multiplication, Cayley graph
//! construction, lift products, canonical neighbourhood extraction and the
//! message-passing simulator round loop.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use locap_graph::budget::RunBudget;
use locap_graph::canon::ordered_nbhd;
use locap_graph::product::label_matching_product;
use locap_graph::{gen, PortNumbering};
use locap_groups::{cayley, Group, IterGroup};
use locap_lifts::{random_lift, trivial_lift};
use locap_models::sim::{run_sync_budgeted, GossipIds};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_substrate(c: &mut Criterion) {
    // group ops
    let mut group = c.benchmark_group("iter_group_ops");
    for level in [2usize, 3, 4] {
        let g = IterGroup::finite(level, 6).unwrap();
        let a: Vec<i64> = (0..g.dim() as i64).map(|x| x % 6).collect();
        let b: Vec<i64> = (0..g.dim() as i64).map(|x| (x * 3 + 1) % 6).collect();
        group.bench_with_input(BenchmarkId::new("op", level), &level, |bch, _| {
            bch.iter(|| black_box(g.op(&a, &b)))
        });
        group.bench_with_input(BenchmarkId::new("inv", level), &level, |bch, _| {
            bch.iter(|| black_box(g.inv(&a)))
        });
    }
    group.finish();

    // Cayley construction
    let mut group = c.benchmark_group("cayley_build");
    group.sample_size(10);
    for m in [6u64, 12] {
        let h = IterGroup::finite(2, m).unwrap();
        group.bench_with_input(BenchmarkId::new("h2", m), &m, |b, _| {
            b.iter(|| black_box(cayley(&h, &[vec![1, 0, 1]]).unwrap().edge_count()))
        });
    }
    group.finish();

    // lift products
    let mut group = c.benchmark_group("lifts");
    group.sample_size(10);
    let base = gen::directed_cycle(12);
    let mut rng = StdRng::seed_from_u64(5);
    group.bench_function("random_lift_50", |b| {
        b.iter(|| black_box(random_lift(&base, 50, &mut rng).0.edge_count()))
    });
    let h2 = cayley(&IterGroup::finite(2, 6).unwrap(), &[vec![1, 0, 1]]).unwrap();
    group.bench_function("label_matching_product_216x12", |b| {
        b.iter(|| black_box(label_matching_product(&h2, &base).edge_count()))
    });
    let (big, _) = trivial_lift(&base, 100);
    group.bench_function("underlying_simple_1200", |b| {
        b.iter(|| black_box(big.underlying_simple().edge_count()))
    });
    group.finish();

    // canonical neighbourhoods
    let mut group = c.benchmark_group("canon");
    let g = gen::hypercube(6); // 64 nodes, degree 6
    let rank: Vec<usize> = (0..64).collect();
    for r in [1usize, 2] {
        group.bench_with_input(BenchmarkId::new("ordered_nbhd_q6", r), &r, |b, &r| {
            b.iter(|| {
                let mut acc = 0u32;
                for v in 0..64 {
                    acc += ordered_nbhd(&g, &rank, v, r).n;
                }
                black_box(acc)
            })
        });
    }
    group.finish();

    // simulator round loop
    let mut group = c.benchmark_group("simulator");
    let cyc = gen::cycle(256);
    let ports = PortNumbering::sorted(&cyc);
    let ids: Vec<u64> = (0..256u64).collect();
    for r in [1usize, 4] {
        group.bench_with_input(BenchmarkId::new("gossip_c256", r), &r, |b, &r| {
            let budget = RunBudget::unlimited().with_max_rounds(r + 2);
            let algo = GossipIds { rounds: r };
            b.iter(|| {
                black_box(
                    run_sync_budgeted(&cyc, &ports, Some(&ids), None, None, &algo, &budget)
                        .unwrap()
                        .rounds,
                )
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_substrate);
criterion_main!(benches);
