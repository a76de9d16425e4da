//! E02 — Fig. 2 + §1.1: MIS on cycles separates ID, OI and PO once the
//! run-time may grow with n.
//!
//! * **ID**: Cole–Vishkin finds an MIS in log*-many + O(1) rounds; we
//!   measure the reduction rounds as n grows.
//! * **OI**: with the identity order, all interior nodes of the cycle have
//!   isomorphic ordered r-neighbourhoods, so any radius-r OI algorithm
//!   outputs the same bit on ≥ n − 2r nodes — for n > f(r) that is never
//!   an MIS. We print the census.
//! * **PO**: on the symmetric directed cycle all views coincide, so every
//!   PO algorithm outputs a constant — all-ones is not independent,
//!   all-zeros is not maximal. MIS is unsolvable outright.

use locap_algos::cole_vishkin::{cycle_mis_n, rounds_to_six_colors};
use locap_bench::{cells, hprintln, Table};
use locap_graph::canon::ordered_type_census;
use locap_graph::gen;
use locap_lifts::view_census;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    locap_bench::run("e02_separation", "E02", "Fig. 2 — MIS on cycles: ID vs OI vs PO", body);
}

fn body() {
    hprintln!("\n[ID] Cole–Vishkin MIS, measured rounds (log* behaviour):\n");
    let mut t = Table::new(&[
        "n",
        "reduction rounds",
        "worst over 30 random id draws",
        "total rounds",
        "|MIS|",
        "valid",
    ]);
    let mut rng = StdRng::seed_from_u64(2012);
    for n in [8usize, 16, 64, 256, 1024, 4096] {
        let out = cycle_mis_n(n, None).expect("cycles are well-formed");
        let g = gen::cycle(n);
        let valid = locap_problems::independent_set::feasible(&g, &out.mis)
            && g.nodes().all(|v| {
                out.mis.contains(&v) || g.neighbors(v).iter().any(|u| out.mis.contains(u))
            });
        // worst case over random id assignments from a poly(n) universe
        let universe = (n as u64).saturating_mul(n as u64).max(64);
        let worst = (0..30)
            .map(|_| {
                let ids = locap_graph::random::random_ids(n, universe, &mut rng);
                rounds_to_six_colors(&g, &ids).expect("cycles are well-formed")
            })
            .max()
            .unwrap();
        t.row(&cells([
            &n,
            &out.reduction_rounds,
            &worst,
            &out.total_rounds,
            &out.mis.len(),
            &valid,
        ]));
    }
    t.print();

    hprintln!("\n[OI] ordered-type census of C_n, identity order (radius r):\n");
    let mut t = Table::new(&["n", "r", "types", "largest class", "forced identical fraction"]);
    for (n, r) in [(32usize, 1usize), (32, 2), (256, 2), (256, 3)] {
        let g = gen::cycle(n);
        let rank: Vec<usize> = (0..n).collect();
        let census = ordered_type_census(&g, &rank, r);
        let largest = census[0].1;
        t.row(&cells([
            &n,
            &r,
            &census.len(),
            &largest,
            &format!("{largest}/{n} = {:.3}", largest as f64 / n as f64),
        ]));
    }
    t.print();
    hprintln!(
        "\n  ⇒ any radius-r OI algorithm gives the same answer on the largest\n    \
         class; a constant answer on >= n-2r adjacent nodes is never an MIS\n    \
         (all-1 violates independence, all-0 violates maximality)."
    );

    hprintln!("\n[PO] view census of the symmetric directed cycle:\n");
    let mut t = Table::new(&["n", "r", "distinct views"]);
    for (n, r) in [(16usize, 1usize), (16, 3), (128, 3)] {
        let d = gen::directed_cycle(n);
        t.row(&cells([&n, &r, &view_census(&d, r).len()]));
    }
    t.print();
    hprintln!(
        "\n  ⇒ 1 view class: every PO algorithm is constant on C_n — MIS is\n    \
         unsolvable in PO at any constant radius."
    );
}
