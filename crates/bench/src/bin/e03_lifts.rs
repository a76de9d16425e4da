//! E03 — Fig. 3: graph lifts, covering maps and fibres.
//!
//! Reconstructs the figure's 2-lift of the 4-cycle-with-labels, verifies
//! the covering map, prints the fibres, and stress-checks random l-lifts:
//! degree preservation, fibre uniformity and view invariance.

use locap_bench::{cells, hprintln, Table};
use locap_graph::{gen, PoGraph};
use locap_lifts::{connect_copies, random_lift, trivial_lift, view};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    locap_bench::run("e03_lifts", "E03", "Fig. 3 — lifts, covering maps, fibres", body);
}

fn body() {
    // Fig. 3's base graph G: the 4-cycle a-b-c-d with PO structure.
    let g = PoGraph::canonical(&gen::cycle(4)).digraph().clone();
    let (h, phi) = trivial_lift(&g, 2);
    phi.verify(&h, &g).expect("trivial 2-lift is a covering map");

    hprintln!("\nBase G: 4-cycle; H = 2-lift. Fibres:");
    let mut t = Table::new(&["node of G", "fibre in H", "size"]);
    for v in 0..4 {
        let f = phi.fibre(v, &g);
        t.row(&cells([&v, &format!("{f:?}"), &f.len()]));
    }
    t.print();

    hprintln!("\nRandom l-lifts (seed 7): verification + view invariance");
    let mut rng = StdRng::seed_from_u64(7);
    let mut t = Table::new(&["l", "lift nodes", "covering map", "views match ϕ", "connected"]);
    for l in [2usize, 3, 5, 8] {
        let (hl, p) = random_lift(&g, l, &mut rng);
        let ok = p.verify(&hl, &g).is_ok();
        let views_ok = (0..hl.node_count()).all(|v| view(&hl, v, 2) == view(&g, p.image(v), 2));
        let conn = hl.underlying_simple().is_connected();
        t.row(&cells([&l, &hl.node_count(), &ok, &views_ok, &conn]));
    }
    t.print();

    hprintln!("\nConnected lifts by cyclic rewiring (Prop. 4.5):");
    let mut t = Table::new(&["l", "nodes", "connected", "covering map"]);
    for l in [2usize, 3, 7] {
        let (hc, p) = connect_copies(&g, l).expect("cycle has a redundant edge");
        t.row(&cells([
            &l,
            &hc.node_count(),
            &hc.underlying_simple().is_connected(),
            &p.verify(&hc, &g).is_ok(),
        ]));
    }
    t.print();
}
