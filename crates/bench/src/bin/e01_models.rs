//! E01 — Fig. 1: the three models of distributed computing.
//!
//! Builds the same small graph under ID, OI and PO and prints exactly what
//! information each model exposes to a radius-1 algorithm at each node:
//! the ID neighbourhood (identifier values), the OI neighbourhood
//! (canonical order type), and the PO view (walk tree).

use locap_bench::{cells, hprint, hprintln, Table};
use locap_graph::canon::{id_nbhd, ordered_nbhd};
use locap_graph::{gen, PoGraph};
use locap_lifts::view;

fn main() {
    locap_bench::run(
        "e01_models",
        "E01",
        "Fig. 1 — three models: what a node sees at radius 1",
        body,
    );
}

fn body() {
    // Fig. 1's 4-node example graph: a path a-b-c plus pendant d at b.
    let mut g = gen::path(3);
    // add node d = 3 attached to b = 1
    let mut edges: Vec<(usize, usize)> = g.edges().map(|e| (e.u, e.v)).collect();
    edges.push((1, 3));
    g = locap_graph::Graph::from_edges(4, &edges).unwrap();

    let ids: Vec<u64> = vec![3, 5, 2, 8]; // Fig. 1's ID labels
    let rank: Vec<usize> = vec![1, 2, 0, 3]; // OI: a < b < c... Fig 1: c < a < b < d
    let po = PoGraph::canonical(&g);

    let mut t = Table::new(&["node", "ID: ids in ball", "OI: (n, root)", "PO: |view|, degree"]);
    for v in g.nodes() {
        let idn = id_nbhd(&g, &ids, v, 1);
        let oin = ordered_nbhd(&g, &rank, v, 1);
        let vw = view(po.digraph(), v, 1);
        t.row(&cells([
            &v,
            &format!("{:?} root#{}", idn.ids, idn.root),
            &format!("n={} root={} edges={:?}", oin.n, oin.root, oin.edges),
            &format!("size={} children={}", vw.size(), vw.root.children.len()),
        ]));
    }
    t.print();

    hprintln!();
    hprintln!("ID exposes numeric identifiers; OI only their relative order;");
    hprintln!("PO only the port-numbered, oriented walk structure:");
    hprintln!();
    let vw = view(po.digraph(), 1, 2);
    hprintln!("view of node b (radius 2) as walks: ");
    for w in vw.words() {
        hprint!("{w}  ");
    }
    hprintln!();
}
