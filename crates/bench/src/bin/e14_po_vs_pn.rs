//! E14 — §6.1: the main theorem cannot be extended from PO down to PN.
//!
//! The paper's separating family: 3-regular 3-edge-colourable graphs. The
//! edge colouring gives a port numbering under which **all PN views are
//! identical** (any PN algorithm is constant — no non-trivial dominating
//! set), while in PO *every* orientation breaks symmetry (out-degrees of
//! odd-degree nodes cannot all agree), and the orientation-majority weak
//! colouring yields a non-trivial dominating set.

use std::collections::BTreeSet;

use locap_algos::weak_coloring::{is_weak_coloring, weak_two_coloring};
use locap_bench::{cells, hprintln, Table};
use locap_graph::{Orientation, PoGraph};
use locap_lifts::pn::{k4_edge_coloring, pn_view_census, ports_from_edge_coloring};
use locap_lifts::view_census;
use locap_problems::dominating_set;

fn main() {
    locap_bench::run("e14_po_vs_pn", "E14", "§6.1 — PO is strictly stronger than PN", body);
}

fn body() {
    let (g, col) = k4_edge_coloring();
    let ports = ports_from_edge_coloring(&g, &col).expect("K4 is 3-edge-colourable");

    hprintln!("\n[PN] K4 with colour-derived ports — view census by radius:\n");
    let mut t = Table::new(&["r", "distinct PN views", "⇒"]);
    for r in 0..=4usize {
        let census = pn_view_census(&g, &ports, r);
        t.row(&cells([
            &r,
            &census.len(),
            &if census.len() == 1 { "every PN algorithm is constant" } else { "" },
        ]));
    }
    t.print();
    hprintln!("\n  constant output ⇒ dominating set must be ∅ (infeasible) or all 4");
    hprintln!("  nodes (trivial): PN cannot produce a non-trivial dominating set.");

    hprintln!("\n[PO] the same ports with every one of the 2^6 orientations:\n");
    let edges = g.edge_vec();
    let mut min_classes = usize::MAX;
    let mut weak_successes = 0usize;
    let mut nontrivial_ds = 0usize;
    for mask in 0u32..(1 << edges.len()) {
        let orient = Orientation::from_fn(&g, |e| {
            let idx = edges.iter().position(|&x| x == e).expect("edge listed");
            mask & (1 << idx) != 0
        });
        let po = PoGraph::new(&g, ports.clone(), orient.clone()).expect("valid");
        min_classes = min_classes.min(view_census(po.digraph(), 1).len());
        if let Some(colors) = weak_two_coloring(&g, &orient, 4) {
            assert!(is_weak_coloring(&g, &colors));
            weak_successes += 1;
            let blacks: BTreeSet<usize> = g.nodes().filter(|&v| !colors[v]).collect();
            if dominating_set::feasible(&g, &blacks) && blacks.len() < g.node_count() {
                nontrivial_ds += 1;
            }
        }
    }
    let mut t =
        Table::new(&["orientations", "min view classes", "weak 2-colourings", "non-trivial DS"]);
    t.row(&cells([&64usize, &min_classes, &weak_successes, &nontrivial_ds]));
    t.print();

    hprintln!("\n  every orientation yields ≥ {min_classes} view classes: PO always breaks");
    hprintln!("  symmetry on odd-degree graphs (Σ(out−in) = 0 forces disagreement),");
    hprintln!("  and the weak-colouring dominating set is non-trivial whenever the");
    hprintln!("  colouring succeeds — the §6.1 separation, reproduced.");
}
