//! E09 — Theorem 4.1: simulating an OI algorithm by a PO algorithm.
//!
//! For OI algorithms A (order-greedy vertex cover, local-minimum
//! independent set: the `oi-to-po` pipeline's `vc-non-min` and
//! `is-local-min`), builds B(W) = A((T*, <*, λ)↾W) and measures Fact
//! 4.2's agreement fraction on homogeneous lifts, plus B's feasibility
//! and approximation ratio on the base graph.

use locap_bench::{cells, hprintln, Table};
use locap_core::homogeneous::construct_budgeted;
use locap_core::request::OiAlgo;
use locap_core::transfer::transfer_vertex_budgeted;
use locap_graph::budget::RunBudget;
use locap_graph::gen;
use locap_problems::{independent_set, vertex_cover, Goal};

fn main() {
    locap_bench::run(
        "e09_oi_to_po",
        "E09",
        "Thm 4.1 — OI → PO simulation with agreement accounting",
        body,
    );
}

fn body() {
    let mut t = Table::new(&[
        "A (OI)",
        "G",
        "m",
        "lift nodes",
        "agreement",
        "α(H)",
        "B(G) size",
        "feasible",
        "ratio",
    ]);

    for (g_name, g) in
        [("directed C12", gen::directed_cycle(12)), ("directed C30", gen::directed_cycle(30))]
    {
        for m in [6u64, 12, 20] {
            let h = construct_budgeted(1, 1, m, &RunBudget::unlimited()).unwrap();

            let (rep, _) = transfer_vertex_budgeted(
                &g,
                &h,
                OiAlgo::VcNonMin,
                Goal::Minimize,
                vertex_cover::feasible,
                vertex_cover::opt_value,
                &RunBudget::unlimited(),
            )
            .unwrap();
            t.row(&cells([
                &"VC: non-minimum",
                &g_name,
                &m,
                &rep.lift_nodes,
                &format!("{:.4}", rep.agreement.to_f64()),
                &format!("{:.4}", h.fraction().to_f64()),
                &rep.b_on_g.len(),
                &rep.feasible,
                &rep.ratio.map(|r| r.to_string()).unwrap_or_else(|| "-".into()),
            ]));

            let (rep, _) = transfer_vertex_budgeted(
                &g,
                &h,
                OiAlgo::IsLocalMin,
                Goal::Maximize,
                independent_set::feasible,
                independent_set::opt_value,
                &RunBudget::unlimited(),
            )
            .unwrap();
            t.row(&cells([
                &"IS: local minimum",
                &g_name,
                &m,
                &rep.lift_nodes,
                &format!("{:.4}", rep.agreement.to_f64()),
                &format!("{:.4}", h.fraction().to_f64()),
                &rep.b_on_g.len(),
                &rep.feasible,
                &rep.ratio.map(|r| r.to_string()).unwrap_or_else(|| "-".into()),
            ]));
        }
    }
    t.print();

    hprintln!("\nReading the table:");
    hprintln!("  • agreement ≥ α(H) everywhere — Fact 4.2;");
    hprintln!("  • B is lift-invariant (checked exactly inside transfer_vertex_budgeted);");
    hprintln!("  • VC: B selects everything on symmetric cycles (feasible, ratio 2);");
    hprintln!("  • IS: B selects nothing (feasible but ratio undefined/∞) —");
    hprintln!("    the §1.4 claim that no constant-factor PO independent-set");
    hprintln!("    algorithm exists, here *derived* from an OI algorithm via B.");
}
