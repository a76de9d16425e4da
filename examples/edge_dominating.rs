//! The full Theorem 1.6 story for Δ′ ∈ {2, 4}: reconstruct the
//! lower-bound instances, certify the forced ratio, and measure the
//! double-cover upper bound on a small graph zoo.
//!
//! ```sh
//! cargo run --release --example edge_dominating
//! ```

use locap_algos::double_cover::eds_double_cover;
use locap_core::eds_lower::{eds_bound, eds_instance, lower_bound_report_budgeted};
use locap_graph::budget::RunBudget;
use locap_graph::{gen, PortNumbering};
use locap_problems::{approx_ratio, edge_dominating_set, Goal};

fn main() {
    println!("=== lower bounds ===");
    for (dp, ns) in [(2usize, vec![9usize, 12, 15]), (4, vec![7, 14, 21]), (6, vec![11])] {
        for n in ns {
            let Some(inst) = eds_instance(dp, n) else {
                println!("Δ'={dp}, n={n}: n is not a multiple of 4k−1 — skipped");
                continue;
            };
            let rep =
                lower_bound_report_budgeted(&inst, &RunBudget::unlimited()).expect("certification");
            println!(
                "Δ'={dp}, n={n} ({}-lift of the gadget): forced {} vs OPT {} => ratio {} (bound {})",
                inst.lift_degree,
                rep.min_symmetric,
                rep.opt,
                rep.ratio,
                eds_bound(dp)
            );
            assert_eq!(rep.ratio, eds_bound(dp));
        }
    }

    println!("\n=== upper bound: double-cover algorithm ===");
    let zoo = vec![
        ("C9", gen::cycle(9)),
        ("C15", gen::cycle(15)),
        ("petersen", gen::petersen()),
        ("K5", gen::complete(5)),
        ("Q3", gen::hypercube(3)),
        ("K33", gen::complete_bipartite(3, 3)),
    ];
    for (name, g) in zoo {
        let ports = PortNumbering::sorted(&g);
        let d = eds_double_cover(&g, &ports).expect("well-formed instance");
        assert!(edge_dominating_set::feasible(&g, &d), "{name}");
        let opt = edge_dominating_set::opt_value(&g);
        let ratio = approx_ratio(d.len(), opt, Goal::Minimize).unwrap();
        let dp = 2 * (g.max_degree() / 2).max(1);
        println!(
            "{name:10} |D| = {:2}  OPT = {:2}  ratio = {} (≤ {} ✓)",
            d.len(),
            opt,
            ratio,
            eds_bound(dp)
        );
        assert!(ratio <= eds_bound(dp), "{name}");
    }
}
