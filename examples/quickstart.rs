//! Quickstart: the paper's headline result in twenty lines.
//!
//! ```sh
//! cargo run --example quickstart
//! ```
//!
//! Builds the edge-dominating-set lower-bound instance for Δ′ = 2,
//! certifies that every PO algorithm is stuck at ratio 3 = 4 − 2/Δ′, and
//! runs the matching upper-bound algorithm.

use locap_algos::double_cover::eds_double_cover;
use locap_core::eds_lower::{eds_bound, eds_instance, lower_bound_report_budgeted};
use locap_graph::budget::RunBudget;
use locap_graph::{gen, PortNumbering};
use locap_problems::edge_dominating_set;

fn main() {
    // ---- lower bound (Thm 1.6 machinery) -------------------------------
    let inst = eds_instance(2, 9).expect("directed 9-cycle instance");
    let report =
        lower_bound_report_budgeted(&inst, &RunBudget::unlimited()).expect("instance certifies");

    println!("G0: directed cycle on {} nodes (Δ' = {})", report.n, inst.delta_prime);
    println!("  exact minimum EDS:              {}", report.opt);
    println!("  best PO-attainable (symmetric): {}", report.min_symmetric);
    println!(
        "  certified PO lower bound:       {} (= 4 - 2/Δ' = {})",
        report.ratio,
        eds_bound(inst.delta_prime)
    );

    // ---- upper bound (double-cover algorithm, Suomela 2010) ------------
    let g = gen::cycle(9);
    let ports = PortNumbering::sorted(&g);
    let d = eds_double_cover(&g, &ports).expect("well-formed instance");
    assert!(edge_dominating_set::feasible(&g, &d));
    println!(
        "\ndouble-cover EDS algorithm on C9: |D| = {} vs OPT = {}",
        d.len(),
        edge_dominating_set::opt_value(&g)
    );
    println!("\n=> the factor 4 - 2/Δ' is tight, and by the main theorem the");
    println!("   lower bound holds with unique identifiers (ID) too.");
}
