//! Fooling an order-invariant algorithm with homogeneous lifts
//! (Theorems 3.2 + 3.3 + 4.1 in action).
//!
//! ```sh
//! cargo run --release --example lift_fooling
//! ```
//!
//! We take an OI algorithm A (join the vertex cover unless you are your
//! ball's order-minimum), build the homogeneous lift of a directed cycle,
//! and watch the PO simulation B agree with A on all but an ε fraction of
//! the lift — which forces A's approximation guarantee down onto the
//! anonymous algorithm B.

use locap_core::homogeneous::construct_budgeted;
use locap_core::transfer::transfer_vertex_budgeted;
use locap_graph::budget::RunBudget;
use locap_graph::canon::OrderedNbhd;
use locap_graph::gen;
use locap_models::OiVertexAlgorithm;
use locap_problems::{vertex_cover, Goal};

#[derive(Clone)]
struct NonMinCover;
impl OiVertexAlgorithm for NonMinCover {
    fn radius(&self) -> usize {
        1
    }
    fn evaluate(&self, t: &OrderedNbhd) -> bool {
        t.root != 0
    }
}

fn main() {
    let g = gen::directed_cycle(12);
    println!("base graph: directed cycle, 12 nodes");

    for m in [6u64, 12, 24] {
        let h = construct_budgeted(1, 1, m, &RunBudget::unlimited()).expect("Thm 3.2 construction");
        let (rep, lift) = transfer_vertex_budgeted(
            &g,
            &h,
            NonMinCover,
            Goal::Minimize,
            vertex_cover::feasible,
            vertex_cover::opt_value,
            &RunBudget::unlimited(),
        )
        .expect("transfer pipeline");
        println!(
            "m = {m:2}: H has {} nodes (α = {:.3}); lift has {} nodes; \
             A≡B on {:.3} of the lift; B(G) = {} nodes (feasible: {}, ratio {})",
            h.node_count(),
            h.fraction().to_f64(),
            lift.node_count(),
            rep.agreement.to_f64(),
            rep.b_on_g.len(),
            rep.feasible,
            rep.ratio.map(|r| r.to_string()).unwrap_or_default(),
        );
    }

    println!();
    println!("as ε → 0 the agreement tends to 1: the identifiers'/order's extra");
    println!("power vanishes — A cannot beat the anonymous B on this family.");
}
