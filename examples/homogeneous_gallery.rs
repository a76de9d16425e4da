//! A gallery of Theorem 3.2 homogeneous graphs.
//!
//! ```sh
//! cargo run --release --example homogeneous_gallery
//! ```
//!
//! Constructs (1−ε, r)-homogeneous 2k-regular graphs of girth > 2r+1 for a
//! grid of parameters, prints their statistics, and exports the smallest
//! one as DOT for inspection.

use locap_core::homogeneous::{construct_budgeted, construct_for_epsilon};
use locap_graph::budget::RunBudget;
use locap_graph::digraph_to_dot;
use locap_num::Ratio;

fn main() {
    println!("k  r  m   level  nodes    girth>  fraction      inner bound");
    for (k, r, m) in [(1usize, 1usize, 6u64), (1, 1, 12), (2, 1, 8), (1, 2, 8), (2, 2, 12)] {
        match construct_budgeted(k, r, m, &RunBudget::unlimited()) {
            Ok(h) => println!(
                "{k}  {r}  {m:3} {:5} {:8}   {:4}   {:.4} ({})   {:.4} ({})",
                h.level,
                h.node_count(),
                2 * r + 1,
                h.fraction().to_f64(),
                h.fraction(),
                h.inner_bound().to_f64(),
                h.inner_bound(),
            ),
            Err(e) => println!("{k}  {r}  {m:3}  FAILED: {e}"),
        }
    }

    println!("\n\"for every ε\": ε = 1/10, k = 1, r = 1:");
    let h = construct_for_epsilon(1, 1, Ratio::new(1, 10).unwrap()).expect("construction");
    println!(
        "  chose m = {} → {} nodes, fraction {:.4} ≥ 0.9",
        h.modulus,
        h.node_count(),
        h.fraction().to_f64()
    );

    let small = construct_budgeted(1, 1, 6, &RunBudget::unlimited()).expect("small instance");
    let dot = digraph_to_dot(&small.digraph, "homogeneous_h2_m6");
    println!(
        "\nDOT export of the smallest instance: {} lines (pipe to graphviz)",
        dot.lines().count()
    );
}
