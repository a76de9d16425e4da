//! E11 — §1.5 + Theorem 1.6: minimum edge dominating set is locally
//! approximable to exactly 4 − 2/Δ′.
//!
//! **Lower bound**: reconstructed G₀ instances — connected lifts of the
//! gadget K_{2k,2k−1} + matching, 2-factorised into label-complete
//! L-digraphs (all views identical). The view census certifies that every
//! PO algorithm outputs a union of label classes; exact enumeration of
//! those unions vs exact OPT gives the certified ratio — matching
//! 4 − 2/Δ′ exactly.
//!
//! **Upper bound**: the double-cover algorithm (Suomela 2010) measured
//! against exact OPT over a graph suite: the ratio never exceeds
//! 4 − 2/Δ′.

use locap_algos::double_cover::eds_double_cover;
use locap_bench::{cells, hprintln, Table};
use locap_core::eds_lower::{
    eds_bound, eds_instance, lower_bound_report_budgeted, perfect_eds_size,
};
use locap_graph::budget::RunBudget;
use locap_graph::{gen, random, PortNumbering};
use locap_problems::{approx_ratio, edge_dominating_set, Goal};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    locap_bench::run("e11_eds", "E11", "Thm 1.6 — EDS: tight 4 − 2/Δ′ in all three models", body);
}

fn body() {
    hprintln!("\n[Lower bound] certified PO lower bounds on reconstructed G₀:\n");
    let mut t = Table::new(&[
        "Δ′",
        "n",
        "lift",
        "view classes",
        "min symmetric",
        "OPT",
        "ratio",
        "4−2/Δ′",
        "tight",
    ]);
    let searches: Vec<(usize, Vec<usize>)> =
        vec![(2, vec![3, 9, 21, 30]), (4, vec![7, 14, 28]), (6, vec![11, 22])];
    for (dp, ns) in searches {
        for n in ns {
            match eds_instance(dp, n) {
                Some(inst) => {
                    let rep = lower_bound_report_budgeted(&inst, &RunBudget::unlimited()).unwrap();
                    let bound = eds_bound(dp);
                    t.row(&cells([
                        &dp,
                        &n,
                        &inst.lift_degree,
                        &rep.view_classes,
                        &rep.min_symmetric,
                        &rep.opt,
                        &rep.ratio,
                        &bound,
                        &(rep.ratio == bound),
                    ]));
                }
                None => {
                    t.row(&cells([
                        &dp,
                        &n,
                        &"n not a multiple of 4k−1",
                        &"-",
                        &"-",
                        &format!("{:?}", perfect_eds_size(n, dp)),
                        &"-",
                        &eds_bound(dp),
                        &false,
                    ]));
                }
            }
        }
    }
    t.print();

    hprintln!("\n[Upper bound] double-cover EDS algorithm vs exact OPT:\n");
    let mut t = Table::new(&["graph", "Δ", "Δ′", "|D|", "OPT", "ratio", "≤ 4−2/Δ′"]);
    let mut rng = StdRng::seed_from_u64(31);
    let suite: Vec<(String, locap_graph::Graph)> = vec![
        ("C9".into(), gen::cycle(9)),
        ("C12".into(), gen::cycle(12)),
        ("petersen".into(), gen::petersen()),
        ("K4".into(), gen::complete(4)),
        ("K33".into(), gen::complete_bipartite(3, 3)),
        ("Q3".into(), gen::hypercube(3)),
        ("rand 4-reg (16)".into(), random::random_regular(16, 4, 1000, &mut rng).unwrap()),
        ("rand 4-reg (20)".into(), random::random_regular(20, 4, 1000, &mut rng).unwrap()),
        ("rand 3-reg (14)".into(), random::random_regular(14, 3, 1000, &mut rng).unwrap()),
    ];
    for (name, g) in suite {
        let delta = g.max_degree();
        let dp = 2 * (delta / 2).max(1);
        let ports = PortNumbering::sorted(&g);
        let d = eds_double_cover(&g, &ports).expect("well-formed instance");
        assert!(edge_dominating_set::feasible(&g, &d), "{name}: infeasible output");
        let opt = edge_dominating_set::opt_value(&g);
        let ratio = approx_ratio(d.len(), opt, Goal::Minimize).unwrap();
        let bound = eds_bound(dp);
        t.row(&cells([
            &name,
            &delta,
            &dp,
            &d.len(),
            &opt,
            &format!("{} ≈ {:.3}", ratio, ratio.to_f64()),
            &(ratio <= bound),
        ]));
    }
    t.print();

    hprintln!("\nShape vs paper: lower = upper = 4 − 2/Δ′ (3 for Δ′=2, 7/2 for Δ′=4):");
    hprintln!("the gap the paper closed (prior ID/OI bound was 3 − ε) is closed here");
    hprintln!("computationally — the lower-bound instances beat 3 for Δ′ = 4.");
}
