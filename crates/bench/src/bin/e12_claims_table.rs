//! E12 — the §1.4 claims table: best local approximation ratios, identical
//! across ID, OI and PO.
//!
//! Upper bounds are measured (PO algorithms vs exact OPT over a suite);
//! lower-bound mechanisms are demonstrated on symmetric instances where
//! every PO algorithm's output is forced: vertex-transitive views make any
//! PO algorithm constant per letter, and the best constant solution is
//! enumerated exactly.

use locap_algos::dominating::ds_all_nodes;
use locap_algos::double_cover::eds_double_cover;
use locap_algos::edge_cover_local::edge_cover_first_port;
use locap_algos::edge_packing::vc_edge_packing;
use locap_bench::{cells, hprintln, Table};
use locap_core::eds_lower::{eds_bound, eds_instance, lower_bound_report_budgeted};
use locap_graph::budget::RunBudget;
use locap_graph::{gen, random, Graph, PortNumbering};
use locap_lifts::view_census;
use locap_num::Ratio;
use locap_problems::{
    approx_ratio, dominating_set, edge_cover, edge_dominating_set, independent_set, matching,
    vertex_cover, Goal,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn suite() -> Vec<(String, Graph)> {
    let mut rng = StdRng::seed_from_u64(77);
    vec![
        ("C9".into(), gen::cycle(9)),
        ("C12".into(), gen::cycle(12)),
        ("petersen".into(), gen::petersen()),
        ("K33".into(), gen::complete_bipartite(3, 3)),
        ("Q3".into(), gen::hypercube(3)),
        ("rand 4-reg (16)".into(), random::random_regular(16, 4, 1000, &mut rng).unwrap()),
        ("rand 6-reg (14)".into(), random::random_regular(14, 6, 200_000, &mut rng).unwrap()),
    ]
}

fn main() {
    locap_bench::run(
        "e12_claims_table",
        "E12",
        "§1.4 claims table — measured upper bounds + forced lower bounds",
        body,
    );
}

fn body() {
    hprintln!("\n[Upper bounds] PO algorithms vs exact OPT (worst ratio over suite):\n");
    let mut worst_vc = Ratio::ONE;
    let mut worst_ec = Ratio::ONE;
    let mut worst_eds = Ratio::ONE;
    let mut worst_ds = Ratio::ONE;
    let mut t = Table::new(&["graph", "VC 2-apx", "EC 2-apx", "EDS 4−2/Δ′", "DS all-nodes"]);
    for (name, g) in suite() {
        let ports = PortNumbering::sorted(&g);

        let vc = vc_edge_packing(&g).unwrap();
        assert!(vertex_cover::feasible(&g, &vc));
        let r_vc = approx_ratio(vc.len(), vertex_cover::opt_value(&g), Goal::Minimize).unwrap();
        worst_vc = worst_vc.max(r_vc);

        let ec = edge_cover_first_port(&g, &ports).unwrap();
        assert!(edge_cover::feasible(&g, &ec));
        let r_ec =
            approx_ratio(ec.len(), edge_cover::opt_value(&g).unwrap(), Goal::Minimize).unwrap();
        worst_ec = worst_ec.max(r_ec);

        let eds = eds_double_cover(&g, &ports).expect("well-formed instance");
        assert!(edge_dominating_set::feasible(&g, &eds));
        let r_eds =
            approx_ratio(eds.len(), edge_dominating_set::opt_value(&g), Goal::Minimize).unwrap();
        worst_eds = worst_eds.max(r_eds);

        let ds = ds_all_nodes(&g);
        let r_ds = approx_ratio(ds.len(), dominating_set::opt_value(&g), Goal::Minimize).unwrap();
        worst_ds = worst_ds.max(r_ds);

        t.row(&cells([&name, &r_vc, &r_ec, &r_eds, &r_ds]));
    }
    t.print();
    hprintln!("\nworst measured: VC {worst_vc}, EC {worst_ec}, EDS {worst_eds}, DS {worst_ds}");
    hprintln!("paper's tight factors: VC 2, EC 2, EDS 4−2/Δ′, DS Δ′+1");

    hprintln!("\n[Lower bounds] forced outputs on PO-symmetric instances:\n");

    // vertex problems on the symmetric directed cycle: any PO algorithm
    // outputs a constant bit; enumerate both.
    let n = 12usize;
    let d = gen::directed_cycle(n);
    assert_eq!(view_census(&d, 2).len(), 1);
    let und = d.underlying().unwrap();
    let mut t = Table::new(&[
        "problem",
        "feasible constants",
        "best forced",
        "OPT",
        "forced ratio",
        "paper bound",
    ]);

    // vertex cover: constant-0 infeasible, constant-1 gives n
    {
        let all: std::collections::BTreeSet<usize> = und.nodes().collect();
        let opt = vertex_cover::opt_value(&und);
        let ratio = approx_ratio(all.len(), opt, Goal::Minimize).unwrap();
        t.row(&cells([&"min vertex cover", &"{1}", &n, &opt, &ratio, &"2 − ε impossible"]));
    }
    // independent set: constant-1 infeasible, constant-0 gives 0
    {
        let opt = independent_set::opt_value(&und);
        t.row(&cells([
            &"max independent set",
            &"{0}",
            &0usize,
            &opt,
            &"∞ (empty)",
            &"no constant factor",
        ]));
    }
    // dominating set: constant-1 gives n
    {
        let opt = dominating_set::opt_value(&und);
        let ratio = approx_ratio(n, opt, Goal::Minimize).unwrap();
        t.row(&cells([&"min dominating set", &"{1}", &n, &opt, &ratio, &"Δ′+1 − ε impossible"]));
    }
    // matching: per-letter constants; any nonempty class = all n edges,
    // which is not a matching — only the empty matching is forced-feasible
    {
        let opt = matching::opt_value(&und);
        t.row(&cells([
            &"max matching",
            &"{∅}",
            &0usize,
            &opt,
            &"∞ (empty)",
            &"no constant factor",
        ]));
    }
    // EDS: certified 4 − 2/Δ′
    {
        let inst = eds_instance(2, n).unwrap();
        let rep = lower_bound_report_budgeted(&inst, &RunBudget::unlimited()).unwrap();
        t.row(&cells([
            &"min edge dominating set",
            &"{full class}",
            &rep.min_symmetric,
            &rep.opt,
            &rep.ratio,
            &eds_bound(2),
        ]));
    }
    t.print();

    hprintln!("\nOn PO-symmetric instances the forced ratios match the paper's table;");
    hprintln!("Thms 1.3/1.4 lift these PO lower bounds to OI and ID (see E09/E10).");
}
