//! Cross-crate integration tests: the substrates composed the way the
//! paper composes them.

use locap_algos::double_cover::{double_cover_matching, eds_double_cover};
use locap_algos::edge_packing::vc_edge_packing;
use locap_core::eds_lower::{eds_bound, eds_instance, lower_bound_report_budgeted};
use locap_core::homogeneous::construct_budgeted;
use locap_graph::budget::RunBudget;
use locap_graph::{gen, random, PoGraph, PortNumbering};
use locap_lifts::{connect_copies, random_lift, view, view_census};
use locap_models::{run, PoVertexAlgorithm};
use locap_problems::{approx_ratio, edge_dominating_set, vertex_cover, Goal};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// PO outputs are invariant under random lifts: run a real PO algorithm
/// (view-degree parity) on a graph and its lift, compare along fibres.
#[test]
fn po_outputs_invariant_under_lifts() {
    struct ViewParity;
    impl PoVertexAlgorithm for ViewParity {
        fn radius(&self) -> usize {
            2
        }
        fn evaluate(&self, v: &locap_lifts::ViewTree) -> bool {
            v.size() % 2 == 0
        }
    }
    let mut rng = StdRng::seed_from_u64(12);
    let base = PoGraph::canonical(&gen::petersen()).digraph().clone();
    for l in [2usize, 3] {
        let (lift, phi) = random_lift(&base, l, &mut rng);
        let base_out = run::po_vertex_budgeted(&base, &ViewParity, &RunBudget::unlimited())
            .unwrap()
            .value;
        let lift_out = run::po_vertex_budgeted(&lift, &ViewParity, &RunBudget::unlimited())
            .unwrap()
            .value;
        for v in 0..lift.node_count() {
            assert_eq!(lift_out[v], base_out[phi.image(v)], "fibre-invariance at {v}");
        }
    }
}

/// The EDS double-cover algorithm produces *identical* projected solutions
/// on a graph and on any of its connected lifts, scaled by the fibre size:
/// sanity for the approximation-preservation argument of Thm 4.1.
#[test]
fn eds_algorithm_consistent_on_connected_lifts() {
    let g0 = eds_instance(2, 9).unwrap().digraph;
    let (lift, phi) = connect_copies(&g0, 3).unwrap();
    assert!(lift.underlying_simple().is_connected());
    phi.verify(&lift, &g0).unwrap();

    let base_und = g0.underlying().unwrap();
    let lift_und = lift.underlying().unwrap();
    let d_base = eds_double_cover(&base_und, &PortNumbering::sorted(&base_und)).unwrap();
    let d_lift = eds_double_cover(&lift_und, &PortNumbering::sorted(&lift_und)).unwrap();
    assert!(edge_dominating_set::feasible(&base_und, &d_base));
    assert!(edge_dominating_set::feasible(&lift_und, &d_lift));
}

/// Lower and upper bounds meet: the certified PO lower bound on G0 equals
/// the bound 4 − 2/Δ′ which the double-cover algorithm never exceeds on
/// the same instance.
#[test]
fn eds_bounds_meet_on_g0() {
    let inst = eds_instance(2, 12).unwrap();
    let report = lower_bound_report_budgeted(&inst, &RunBudget::unlimited()).unwrap();
    assert_eq!(report.ratio, eds_bound(2));

    let und = inst.digraph.underlying().unwrap();
    let d = eds_double_cover(&und, &PortNumbering::sorted(&und)).unwrap();
    let ratio = approx_ratio(d.len(), report.opt, Goal::Minimize).unwrap();
    assert!(ratio <= eds_bound(2), "upper bound respects the tight factor");
}

/// The homogeneous graphs of Thm 3.2 are usable substrates for the
/// matching-based algorithms: run VC/EDS on H itself.
#[test]
fn algorithms_run_on_homogeneous_graphs() {
    let h = construct_budgeted(1, 1, 6, &RunBudget::unlimited()).unwrap();
    let und = h.digraph.underlying().unwrap();
    let vc = vc_edge_packing(&und).unwrap();
    assert!(vertex_cover::feasible(&und, &vc));
    let run = double_cover_matching(&und, &PortNumbering::sorted(&und)).unwrap();
    assert!(edge_dominating_set::feasible(&und, &run.projected));
}

/// Random regular graphs keep all invariants through the full stack:
/// PO structure → views → double-cover algorithms → feasibility vs exact.
#[test]
fn full_stack_on_random_regular_graphs() {
    let mut rng = StdRng::seed_from_u64(23);
    for &(n, d) in &[(12usize, 3usize), (16, 4)] {
        let g = random::random_regular(n, d, 1000, &mut rng).unwrap();
        let po = PoGraph::canonical(&g);
        // views exist and embed in T*
        let t_star = locap_lifts::complete_tree(po.digraph().alphabet_size(), 2);
        for v in 0..n {
            assert!(view(po.digraph(), v, 2).embeds_in(&t_star));
        }
        // algorithms feasible and within factors
        let ports = PortNumbering::sorted(&g);
        let eds = eds_double_cover(&g, &ports).unwrap();
        assert!(edge_dominating_set::feasible(&g, &eds));
        let opt = edge_dominating_set::opt_value(&g);
        let dp = 2 * (d / 2);
        assert!(
            approx_ratio(eds.len(), opt, Goal::Minimize).unwrap() <= eds_bound(dp),
            "({n},{d})"
        );
    }
}

/// Vertex-transitive instances have one view class at every radius we can
/// afford to check — the symmetry the lower bounds rely on.
#[test]
fn circulant_view_censuses_are_singletons() {
    for (dp, n) in [(2usize, 9usize), (2, 15)] {
        let inst = eds_instance(dp, n).unwrap();
        for r in 0..=3 {
            assert_eq!(view_census(&inst.digraph, r).len(), 1, "dp={dp}, n={n}, r={r}");
        }
    }
}
