//! Property-based cross-crate tests (proptest): invariants that must hold
//! for arbitrary instances, not just the curated suite.

use proptest::prelude::*;

use locap_algos::double_cover::eds_double_cover;
use locap_algos::edge_packing::{is_maximal_packing, maximal_edge_packing};
use locap_graph::budget::RunBudget;
use locap_graph::{gen, random, Graph, PoGraph, PortNumbering};
use locap_lifts::{bipartite_double_cover, random_lift, view};
use locap_models::checkable::verifiers::*;
use locap_models::checkable::{verify_edge, verify_vertex};
use locap_problems::{
    dominating_set, edge_cover, edge_dominating_set, independent_set, matching, vertex_cover,
    EdgeSet, VertexSet,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn arb_graph() -> impl Strategy<Value = Graph> {
    // random graphs on 4..12 nodes with edge probability ~1/2, no isolated
    // constraint (handled per-property)
    (4usize..12, any::<u64>()).prop_map(|(n, seed)| {
        let mut rng = StdRng::seed_from_u64(seed);
        loop {
            let mut g = Graph::new(n);
            for u in 0..n {
                for v in (u + 1)..n {
                    if rand::Rng::gen_bool(&mut rng, 0.45) {
                        g.add_edge(u, v).unwrap();
                    }
                }
            }
            if g.edge_count() > 0 {
                return g;
            }
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Maximal edge packings exist and certify a vertex cover on any graph.
    #[test]
    fn prop_edge_packing_maximal_and_covering(g in arb_graph()) {
        let p = maximal_edge_packing(&g).unwrap();
        prop_assert!(is_maximal_packing(&g, &p.weights));
        prop_assert!(vertex_cover::feasible(&g, &p.saturated));
        prop_assert!(p.saturated.len() <= 2 * vertex_cover::opt_value(&g));
    }

    /// The double-cover EDS algorithm is always feasible.
    #[test]
    fn prop_eds_double_cover_feasible(g in arb_graph()) {
        let ports = PortNumbering::sorted(&g);
        let d = eds_double_cover(&g, &ports).unwrap();
        prop_assert!(edge_dominating_set::feasible(&g, &d));
    }

    /// The bipartite double cover doubles nodes and edges and is bipartite.
    #[test]
    fn prop_double_cover_structure(g in arb_graph()) {
        let h = bipartite_double_cover(&g);
        let n = g.node_count();
        prop_assert_eq!(h.node_count(), 2 * n);
        prop_assert_eq!(h.edge_count(), 2 * g.edge_count());
        for e in h.edges() {
            prop_assert!((e.u < n) != (e.v < n), "edges cross sides");
        }
    }

    /// Views are invariant under random lifts of the canonical PO
    /// structure, for any base graph.
    #[test]
    fn prop_views_lift_invariant(g in arb_graph(), l in 2usize..4, seed in any::<u64>()) {
        let d = PoGraph::canonical(&g).digraph().clone();
        let mut rng = StdRng::seed_from_u64(seed);
        let (h, phi) = random_lift(&d, l, &mut rng);
        phi.verify(&h, &d).unwrap();
        for v in 0..h.node_count() {
            prop_assert_eq!(view(&h, v, 2), view(&d, phi.image(v), 2));
        }
    }

    /// Exact solvers are consistent with each other: Gallai and König-style
    /// inequalities hold on arbitrary instances.
    #[test]
    fn prop_solver_inequalities(g in arb_graph()) {
        let tau = vertex_cover::opt_value(&g);
        let nu = matching::opt_value(&g);
        let gamma_e = edge_dominating_set::opt_value(&g);
        // ν ≤ τ ≤ 2ν (weak duality + matching-based cover)
        prop_assert!(nu <= tau);
        prop_assert!(tau <= 2 * nu);
        // γ_e ≤ ν' for any maximal matching; and τ ≤ 2 γ_e... the latter
        // holds because endpoints of an EDS form a vertex cover.
        prop_assert!(tau <= 2 * gamma_e);
        // γ_e ≤ ν when ν > 0 fails in general; but γ_e ≤ maximal matching:
        let mm = matching::greedy_maximal(&g).len();
        prop_assert!(gamma_e <= mm);
    }

    /// Exact minimum EDS never exceeds twice any maximal matching EDS.
    #[test]
    fn prop_eds_vs_matching(g in arb_graph()) {
        let mm = matching::greedy_maximal(&g);
        prop_assert!(edge_dominating_set::feasible(&g, &mm));
        prop_assert!(mm.len() <= 2 * edge_dominating_set::opt_value(&g));
    }

    /// PO-checkability (Example 1.1): each radius-1 verifier, which sees
    /// only decorated PO views, accepts at every node exactly when its
    /// problem's global `feasible` holds. Checked on random subsets of
    /// three densities, the empty and full sets, and each problem's
    /// exact optimum, so both answers occur for every problem.
    #[test]
    fn prop_verifiers_accept_iff_feasible(g in arb_graph(), seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut vertex_sets: Vec<VertexSet> = vec![
            VertexSet::new(),
            g.nodes().collect(),
            vertex_cover::solve_exact(&g),
            independent_set::solve_exact(&g),
            dominating_set::solve_exact(&g),
        ];
        let mut edge_sets: Vec<EdgeSet> = vec![
            EdgeSet::new(),
            g.edges().collect(),
            matching::solve_exact(&g),
            edge_dominating_set::solve_exact(&g),
        ];
        edge_sets.extend(edge_cover::solve_exact(&g));
        for p in [0.2, 0.4, 0.6] {
            for _ in 0..4 {
                vertex_sets.push(g.nodes().filter(|_| rng.gen_bool(p)).collect());
                edge_sets.push(g.edges().filter(|_| rng.gen_bool(p)).collect());
            }
        }
        for x in &vertex_sets {
            let vc = verify_vertex(&g, x, &VertexCoverVerifier);
            prop_assert_eq!(vc, vertex_cover::feasible(&g, x), "vertex cover {:?}", x);
            let is = verify_vertex(&g, x, &IndependentSetVerifier);
            prop_assert_eq!(is, independent_set::feasible(&g, x), "independent set {:?}", x);
            let ds = verify_vertex(&g, x, &DominatingSetVerifier);
            prop_assert_eq!(ds, dominating_set::feasible(&g, x), "dominating set {:?}", x);
        }
        for x in &edge_sets {
            let m = verify_edge(&g, x, &MatchingVerifier);
            prop_assert_eq!(m, matching::feasible(&g, x), "matching {:?}", x);
            let ec = verify_edge(&g, x, &EdgeCoverVerifier);
            prop_assert_eq!(ec, edge_cover::feasible(&g, x), "edge cover {:?}", x);
            let eds = verify_edge(&g, x, &EdsVerifier);
            prop_assert_eq!(eds, edge_dominating_set::feasible(&g, x), "EDS {:?}", x);
        }
    }
}

/// Random regular instances: the full PO stack holds for every seed.
#[test]
fn regular_graph_stack_deterministic_seeds() {
    for seed in 0..8u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = random::random_regular(10, 3, 1000, &mut rng).unwrap();
        let po = PoGraph::canonical(&g);
        // every node's view embeds into T*
        let t_star = locap_lifts::complete_tree(po.digraph().alphabet_size(), 2);
        for v in 0..10 {
            assert!(view(po.digraph(), v, 2).embeds_in(&t_star), "seed {seed}");
        }
    }
}

/// Degenerate instances behave: single edge, star, disjoint edges.
#[test]
fn degenerate_instances() {
    let single = gen::path(2);
    let p = maximal_edge_packing(&single).unwrap();
    assert_eq!(p.saturated.len(), 2);

    let star = gen::star(5);
    let ports = PortNumbering::sorted(&star);
    let d = eds_double_cover(&star, &ports).unwrap();
    assert!(edge_dominating_set::feasible(&star, &d));
    assert_eq!(edge_dominating_set::opt_value(&star), 1);

    let mut disjoint = Graph::new(6);
    disjoint.add_edge(0, 1).unwrap();
    disjoint.add_edge(2, 3).unwrap();
    disjoint.add_edge(4, 5).unwrap();
    assert_eq!(edge_dominating_set::opt_value(&disjoint), 3);
    assert_eq!(vertex_cover::opt_value(&disjoint), 3);
    assert_eq!(matching::opt_value(&disjoint), 3);
}

/// A faulty-input model for the fallible execution core: whatever
/// combination of missing/truncated ids, inputs, and orientation a
/// caller supplies, `run_sync_budgeted` must return `Ok` or a typed `RunError` —
/// never panic — and the id/oi engines must do the same for short
/// slices.
#[derive(Debug, Clone)]
struct FaultPlan {
    /// 0 = full ids, 1 = no ids, 2 = truncated ids
    ids: u8,
    /// 0 = no orientation, 1 = random orientation
    orientation: u8,
    /// 0 = no inputs, 1 = full inputs, 2 = truncated inputs
    inputs: u8,
    seed: u64,
}

fn arb_fault_plan() -> impl Strategy<Value = FaultPlan> {
    (0u8..3, 0u8..2, 0u8..3, any::<u64>()).prop_map(|(ids, orientation, inputs, seed)| FaultPlan {
        ids,
        orientation,
        inputs,
        seed,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `run_sync_budgeted` on random bounded-degree graphs under every fault plan:
    /// no panic, and short slices always surface as typed errors.
    #[test]
    fn prop_run_sync_never_panics(g in arb_graph(), plan in arb_fault_plan()) {
        use locap_models::sim::{run_sync_budgeted, GossipIds};
        use locap_models::RunError;

        let mut rng = StdRng::seed_from_u64(plan.seed);
        let n = g.node_count();
        let ports = random::random_ports(&g, &mut rng);
        let full_ids = random::random_ids(n, 10_000, &mut rng);
        let ids: Option<Vec<u64>> = match plan.ids {
            0 => Some(full_ids.clone()),
            1 => None,
            _ => Some(full_ids[..n / 2].to_vec()),
        };
        let orientation = match plan.orientation {
            0 => None,
            _ => Some(random::random_orientation(&g, &mut rng)),
        };
        let inputs: Option<Vec<u64>> = match plan.inputs {
            0 => None,
            1 => Some(vec![1; n]),
            _ => Some(vec![1; n.saturating_sub(1)]),
        };
        let res = run_sync_budgeted(
            &g,
            &ports,
            ids.as_deref(),
            orientation.as_ref(),
            inputs.as_deref(),
            &GossipIds { rounds: 2 },
            &RunBudget::unlimited().with_max_rounds(4),
        );
        match (&res, plan.ids) {
            (Err(RunError::MissingIds), 1) => {}
            (Err(RunError::InputLengthMismatch { .. }), _) => {
                prop_assert!(plan.ids == 2 || plan.inputs == 2);
            }
            (Ok(out), 0) => prop_assert_eq!(out.states.len(), n),
            (r, p) => prop_assert!(false, "unexpected outcome {:?} for ids plan {}", r.is_ok(), p),
        }
    }

    /// The id/oi engines on random graphs with randomly truncated
    /// slices: `Ok` on full-length slices, typed error otherwise.
    #[test]
    fn prop_engines_total_on_short_slices(g in arb_graph(), cut in 0usize..4, seed in any::<u64>()) {
        use locap_graph::canon::{IdNbhd, OrderedNbhd};
        use locap_models::{run, IdVertexAlgorithm, OiVertexAlgorithm, RunError};

        struct Max;
        impl IdVertexAlgorithm for Max {
            fn radius(&self) -> usize { 1 }
            fn evaluate(&self, t: &IdNbhd) -> bool { t.root as usize == t.ids.len() - 1 }
        }
        struct Min;
        impl OiVertexAlgorithm for Min {
            fn radius(&self) -> usize { 1 }
            fn evaluate(&self, t: &OrderedNbhd) -> bool { t.root == 0 }
        }

        let mut rng = StdRng::seed_from_u64(seed);
        let n = g.node_count();
        let ids = random::random_ids(n, 10_000, &mut rng);
        let rank = random::random_rank(n, &mut rng);
        let keep = n.saturating_sub(cut);

        let id_res = run::id_vertex_budgeted(&g, &ids[..keep], &Max, &RunBudget::unlimited()).map(|b| b.value);
        let oi_res = run::oi_vertex_budgeted(&g, &rank[..keep], &Min, &RunBudget::unlimited()).map(|b| b.value);
        if cut == 0 {
            prop_assert_eq!(id_res.unwrap().len(), n);
            prop_assert_eq!(oi_res.unwrap().len(), n);
        } else {
            prop_assert!(matches!(id_res, Err(RunError::InputLengthMismatch { .. })));
            prop_assert!(matches!(oi_res, Err(RunError::InputLengthMismatch { .. })));
        }
    }
}
