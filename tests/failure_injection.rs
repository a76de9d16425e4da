//! Failure injection: every verifier in the stack must *reject* doctored
//! inputs, and every engine and pipeline must turn malformed inputs and
//! exhausted budgets into typed errors — never a panic, never a silently
//! wrong answer. A reproduction whose checks cannot fail checks nothing.
//!
//! Layout:
//! * `engine_faults` — each malformed-input class through each of the six
//!   `run::*` entry points;
//! * `simulator_faults` — the same classes through `run_sync_budgeted`;
//! * `budget_truncation` — round caps, manual-clock deadlines, and cache
//!   caps across engines, simulator, and every pipeline;
//! * `obs_visibility` — the `errors/run/*` and `budget/truncated/*`
//!   counters these paths publish appear in OBS_JSON snapshots;
//! * the original doctored-structure tests (verifiers must reject).

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Duration;

use locap_core::eds_lower::{eds_instance, lower_bound_report_budgeted, EdsInstance};
use locap_core::homogeneous::construct_budgeted;
use locap_core::CoreError;
use locap_graph::budget::{ManualClock, RunBudget, TruncationReason};
use locap_graph::canon::{IdNbhd, OrderedNbhd};
use locap_graph::{gen, Edge, PoGraph};
use locap_lifts::{trivial_lift, CoveringMap, Letter, ViewTree};
use locap_models::checkable::verifiers::*;
use locap_models::checkable::{verify_edge, verify_vertex};
use locap_models::{
    run, IdEdgeAlgorithm, IdVertexAlgorithm, OiEdgeAlgorithm, OiVertexAlgorithm, PoEdgeAlgorithm,
    PoVertexAlgorithm, RunError,
};

/// A budget whose manual clock is already past its deadline: every
/// `check_deadline` trips immediately and deterministically.
fn expired_deadline() -> RunBudget {
    let clock = Arc::new(ManualClock::new());
    clock.set(Duration::from_secs(60));
    RunBudget::unlimited().with_deadline(Duration::from_millis(1), clock)
}

#[derive(Clone)]
struct IdMax;
impl IdVertexAlgorithm for IdMax {
    fn radius(&self) -> usize {
        1
    }
    fn evaluate(&self, t: &IdNbhd) -> bool {
        t.root as usize == t.ids.len() - 1
    }
}

#[derive(Clone)]
struct OiMin;
impl OiVertexAlgorithm for OiMin {
    fn radius(&self) -> usize {
        1
    }
    fn evaluate(&self, t: &OrderedNbhd) -> bool {
        t.root == 0
    }
}

#[derive(Clone)]
struct PoParity;
impl PoVertexAlgorithm for PoParity {
    fn radius(&self) -> usize {
        1
    }
    fn evaluate(&self, v: &ViewTree) -> bool {
        v.size() % 2 == 0
    }
}

/// Returns one bit too many at every node: a wrong-output-length fault.
#[derive(Clone)]
struct IdEdgeTooWide;
impl IdEdgeAlgorithm for IdEdgeTooWide {
    fn radius(&self) -> usize {
        1
    }
    fn evaluate(&self, t: &IdNbhd) -> Vec<bool> {
        vec![true; t.ids.len() + 7]
    }
}

#[derive(Clone)]
struct OiEdgeOneBit;
impl OiEdgeAlgorithm for OiEdgeOneBit {
    fn radius(&self) -> usize {
        1
    }
    fn evaluate(&self, _t: &OrderedNbhd) -> Vec<bool> {
        vec![true]
    }
}

/// Selects a letter no node of a one-letter digraph has.
#[derive(Clone)]
struct PoAbsentLetter;
impl PoEdgeAlgorithm for PoAbsentLetter {
    fn radius(&self) -> usize {
        1
    }
    fn evaluate(&self, _view: &ViewTree) -> Vec<(Letter, bool)> {
        vec![(Letter::neg(7), true)]
    }
}

mod engine_faults {
    use super::*;

    #[test]
    fn short_ids_rejected_by_both_id_engines() {
        let g = gen::cycle(8);
        let ids: Vec<u64> = (0..5).collect();
        for res in [
            run::id_vertex_budgeted(&g, &ids, &IdMax, &RunBudget::unlimited()).map(|b| b.value),
            run::id_vertex_naive(&g, &ids, &IdMax),
        ] {
            assert!(matches!(
                res,
                Err(RunError::InputLengthMismatch { what: "ids", expected: 8, actual: 5 })
            ));
        }
        assert!(matches!(
            run::id_edge_budgeted(&g, &ids, &IdEdgeTooWide, &RunBudget::unlimited())
                .map(|b| b.value),
            Err(RunError::InputLengthMismatch { what: "ids", .. })
        ));
    }

    #[test]
    fn short_rank_rejected_by_both_oi_engines() {
        let g = gen::cycle(8);
        let rank: Vec<usize> = (0..3).collect();
        for res in [
            run::oi_vertex_budgeted(&g, &rank, &OiMin, &RunBudget::unlimited()).map(|b| b.value),
            run::oi_vertex_naive(&g, &rank, &OiMin),
        ] {
            assert!(matches!(
                res,
                Err(RunError::InputLengthMismatch { what: "rank", expected: 8, actual: 3 })
            ));
        }
        assert!(matches!(
            run::oi_edge_budgeted(&g, &rank, &OiEdgeOneBit, &RunBudget::unlimited())
                .map(|b| b.value),
            Err(RunError::InputLengthMismatch { what: "rank", .. })
        ));
    }

    #[test]
    fn wrong_edge_output_length_is_typed() {
        let g = gen::cycle(6);
        let ids: Vec<u64> = (0..6).collect();
        let rank: Vec<usize> = (0..6).collect();
        assert!(matches!(
            run::id_edge_budgeted(&g, &ids, &IdEdgeTooWide, &RunBudget::unlimited())
                .map(|b| b.value),
            Err(RunError::OutputLengthMismatch { expected: 2, .. })
        ));
        assert!(matches!(
            run::oi_edge_budgeted(&g, &rank, &OiEdgeOneBit, &RunBudget::unlimited())
                .map(|b| b.value),
            Err(RunError::OutputLengthMismatch { expected: 2, actual: 1, .. })
        ));
    }

    #[test]
    fn po_edge_absent_letter_is_typed() {
        let d = gen::directed_cycle(6);
        for res in [
            run::po_edge_budgeted(&d, &PoAbsentLetter, &RunBudget::unlimited()).map(|b| b.value),
            run::po_edge_naive(&d, &PoAbsentLetter),
        ] {
            assert!(matches!(res, Err(RunError::AbsentLetter { .. })));
        }
    }

    #[test]
    fn healthy_runs_stay_ok() {
        let g = gen::cycle(8);
        let ids: Vec<u64> = (10..18).collect();
        let rank: Vec<usize> = (0..8).collect();
        let d = gen::directed_cycle(8);
        assert_eq!(
            run::id_vertex_budgeted(&g, &ids, &IdMax, &RunBudget::unlimited())
                .unwrap()
                .value
                .len(),
            8
        );
        assert_eq!(
            run::oi_vertex_budgeted(&g, &rank, &OiMin, &RunBudget::unlimited())
                .unwrap()
                .value
                .len(),
            8
        );
        assert_eq!(
            run::po_vertex_budgeted(&d, &PoParity, &RunBudget::unlimited())
                .unwrap()
                .value
                .len(),
            8
        );
    }
}

mod simulator_faults {
    use super::*;
    use locap_algos::cole_vishkin::{cycle_mis, cycle_orientation, ColorReduce};
    use locap_graph::PortNumbering;
    use locap_models::sim::{run_sync_budgeted, GossipIds};

    #[test]
    fn anonymous_run_of_id_algorithm_is_missing_ids() {
        let g = gen::cycle(6);
        let ports = PortNumbering::sorted(&g);
        let res = run_sync_budgeted(
            &g,
            &ports,
            None,
            None,
            None,
            &GossipIds { rounds: 1 },
            &RunBudget::unlimited().with_max_rounds(4),
        );
        assert!(matches!(res, Err(RunError::MissingIds)));
    }

    #[test]
    fn short_ids_rejected_before_round_zero() {
        let g = gen::cycle(6);
        let ports = PortNumbering::sorted(&g);
        let ids: Vec<u64> = (0..4).collect();
        let res = run_sync_budgeted(
            &g,
            &ports,
            Some(&ids),
            None,
            None,
            &GossipIds { rounds: 1 },
            &RunBudget::unlimited().with_max_rounds(4),
        );
        assert!(matches!(res, Err(RunError::InputLengthMismatch { what: "ids", .. })));
    }

    #[test]
    fn foreign_port_numbering_rejected() {
        let g = gen::cycle(6);
        let ports = PortNumbering::sorted(&gen::cycle(9));
        let ids: Vec<u64> = (0..6).collect();
        let res = run_sync_budgeted(
            &g,
            &ports,
            Some(&ids),
            None,
            None,
            &GossipIds { rounds: 1 },
            &RunBudget::unlimited().with_max_rounds(4),
        );
        assert!(matches!(res, Err(RunError::InputLengthMismatch { what: "ports", .. })));
    }

    #[test]
    fn unoriented_run_of_po_style_algorithm_is_missing_orientation() {
        let g = gen::cycle(6);
        let ports = PortNumbering::sorted(&g);
        let ids: Vec<u64> = (0..6).collect();
        let res = run_sync_budgeted(
            &g,
            &ports,
            Some(&ids),
            None,
            None,
            &ColorReduce { rounds: 1 },
            &RunBudget::unlimited().with_max_rounds(4),
        );
        assert!(matches!(res, Err(RunError::MissingOrientation)));
    }

    #[test]
    fn degree_precondition_is_unsupported_not_panic() {
        // cycle_mis on a path: endpoints have degree 1
        let g = gen::path(5);
        let ids: Vec<u64> = (0..5).collect();
        assert!(matches!(cycle_mis(&g, &ids), Err(RunError::Unsupported { .. })));
    }

    #[test]
    fn round_cap_yields_partial_result_not_hang() {
        let g = gen::cycle(8);
        let ports = PortNumbering::sorted(&g);
        let ids: Vec<u64> = (0..8).collect();
        let orient = cycle_orientation(&g);
        let budget = RunBudget::unlimited().with_max_rounds(1);
        // needs `rounds` + propagation, so 1 round cannot finish
        let res = run_sync_budgeted(
            &g,
            &ports,
            Some(&ids),
            Some(&orient),
            None,
            &ColorReduce { rounds: 6 },
            &budget,
        )
        .unwrap();
        assert!(!res.all_halted);
        assert_eq!(res.rounds, 1);
        assert!(matches!(res.truncation, Some(TruncationReason::RoundLimit { limit: 1 })));
        assert_eq!(res.states.len(), 8, "partial states still cover every node");
    }

    #[test]
    fn manual_deadline_trips_immediately() {
        let g = gen::cycle(8);
        let ports = PortNumbering::sorted(&g);
        let ids: Vec<u64> = (0..8).collect();
        let res = run_sync_budgeted(
            &g,
            &ports,
            Some(&ids),
            None,
            None,
            &GossipIds { rounds: 5 },
            &expired_deadline(),
        )
        .unwrap();
        assert!(matches!(res.truncation, Some(TruncationReason::DeadlineExceeded { .. })));
        assert_eq!(res.rounds, 0, "no round completes past an expired deadline");
    }
}

mod budget_truncation {
    use super::*;
    use locap_core::eds_lower;
    use locap_core::hom_lift::homogeneous_lift_budgeted;
    use locap_core::homogeneous::construct_budgeted;
    use locap_core::ramsey::{monochromatic_subset_budgeted, ramsey_cycle_transfer_budgeted};
    use locap_core::transfer::{transfer_edge_budgeted, transfer_vertex_budgeted};
    use locap_problems::{edge_dominating_set, vertex_cover, Goal};

    #[test]
    fn engines_truncate_on_cache_cap() {
        let g = gen::cycle(12);
        let ids: Vec<u64> = (0..12).collect();
        let rank: Vec<usize> = (0..12).collect();
        let d = gen::directed_cycle(12);
        let budget = RunBudget::unlimited().with_cache_cap(1);
        let id = run::id_vertex_budgeted(&g, &ids, &IdMax, &budget).unwrap();
        assert!(matches!(id.truncation, Some(TruncationReason::CacheCapExceeded { cap: 1, .. })));
        let oi = run::oi_vertex_budgeted(&g, &rank, &OiMin, &budget).unwrap();
        assert!(!oi.is_complete());
        let po = run::po_vertex_budgeted(&d, &PoParity, &budget).unwrap();
        assert!(matches!(po.truncation, Some(TruncationReason::CacheCapExceeded { .. })));
    }

    #[test]
    fn engines_truncate_on_deadline_with_empty_prefix() {
        let g = gen::cycle(12);
        let ids: Vec<u64> = (0..12).collect();
        let rank: Vec<usize> = (0..12).collect();
        let budget = expired_deadline();
        let id = run::id_vertex_budgeted(&g, &ids, &IdMax, &budget).unwrap();
        assert!(matches!(id.truncation, Some(TruncationReason::DeadlineExceeded { .. })));
        assert!(id.value.len() < 12, "expired deadline cannot complete all vertices");
        let oi = run::oi_vertex_budgeted(&g, &rank, &OiMin, &budget).unwrap();
        assert!(!oi.is_complete());
    }

    #[test]
    fn truncated_prefix_agrees_with_full_run() {
        let g = gen::cycle(12);
        let ids: Vec<u64> = (0..12).collect();
        let budget = RunBudget::unlimited().with_cache_cap(2);
        let partial = run::id_vertex_budgeted(&g, &ids, &IdMax, &budget).unwrap();
        let full = run::id_vertex_budgeted(&g, &ids, &IdMax, &RunBudget::unlimited())
            .unwrap()
            .value;
        assert!(
            partial.value.iter().zip(&full).all(|(a, b)| a == b),
            "a truncated run must be a prefix of the full answer, never a wrong answer"
        );
    }

    #[test]
    fn transfer_pipelines_truncate_with_stage() {
        #[derive(Clone)]
        struct AllEdges;
        impl OiEdgeAlgorithm for AllEdges {
            fn radius(&self) -> usize {
                1
            }
            fn evaluate(&self, t: &OrderedNbhd) -> Vec<bool> {
                vec![true; t.edges.iter().filter(|&&(a, b)| a == t.root || b == t.root).count()]
            }
        }
        let g = gen::directed_cycle(6);
        let h = construct_budgeted(1, 1, 6, &RunBudget::unlimited()).unwrap();
        // the deadline reaches the lift, the first stage, at its first
        // check right after the product; the cache cap, which the lift
        // does not check, stops A's run
        for (budget, stage) in [
            (expired_deadline(), "lift product"),
            (RunBudget::unlimited().with_cache_cap(1), "A on lift"),
        ] {
            let res = transfer_vertex_budgeted(
                &g,
                &h,
                OiMin,
                Goal::Minimize,
                vertex_cover::feasible,
                vertex_cover::opt_value,
                &budget,
            );
            assert!(
                matches!(res, Err(CoreError::Truncated { stage: s, .. }) if s == stage),
                "vertex transfer: expected {stage}"
            );
            let res = transfer_edge_budgeted(
                &g,
                &h,
                AllEdges,
                Goal::Minimize,
                edge_dominating_set::feasible,
                edge_dominating_set::opt_value,
                &budget,
            );
            assert!(
                matches!(res, Err(CoreError::Truncated { stage: s, .. }) if s == stage),
                "edge transfer: expected {stage}"
            );
        }
    }

    #[test]
    fn eds_report_truncates_on_cache_cap_and_deadline() {
        let inst = eds_instance(2, 9).unwrap();
        let res = eds_lower::lower_bound_report_budgeted(
            &inst,
            &RunBudget::unlimited().with_cache_cap(1),
        );
        assert!(matches!(res, Err(CoreError::Truncated { stage: "view census", .. })));
        let res = eds_lower::lower_bound_report_budgeted(&inst, &expired_deadline());
        assert!(matches!(res, Err(CoreError::Truncated { .. })));
    }

    #[test]
    fn homogeneous_construction_truncates_on_deadline() {
        let res = construct_budgeted(1, 1, 6, &expired_deadline());
        assert!(matches!(res, Err(CoreError::Truncated { stage: "generator search", .. })));
    }

    #[test]
    fn homogeneous_lift_truncates_on_deadline() {
        let g = gen::directed_cycle(3);
        let h = construct_budgeted(1, 1, 6, &RunBudget::unlimited()).unwrap();
        let res = homogeneous_lift_budgeted(&g, &h, &expired_deadline());
        assert!(matches!(res, Err(CoreError::Truncated { .. })));
    }

    #[test]
    fn ramsey_search_truncates_instead_of_reporting_absence() {
        let universe: Vec<u64> = (1..=30).collect();
        let mut color = |s: &[u64]| s.iter().sum::<u64>() % 2;
        let res = monochromatic_subset_budgeted(&mut color, &universe, 2, 6, &expired_deadline());
        assert!(matches!(res, Err(CoreError::Truncated { stage: "Ramsey search", .. })));
        let res = ramsey_cycle_transfer_budgeted(IdMax, &universe, 1, 8, &expired_deadline());
        assert!(matches!(res, Err(CoreError::Truncated { .. })));
        // and with room to breathe, the same search succeeds
        assert!(ramsey_cycle_transfer_budgeted(IdMax, &universe, 1, 8, &RunBudget::unlimited())
            .unwrap()
            .is_some());
    }
}

/// The cancellation axis (the serving layer's disconnect path): a
/// tripped [`CancelToken`] must stop engines and pipelines exactly like
/// an expired deadline, as a typed `Cancelled` truncation.
mod cancellation_faults {
    use super::*;
    use locap_core::eds_lower;
    use locap_core::homogeneous::construct_budgeted;
    use locap_core::request::PipelineRequest;
    use locap_graph::budget::CancelToken;
    use locap_obs::json::Json;

    fn cancelled_budget() -> (CancelToken, RunBudget) {
        let token = CancelToken::new();
        token.cancel();
        (token.clone(), RunBudget::unlimited().with_cancel(token))
    }

    #[test]
    fn engines_truncate_on_cancellation_with_empty_prefix() {
        let g = gen::cycle(12);
        let ids: Vec<u64> = (0..12).collect();
        let (_, budget) = cancelled_budget();
        let id = run::id_vertex_budgeted(&g, &ids, &IdMax, &budget).unwrap();
        assert!(matches!(id.truncation, Some(TruncationReason::Cancelled)));
        assert!(id.value.len() < 12, "a cancelled run cannot complete all vertices");
    }

    #[test]
    fn cancellation_wins_over_an_expired_deadline() {
        let (token, _) = cancelled_budget();
        let budget = expired_deadline().with_cancel(token);
        assert!(matches!(budget.check_interrupt(), Some(TruncationReason::Cancelled)));
    }

    #[test]
    fn any_tripped_token_cancels_a_multi_token_budget() {
        // the daemon composes a per-connection and a drain token
        let quiet = CancelToken::new();
        let (tripped, _) = cancelled_budget();
        let budget = RunBudget::unlimited().with_cancel(quiet).with_cancel(tripped);
        assert!(matches!(budget.check_cancelled(), Some(TruncationReason::Cancelled)));
    }

    #[test]
    fn pipelines_truncate_on_cancellation() {
        let (_, budget) = cancelled_budget();
        let inst = eds_instance(2, 9).unwrap();
        let res = eds_lower::lower_bound_report_budgeted(&inst, &budget);
        assert!(matches!(
            res,
            Err(CoreError::Truncated { reason: TruncationReason::Cancelled, .. })
        ));
        let res = construct_budgeted(1, 1, 6, &budget);
        assert!(matches!(
            res,
            Err(CoreError::Truncated { reason: TruncationReason::Cancelled, .. })
        ));
    }

    /// Every request the serving layer can dispatch truncates under a
    /// pre-tripped token — the invariant the daemon's disconnect and
    /// drain paths rely on.
    #[test]
    fn every_request_pipeline_truncates_on_cancellation() {
        let cases: &[(&str, &str)] = &[
            ("eds-lower", r#"{"n":9}"#),
            ("homogeneous", r#"{"m":6}"#),
            ("hom-lift", r#"{"cycle":3,"m":6}"#),
            ("oi-to-po", r#"{"algo":"vc-non-min","cycle":9}"#),
            ("ramsey", r#"{"algo":"local-max","m":5}"#),
            ("transfer", r#"{"algo":"vc-non-min","cycle":9}"#),
            ("census", r#"{"family":"directed-cycle","n":12}"#),
        ];
        let (_, budget) = cancelled_budget();
        for (pipeline, params) in cases {
            let request = PipelineRequest::parse(pipeline, &Json::parse(params).unwrap())
                .unwrap_or_else(|e| panic!("{pipeline}: {e}"));
            let res = request.run(&budget);
            assert!(
                matches!(
                    res,
                    Err(CoreError::Truncated { reason: TruncationReason::Cancelled, .. })
                ),
                "{pipeline} must cancel cleanly"
            );
        }
    }

    #[test]
    fn cancellation_counters_reach_snapshots() {
        let before = locap_obs::counter("budget/truncated/cancelled").get();
        let (_, budget) = cancelled_budget();
        let g = gen::cycle(8);
        let ids: Vec<u64> = (0..8).collect();
        let _ = run::id_vertex_budgeted(&g, &ids, &IdMax, &budget);
        assert!(
            locap_obs::counter("budget/truncated/cancelled").get() > before,
            "cancelled truncations publish their counter"
        );
    }
}

mod obs_visibility {
    use super::*;

    /// Errors and truncations must be visible in OBS_JSON: drive one of
    /// each class and check the counters moved and serialise.
    #[test]
    fn error_and_truncation_counters_reach_snapshots() {
        let g = gen::cycle(8);
        let short: Vec<u64> = (0..3).collect();
        let before = locap_obs::counter("errors/run/input_length").get();
        let _ =
            run::id_vertex_budgeted(&g, &short, &IdMax, &RunBudget::unlimited()).map(|b| b.value);
        let _ =
            run::id_vertex_budgeted(&g, &short, &IdMax, &RunBudget::unlimited()).map(|b| b.value);
        assert_eq!(
            locap_obs::counter("errors/run/input_length").get(),
            before + 2,
            "every rejected run counts once"
        );

        let before = locap_obs::counter("budget/truncated/cache_cap").get();
        let ids: Vec<u64> = (0..8).collect();
        let budget = RunBudget::unlimited().with_cache_cap(1);
        let _ = run::id_vertex_budgeted(&g, &ids, &IdMax, &budget);
        assert!(locap_obs::counter("budget/truncated/cache_cap").get() > before);

        let snap = locap_obs::snapshot();
        assert!(snap.counters.keys().any(|k| k.starts_with("errors/run/")));
        assert!(snap.counters.keys().any(|k| k.starts_with("budget/truncated/")));
        let json = snap.to_json("failure_injection");
        assert!(json.contains("errors/run/input_length"));
        assert!(json.contains("budget/truncated/cache_cap"));
    }
}

#[test]
fn corrupted_covering_maps_rejected() {
    let g = PoGraph::canonical(&gen::cycle(5)).digraph().clone();
    let (h, phi) = trivial_lift(&g, 3);
    phi.verify(&h, &g).unwrap();

    // swap two images within different fibres: breaks local bijection
    let mut bad = phi.as_slice().to_vec();
    bad.swap(0, 1);
    assert!(CoveringMap::new(bad).verify(&h, &g).is_err());

    // constant map: not onto / wrong local structure
    assert!(CoveringMap::new(vec![0; h.node_count()]).verify(&h, &g).is_err());

    // truncated map
    assert!(CoveringMap::new(vec![0; 3]).verify(&h, &g).is_err());
}

#[test]
fn tampered_solutions_rejected_by_anonymous_verifiers() {
    let g = gen::petersen();

    // start from a valid vertex cover and delete one node
    let cover = locap_problems::vertex_cover::solve_exact(&g);
    assert!(verify_vertex(&g, &cover, &VertexCoverVerifier));
    let mut broken = cover.clone();
    let first = *broken.iter().next().unwrap();
    broken.remove(&first);
    assert!(!verify_vertex(&g, &broken, &VertexCoverVerifier));

    // start from a valid EDS and delete one edge until infeasible
    let eds = locap_problems::edge_dominating_set::solve_exact(&g);
    assert!(verify_edge(&g, &eds, &EdsVerifier));
    let mut broken: BTreeSet<Edge> = eds.clone();
    let e = *broken.iter().next().unwrap();
    broken.remove(&e);
    assert!(
        !verify_edge(&g, &broken, &EdsVerifier),
        "removing an edge from a *minimum* EDS must break feasibility"
    );
}

#[test]
fn doctored_homogeneous_graphs_fail_verification() {
    let h = construct_budgeted(1, 1, 6, &RunBudget::unlimited()).unwrap();
    h.verify().unwrap();

    // inflate the claimed census
    let mut fake = h.clone();
    fake.homogeneous_count = fake.node_count();
    assert!(matches!(fake.verify(), Err(CoreError::VerificationFailed { .. })));

    // move one τ* flag onto an untyped vertex: the count still holds, the
    // flags do not
    let mut fake = h.clone();
    let on = fake.typed.iter().position(|&t| t).unwrap();
    let off = fake.typed.iter().position(|&t| !t).unwrap();
    fake.typed.swap(on, off);
    assert!(matches!(
        fake.verify(),
        Err(CoreError::VerificationFailed { property }) if property.contains("census")
    ));

    // reverse the order: every inner neighbourhood becomes the mirror of
    // τ*, which is a *different* labelled type, so the recount collapses
    let mut fake = h.clone();
    let n = fake.rank.len();
    for r in fake.rank.iter_mut() {
        *r = n - 1 - *r;
    }
    assert!(fake.verify().is_err());

    // break 2k-regularity by deleting an edge
    let mut fake = h.clone();
    let e = fake.digraph.edges().next().unwrap();
    assert!(fake.digraph.remove_edge(e.from, e.to, e.label));
    assert!(matches!(
        fake.verify(),
        Err(CoreError::VerificationFailed { property }) if property.contains("regular")
    ));
}

#[test]
fn eds_instance_with_broken_labelling_rejected() {
    let inst = eds_instance(2, 9).unwrap();
    lower_bound_report_budgeted(&inst, &RunBudget::unlimited()).unwrap();

    // delete one labelled edge: label-completeness fails
    let mut bad = EdsInstance {
        digraph: inst.digraph.clone(),
        delta_prime: inst.delta_prime,
        lift_degree: inst.lift_degree,
    };
    let e = bad.digraph.edges().next().unwrap();
    assert!(bad.digraph.remove_edge(e.from, e.to, e.label));
    assert!(matches!(
        lower_bound_report_budgeted(&bad, &RunBudget::unlimited()),
        Err(CoreError::VerificationFailed { .. })
    ));
}

#[test]
fn improper_structures_rejected_at_construction() {
    use locap_graph::{GraphError, LDigraph, OrderedGraph, PortNumbering};

    // duplicate labels
    let mut d = LDigraph::new(3, 1);
    d.add_edge(0, 1, 0).unwrap();
    assert!(matches!(d.add_edge(0, 2, 0), Err(GraphError::ImproperLabelling { .. })));

    // bad port permutation
    let g = gen::cycle(4);
    let mut lists: Vec<Vec<usize>> = g.nodes().map(|v| g.neighbors(v).to_vec()).collect();
    lists[0][0] = lists[0][1];
    assert!(PortNumbering::from_lists(&g, lists).is_err());

    // bad order
    assert!(OrderedGraph::from_rank(gen::path(3), vec![0, 0, 2]).is_err());
}

#[test]
fn non_monochromatic_pools_detected() {
    use locap_core::ramsey::verify_monochromatic;
    use locap_graph::canon::IdNbhd;
    use locap_models::IdVertexAlgorithm;

    #[derive(Clone)]
    struct EvenId;
    impl IdVertexAlgorithm for EvenId {
        fn radius(&self) -> usize {
            1
        }
        fn evaluate(&self, t: &IdNbhd) -> bool {
            t.ids[t.root as usize] % 2 == 0
        }
    }

    // mixed-parity interior: not monochromatic for either bit
    let j = vec![1u64, 2, 3, 4, 5];
    assert!(!verify_monochromatic(&EvenId, &j, 1, true));
    assert!(!verify_monochromatic(&EvenId, &j, 1, false));
    // all-even interior: monochromatic for true
    let j = vec![1u64, 2, 4, 6, 7];
    assert!(verify_monochromatic(&EvenId, &j, 1, true));
}
