//! End-to-end tests of the main theorem pipeline: ID → OI (Ramsey) →
//! PO (homogeneous lifts + simulation) → lower bounds.

use locap_core::homogeneous::construct_budgeted;
use locap_core::oi_to_po::PoFromOi;
use locap_core::ramsey::{ramsey_cycle_transfer_budgeted, verify_monochromatic, OiFromId};
use locap_core::transfer::transfer_vertex_budgeted;
use locap_graph::budget::RunBudget;
use locap_graph::canon::{IdNbhd, OrderedNbhd};
use locap_graph::gen;
use locap_models::{run, IdVertexAlgorithm, OiVertexAlgorithm};
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

#[derive(Clone)]
struct LocalMinIs;
impl OiVertexAlgorithm for LocalMinIs {
    fn radius(&self) -> usize {
        1
    }
    fn evaluate(&self, t: &OrderedNbhd) -> bool {
        t.root == 0
    }
}

/// Fact 4.2 quantitatively: agreement ≥ homogeneous fraction, for two
/// problems and several ε.
#[test]
fn fact_4_2_agreement_bounds() {
    let g = gen::directed_cycle(15);
    for m in [6u64, 10, 16] {
        let h = construct_budgeted(1, 1, m, &RunBudget::unlimited()).unwrap();
        let (rep, _) = transfer_vertex_budgeted(
            &g,
            &h,
            NonMinCover,
            Goal::Minimize,
            vertex_cover::feasible,
            vertex_cover::opt_value,
            &RunBudget::unlimited(),
        )
        .unwrap();
        assert!(
            rep.agreement >= h.fraction(),
            "m={m}: agreement {} < fraction {}",
            rep.agreement,
            h.fraction()
        );
        assert!(rep.feasible);
    }
}

/// The simulation turns the OI independent-set algorithm into a PO
/// algorithm that is *empty* on symmetric cycles — the forced outcome that
/// proves PO cannot approximate maximum IS (paper §1.4).
#[test]
fn is_simulation_forced_empty_on_cycles() {
    let h = construct_budgeted(1, 1, 8, &RunBudget::unlimited()).unwrap();
    let b = PoFromOi::from_homogeneous(LocalMinIs, &h).unwrap();
    for n in [5usize, 9, 14] {
        let g = gen::directed_cycle(n);
        let out = run::po_vertex_budgeted(&g, &b, &RunBudget::unlimited()).unwrap().value;
        assert!(out.iter().all(|&x| !x), "n={n}: B must be constant-empty");
    }
}

/// ID → OI → PO composed: a value-sensitive ID algorithm is forced
/// order-invariant inside a monochromatic J, and the induced OI algorithm
/// feeds the OI → PO simulation without panicking.
#[test]
fn id_to_oi_to_po_composition() {
    #[derive(Clone)]
    struct SumParity;
    impl IdVertexAlgorithm for SumParity {
        fn radius(&self) -> usize {
            1
        }
        fn evaluate(&self, t: &IdNbhd) -> bool {
            t.ids.iter().sum::<u64>() % 2 == 0
        }
    }

    let universe: Vec<u64> = (1..=60).collect();
    let (oi, j, bit) =
        ramsey_cycle_transfer_budgeted(SumParity, &universe, 1, 8, &RunBudget::unlimited())
            .unwrap()
            .expect("monochromatic J exists in a 60-element universe");
    assert!(verify_monochromatic(&SumParity, &j, 1, bit));

    // compose with OI→PO
    let h = construct_budgeted(1, 1, 6, &RunBudget::unlimited()).unwrap();
    let b = PoFromOi::from_homogeneous(oi, &h).unwrap();
    let g = gen::directed_cycle(10);
    let out = run::po_vertex_budgeted(&g, &b, &RunBudget::unlimited()).unwrap().value;
    // constant on the symmetric cycle, and equal to the forced bit
    assert!(out.iter().all(|&x| x == out[0]));
    assert_eq!(out[0], bit, "B's constant equals the Ramsey-forced colour");
}

/// The OiFromId wrapper is faithful: on order-isomorphic neighbourhoods it
/// returns what the ID algorithm returns on the J-window.
#[test]
fn oi_from_id_faithful() {
    #[derive(Clone)]
    struct RootIsSecond;
    impl IdVertexAlgorithm for RootIsSecond {
        fn radius(&self) -> usize {
            1
        }
        fn evaluate(&self, t: &IdNbhd) -> bool {
            t.root == 1
        }
    }
    let oi = OiFromId::new(RootIsSecond, &[10, 20, 30, 40]).unwrap();
    let mid = OrderedNbhd { n: 3, root: 1, edges: vec![(0, 1), (1, 2)] };
    let lo = OrderedNbhd { n: 3, root: 0, edges: vec![(0, 1), (0, 2)] };
    assert!(oi.evaluate(&mid));
    assert!(!oi.evaluate(&lo));
}

/// Approximation preservation (the |B(G)|/|X| calculation of Thm 4.1):
/// B's measured ratio on the base graph never exceeds A's measured ratio
/// on the lift by more than the (1 − ε|G|)⁻¹ slack — here checked in the
/// exact form ratio_B ≤ ratio_A / agreement-deficit-free bound for the
/// concrete instances.
#[test]
fn approximation_preserved_through_simulation() {
    let g = gen::directed_cycle(12);
    let h = construct_budgeted(1, 1, 16, &RunBudget::unlimited()).unwrap();
    let (rep, lift) = transfer_vertex_budgeted(
        &g,
        &h,
        NonMinCover,
        Goal::Minimize,
        vertex_cover::feasible,
        vertex_cover::opt_value,
        &RunBudget::unlimited(),
    )
    .unwrap();
    // A's cover on the lift
    let lift_und = lift.lift.underlying_simple();
    let a_out =
        run::oi_vertex_budgeted(&lift_und, &lift.rank, &NonMinCover, &RunBudget::unlimited())
            .unwrap()
            .value;
    let a_size = a_out.iter().filter(|&&x| x).count();
    let a_feasible = vertex_cover::feasible(&lift_und, &run::to_vertex_set(&a_out));
    assert!(a_feasible, "A is a vertex cover on the lift");
    // Fact 4.3-style accounting: |A| >= agreement-weighted |B|
    assert!(a_size as f64 >= rep.agreement.to_f64() * rep.b_on_lift as f64 - 1e-9);
    assert!(rep.feasible);
}
