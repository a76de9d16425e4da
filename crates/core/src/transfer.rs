//! The transfer pipeline — **Theorems 1.3 / 1.4** instantiated and
//! measured.
//!
//! For an OI algorithm `A`, an L-digraph `G` and a homogeneous graph
//! `H_ε`, this module builds the lift `G_ε`, the simulation `B`, and
//! measures the quantities the proof of Theorem 4.1 manipulates:
//!
//! * **Fact 4.2** — `A(G_ε, <, v) = B(G_ε, v)` on at least a `1 − ε`
//!   fraction of lift vertices;
//! * lift-invariance — `B(G_ε, v) = B(G, ϕ(v))` *exactly* (PO outputs are
//!   functions of views, which covering maps preserve);
//! * the resulting feasibility and approximation ratio of `B` on `G`
//!   against the exact optimum.

use std::collections::BTreeSet;

use locap_graph::budget::RunBudget;
use locap_graph::{Graph, LDigraph};
use locap_models::{run, OiVertexAlgorithm};
use locap_num::Ratio;
use locap_obs as obs;
use locap_problems::{approx_ratio, Goal};

use crate::hom_lift::{homogeneous_lift_budgeted, HomogeneousLift};
use crate::homogeneous::HomogeneousGraph;
use crate::oi_to_po::PoFromOi;
use crate::CoreError;

/// Measured outcome of one transfer run (vertex-subset problems).
#[derive(Debug, Clone)]
pub struct TransferReport {
    /// Vertices of the lift `G_ε`.
    pub lift_nodes: usize,
    /// Fraction of lift vertices with `A = B` (Fact 4.2; ≥ 1 − ε).
    pub agreement: Ratio,
    /// `|A(G_ε)|`.
    pub a_on_lift: usize,
    /// `|B(G_ε)|`.
    pub b_on_lift: usize,
    /// `B(G)` — the solution the PO algorithm produces on the base graph.
    pub b_on_g: BTreeSet<usize>,
    /// Whether `B(G)` is feasible for the problem.
    pub feasible: bool,
    /// `B`'s approximation ratio on `G` (vs the exact optimum), if defined.
    pub ratio: Option<Ratio>,
    /// The exact optimum on `G`.
    pub opt: usize,
}

/// Runs the full OI → PO transfer for a vertex-subset minimisation or
/// maximisation problem given by its `feasible` and `opt` oracles.
///
/// The budget is threaded into every stage in order: the lift's
/// construction and verification (stages `lift product`, `lift girth
/// check` and `lift order audit`), then the three engine runs (`A on
/// lift`, `B on lift`, `B on base graph`). A's OI run reads the lift's
/// own rows, as B's runs do, so no stage builds a graph of the lift's
/// size.
///
/// # Errors
///
/// Propagates lift-construction failures; reports a verification failure
/// if lift-invariance of `B` is violated (impossible unless a bug), and
/// [`CoreError::Truncated`] naming the interrupted stage when the budget
/// trips — the report is only meaningful when every stage completed, so
/// a truncated transfer is an error rather than a partial report.
pub fn transfer_vertex_budgeted<A>(
    g: &LDigraph,
    h: &HomogeneousGraph,
    oi: A,
    goal: Goal,
    feasible: impl Fn(&Graph, &BTreeSet<usize>) -> bool,
    opt: impl Fn(&Graph) -> usize,
    budget: &RunBudget,
) -> Result<(TransferReport, HomogeneousLift), CoreError>
where
    A: OiVertexAlgorithm + Clone + Send + Sync,
{
    let _span = obs::span("transfer/vertex");
    let lift = homogeneous_lift_budgeted(g, h, budget)?;
    let b = PoFromOi::from_homogeneous(oi.clone(), h)?;

    let a_out = require_complete(
        run::oi_vertex_budgeted(&lift.lift, &lift.rank, &oi, budget)?,
        "A on lift",
    )?;
    let b_out = require_complete(run::po_vertex_budgeted(&lift.lift, &b, budget)?, "B on lift")?;
    let agreement = {
        let same = a_out.iter().zip(&b_out).filter(|(x, y)| x == y).count();
        Ratio::new(same as i128, a_out.len() as i128)
            .map_err(|_| CoreError::BadParameters { reason: "empty lift".into() })?
    };

    let b_g = require_complete(run::po_vertex_budgeted(g, &b, budget)?, "B on base graph")?;
    for (v, out) in b_out.iter().enumerate() {
        if b_g.get(lift.base_node(v)) != Some(out) {
            return Err(CoreError::VerificationFailed {
                property: format!("lift invariance of B at lift node {v}"),
            });
        }
    }

    let b_set = run::to_vertex_set(&b_g);
    let g_und = g.underlying_simple();
    let is_feasible = feasible(&g_und, &b_set);
    let opt_val = opt(&g_und);
    let ratio = approx_ratio(b_set.len(), opt_val, goal);

    Ok((
        TransferReport {
            lift_nodes: lift.node_count(),
            agreement,
            a_on_lift: a_out.iter().filter(|&&x| x).count(),
            b_on_lift: b_out.iter().filter(|&&x| x).count(),
            b_on_g: b_set,
            feasible: is_feasible,
            ratio,
            opt: opt_val,
        },
        lift,
    ))
}

/// Unwraps a [`Budgeted`](locap_graph::budget::Budgeted) run inside a
/// report-shaped pipeline: a complete value passes through, a truncated
/// one becomes [`CoreError::Truncated`] tagged with `stage`.
pub(crate) fn require_complete<T>(
    run: locap_graph::budget::Budgeted<T>,
    stage: &'static str,
) -> Result<T, CoreError> {
    match run.truncation {
        None => Ok(run.value),
        Some(reason) => Err(CoreError::Truncated { stage, reason }),
    }
}

/// Measured outcome of one transfer run (edge-subset problems).
#[derive(Debug, Clone)]
pub struct EdgeTransferReport {
    /// Vertices of the lift `G_ε`.
    pub lift_nodes: usize,
    /// `|A(G_ε)|` — A's edge solution on the ordered lift.
    pub a_on_lift: usize,
    /// `|B(G_ε)|` — B's edge solution on the lift.
    pub b_on_lift: usize,
    /// `B(G)` — the edge solution on the base graph.
    pub b_on_g: BTreeSet<locap_graph::Edge>,
    /// Whether `B(G)` is feasible.
    pub feasible: bool,
    /// `B`'s approximation ratio on `G`, if defined.
    pub ratio: Option<Ratio>,
    /// The exact optimum on `G`.
    pub opt: usize,
}

/// Runs the OI → PO transfer for an edge-subset problem, threading the
/// budget through the stages as [`transfer_vertex_budgeted`] does.
///
/// # Errors
///
/// Propagates lift-construction failures, and [`CoreError::Truncated`]
/// naming the interrupted stage when the budget trips.
pub fn transfer_edge_budgeted<A>(
    g: &LDigraph,
    h: &HomogeneousGraph,
    oi: A,
    goal: Goal,
    feasible: impl Fn(&Graph, &BTreeSet<locap_graph::Edge>) -> bool,
    opt: impl Fn(&Graph) -> usize,
    budget: &RunBudget,
) -> Result<(EdgeTransferReport, HomogeneousLift), CoreError>
where
    A: locap_models::OiEdgeAlgorithm + Clone + Send + Sync,
{
    use crate::oi_to_po::PoFromOiEdge;

    let _span = obs::span("transfer/edge");
    let lift = homogeneous_lift_budgeted(g, h, budget)?;
    let b = PoFromOiEdge::from_homogeneous(oi.clone(), h)?;

    let a_set =
        require_complete(run::oi_edge_budgeted(&lift.lift, &lift.rank, &oi, budget)?, "A on lift")?;
    let b_lift_set = require_complete(run::po_edge_budgeted(&lift.lift, &b, budget)?, "B on lift")?;
    let b_g_set = require_complete(run::po_edge_budgeted(g, &b, budget)?, "B on base graph")?;

    let g_und = g.underlying_simple();
    let is_feasible = feasible(&g_und, &b_g_set);
    let opt_val = opt(&g_und);
    let ratio = approx_ratio(b_g_set.len(), opt_val, goal);

    Ok((
        EdgeTransferReport {
            lift_nodes: lift.node_count(),
            a_on_lift: a_set.len(),
            b_on_lift: b_lift_set.len(),
            b_on_g: b_g_set,
            feasible: is_feasible,
            ratio,
            opt: opt_val,
        },
        lift,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::homogeneous::construct_budgeted;
    use locap_graph::canon::OrderedNbhd;
    use locap_graph::gen;
    use locap_problems::vertex_cover;

    /// The order-greedy OI vertex cover: a node joins unless it is the
    /// order-minimum of some incident edge... simplest correct variant:
    /// join iff NOT a local order-minimum (the local minima form an
    /// independent set, so the rest is a vertex cover).
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

    #[test]
    fn transfer_vertex_cover_on_directed_cycle() {
        let g = gen::directed_cycle(12);
        let h = construct_budgeted(1, 1, 10, &RunBudget::unlimited()).unwrap();
        let (report, _) = transfer_vertex_budgeted(
            &g,
            &h,
            NonMinCover,
            Goal::Minimize,
            vertex_cover::feasible,
            vertex_cover::opt_value,
            &RunBudget::unlimited(),
        )
        .unwrap();
        // Fact 4.2: agreement at least the homogeneous fraction
        assert!(report.agreement >= h.fraction(), "agreement {}", report.agreement);
        // B on the cycle: all views identical; the root of τ* is not the
        // minimum, so B selects every node — feasible, ratio 2 on C12.
        assert!(report.feasible);
        assert_eq!(report.b_on_g.len(), 12);
        assert_eq!(report.opt, 6);
        assert_eq!(report.ratio, Some(Ratio::from_int(2)));
    }

    #[test]
    fn transfer_edge_dominating_set() {
        use locap_models::OiEdgeAlgorithm;
        use locap_problems::edge_dominating_set;

        /// OI EDS: every node selects all incident edges (trivially
        /// feasible, ratio bounded by degree considerations).
        #[derive(Clone)]
        struct AllEdges;
        impl OiEdgeAlgorithm for AllEdges {
            fn radius(&self) -> usize {
                1
            }
            fn evaluate(&self, t: &OrderedNbhd) -> Vec<bool> {
                let deg = t.edges.iter().filter(|&&(i, j)| i == t.root || j == t.root).count();
                vec![true; deg]
            }
        }

        let g = gen::directed_cycle(9);
        let h = construct_budgeted(1, 1, 8, &RunBudget::unlimited()).unwrap();
        let (rep, _) = transfer_edge_budgeted(
            &g,
            &h,
            AllEdges,
            Goal::Minimize,
            edge_dominating_set::feasible,
            edge_dominating_set::opt_value,
            &RunBudget::unlimited(),
        )
        .unwrap();
        assert!(rep.feasible);
        assert_eq!(rep.b_on_g.len(), 9, "all edges selected");
        assert_eq!(rep.opt, 3);
        assert_eq!(rep.ratio, Some(Ratio::from_int(3)), "exactly the 4-2/Δ' bound");
    }

    #[test]
    fn agreement_improves_with_m() {
        let g = gen::directed_cycle(6);
        let h1 = construct_budgeted(1, 1, 6, &RunBudget::unlimited()).unwrap();
        let h2 = construct_budgeted(1, 1, 12, &RunBudget::unlimited()).unwrap();
        let (r1, _) = transfer_vertex_budgeted(
            &g,
            &h1,
            NonMinCover,
            Goal::Minimize,
            vertex_cover::feasible,
            vertex_cover::opt_value,
            &RunBudget::unlimited(),
        )
        .unwrap();
        let (r2, _) = transfer_vertex_budgeted(
            &g,
            &h2,
            NonMinCover,
            Goal::Minimize,
            vertex_cover::feasible,
            vertex_cover::opt_value,
            &RunBudget::unlimited(),
        )
        .unwrap();
        assert!(r2.agreement >= r1.agreement);
        assert!(r2.lift_nodes > r1.lift_nodes);
    }
}
