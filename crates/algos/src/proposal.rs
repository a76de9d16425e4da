//! Maximal matching in 2-coloured graphs by port-ordered proposals.
//!
//! The classical anonymous algorithm (O(Δ) rounds, PN model — no
//! orientation or identifiers needed once a 2-colouring is given): white
//! nodes propose along their ports in order, black nodes accept the
//! lowest-port proposal they see while unmatched. Used as the engine of the
//! double-cover algorithms ([`crate::double_cover`]), where the 2-colouring
//! is free.

use std::collections::BTreeSet;

use locap_graph::budget::RunBudget;
use locap_graph::{Edge, Graph, PortNumbering};
use locap_models::sim::{run_sync_budgeted, NodeCtx, SyncAlgorithm};
use locap_models::RunError;

/// Messages of the proposal algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Msg {
    /// A white node proposes on this edge.
    Propose,
    /// A black node accepts the proposal received on this edge.
    Accept,
}

/// State of a node in the proposal algorithm.
#[derive(Debug, Clone)]
pub struct MatchState {
    /// `true` for black (accepting) nodes.
    pub black: bool,
    /// The port of the matched edge, if matched.
    pub matched_port: Option<usize>,
    next_port: usize,
    degree: usize,
    step: usize,
    budget: usize,
}

/// The proposal algorithm; `colors[v] = 1` marks black nodes.
#[derive(Debug, Clone, Copy)]
pub struct ProposalMatching;

impl SyncAlgorithm for ProposalMatching {
    type State = MatchState;
    type Msg = Msg;

    fn init(&self, ctx: &NodeCtx) -> Result<MatchState, RunError> {
        Ok(MatchState {
            black: ctx.require_input()? == 1,
            matched_port: None,
            next_port: 0,
            degree: ctx.degree,
            step: 0,
            // Δ proposal cycles of 2 rounds each, +1 to drain.
            budget: 2 * ctx.degree + 2,
        })
    }

    fn round(
        &self,
        mut s: MatchState,
        round: usize,
        inbox: &[Option<Msg>],
        outbox: &mut [Option<Msg>],
    ) -> MatchState {
        if s.black {
            // Odd rounds: answer the proposals that arrived this round.
            if round % 2 == 1 && s.matched_port.is_none() {
                if let Some(port) = inbox.iter().position(|m| matches!(m, Some(Msg::Propose))) {
                    s.matched_port = Some(port);
                    outbox[port] = Some(Msg::Accept);
                }
            }
        } else {
            // Whites read answers on even rounds, propose on even rounds.
            if round % 2 == 0 {
                if let Some(port) = inbox.iter().position(|m| matches!(m, Some(Msg::Accept))) {
                    s.matched_port = Some(port);
                }
                if s.matched_port.is_none() && s.next_port < s.degree {
                    outbox[s.next_port] = Some(Msg::Propose);
                    s.next_port += 1;
                }
            }
        }
        s.step += 1;
        s
    }

    fn halted(&self, s: &MatchState) -> bool {
        s.step >= s.budget || (s.matched_port.is_some() && s.black)
    }
}

/// Result of a proposal-matching run.
#[derive(Debug, Clone)]
pub struct MatchingResult {
    /// The matching found.
    pub matching: BTreeSet<Edge>,
    /// Rounds executed.
    pub rounds: usize,
}

/// Runs the proposal algorithm on a 2-coloured graph.
///
/// `colors[v] = true` marks black nodes; every edge must join a white and
/// a black node (the graph must be properly 2-coloured).
///
/// # Errors
///
/// Propagates the simulator's [`RunError`] for malformed inputs (short
/// `colors`, ports inconsistent with `g`).
///
/// # Panics
///
/// Panics if the colouring is not proper.
pub fn maximal_matching_2colored(
    g: &Graph,
    ports: &PortNumbering,
    colors: &[bool],
) -> Result<MatchingResult, RunError> {
    for e in g.edges() {
        assert_ne!(colors[e.u], colors[e.v], "2-colouring must be proper on {e:?}");
    }
    let inputs: Vec<u64> = colors.iter().map(|&b| b as u64).collect();
    let budget = RunBudget::unlimited().with_max_rounds(2 * g.max_degree() + 4);
    let res = run_sync_budgeted(g, ports, None, None, Some(&inputs), &ProposalMatching, &budget)?;
    let mut matching = BTreeSet::new();
    for (v, s) in res.states.iter().enumerate() {
        if s.black {
            continue;
        }
        if let Some(p) = s.matched_port {
            let u = ports.neighbor(v, p).ok_or_else(|| {
                RunError::PortOutOfRange { node: v, port: p, degree: ports.ports(v).len() }
                    .publish()
            })?;
            matching.insert(Edge::new(v, u));
        }
    }
    Ok(MatchingResult { matching, rounds: res.rounds })
}

#[cfg(test)]
mod tests {
    use super::*;
    use locap_graph::gen;
    use locap_problems::matching;

    fn bipartite_colors(a: usize, b: usize) -> Vec<bool> {
        (0..a + b).map(|v| v >= a).collect()
    }

    #[test]
    fn complete_bipartite_perfect_side() {
        let g = gen::complete_bipartite(3, 3);
        let ports = PortNumbering::sorted(&g);
        let res = maximal_matching_2colored(&g, &ports, &bipartite_colors(3, 3)).unwrap();
        assert!(matching::feasible(&g, &res.matching));
        assert!(matching::is_maximal(&g, &res.matching));
        assert_eq!(res.matching.len(), 3, "K33 proposal matching is perfect");
        assert!(res.rounds <= 2 * 3 + 4);
    }

    #[test]
    fn even_cycle_with_alternating_colors() {
        let g = gen::cycle(8);
        let colors: Vec<bool> = (0..8).map(|v| v % 2 == 1).collect();
        let ports = PortNumbering::sorted(&g);
        let res = maximal_matching_2colored(&g, &ports, &colors).unwrap();
        assert!(matching::is_maximal(&g, &res.matching));
        assert!(res.matching.len() >= 3);
    }

    #[test]
    fn star_matches_exactly_one() {
        let g = gen::star(5);
        let colors: Vec<bool> = (0..6).map(|v| v > 0).collect();
        let ports = PortNumbering::sorted(&g);
        let res = maximal_matching_2colored(&g, &ports, &colors).unwrap();
        assert_eq!(res.matching.len(), 1);
        assert!(matching::is_maximal(&g, &res.matching));
    }

    #[test]
    #[should_panic(expected = "2-colouring must be proper")]
    fn improper_coloring_rejected() {
        let g = gen::cycle(5); // odd cycle: not 2-colourable
        let colors: Vec<bool> = (0..5).map(|v| v % 2 == 1).collect();
        let ports = PortNumbering::sorted(&g);
        let _ = maximal_matching_2colored(&g, &ports, &colors);
    }

    #[test]
    fn maximality_over_random_bipartite_instances() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        for trial in 0..20 {
            let (a, b) = (rng.gen_range(2..6), rng.gen_range(2..6));
            let mut g = Graph::new(a + b);
            for u in 0..a {
                for v in 0..b {
                    if rng.gen_bool(0.5) {
                        g.add_edge(u, a + v).unwrap();
                    }
                }
            }
            let ports = locap_graph::random::random_ports(&g, &mut rng);
            let res = maximal_matching_2colored(&g, &ports, &bipartite_colors(a, b)).unwrap();
            assert!(matching::feasible(&g, &res.matching), "trial {trial}");
            assert!(matching::is_maximal(&g, &res.matching), "trial {trial}");
        }
    }
}
