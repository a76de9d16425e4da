//! A synchronous message-passing simulator.
//!
//! The neighbourhood-function formalism of [`crate::run`] is the paper's
//! definition of a local algorithm; this module provides the equivalent
//! operational view — synchronous rounds over port-numbered links — used by
//! the round-based algorithms of `locap-algos` (Cole–Vishkin colour
//! reduction, proposal matching, edge packing), where the *measured round
//! count* is the quantity of interest.
//!
//! In each round every node produces one outgoing message per port; the
//! message sent by `v` on the port leading to `u` is delivered to `u` on
//! the port leading back to `v` at the start of the next round. A node
//! for which [`SyncAlgorithm::halted`] holds is **frozen**: its `round`
//! function is not called again and it sends no further messages (its
//! last outbox is the one written by the round that moved it into a
//! halted state). Execution stops when every node has halted or when the
//! [`RunBudget`] is exhausted, in which case the result carries the
//! states after the last completed round plus a
//! [`TruncationReason`].
//!
//! All input preconditions (identifiers present and covering every node,
//! input slices of the right length, ports consistent with the graph,
//! orientations covering every edge) surface as typed
//! [`RunError`]s — the simulator never panics on malformed input.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing,
    clippy::string_slice
)]

use locap_graph::budget::{RunBudget, TruncationReason};
use locap_graph::{Graph, GraphError, Orientation, PortNumbering};
use locap_obs as obs;

use crate::error::RunError;

/// Per-node static context available at initialisation.
#[derive(Debug, Clone)]
pub struct NodeCtx {
    /// The node's degree (number of ports).
    pub degree: usize,
    /// The unique identifier, if running in the ID model.
    pub id: Option<u64>,
    /// For each port, whether the incident edge is oriented *outgoing*
    /// (present when running in the PO model).
    pub port_out: Option<Vec<bool>>,
    /// Problem-specific local input (e.g. a colour bit), if supplied.
    pub input: Option<u64>,
}

impl NodeCtx {
    /// The identifier, or a published [`RunError::MissingIds`] for
    /// anonymous runs — the typed replacement for `ctx.id.expect(…)` in
    /// ID-model [`SyncAlgorithm::init`] implementations.
    pub fn require_id(&self) -> Result<u64, RunError> {
        self.id.ok_or_else(|| RunError::MissingIds.publish())
    }

    /// The local input, or a published [`RunError::MissingInputs`].
    pub fn require_input(&self) -> Result<u64, RunError> {
        self.input.ok_or_else(|| RunError::MissingInputs.publish())
    }

    /// The port orientation, or a published
    /// [`RunError::MissingOrientation`].
    pub fn require_port_out(&self) -> Result<&[bool], RunError> {
        match &self.port_out {
            Some(p) => Ok(p),
            None => Err(RunError::MissingOrientation.publish()),
        }
    }
}

/// A synchronous message-passing algorithm.
pub trait SyncAlgorithm {
    /// Per-node state.
    type State: Clone;
    /// Message type.
    type Msg: Clone;

    /// Initialises a node's state from its static context. Missing
    /// model data (identifiers, inputs, orientation) is a typed error,
    /// not a panic — see the [`NodeCtx::require_id`] family.
    fn init(&self, ctx: &NodeCtx) -> Result<Self::State, RunError>;

    /// One synchronous round: consume the inbox (one slot per port;
    /// `None` in round 0) and fill the outbox (one slot per port).
    /// Returns the new state. Not called on halted nodes.
    fn round(
        &self,
        state: Self::State,
        round: usize,
        inbox: &[Option<Self::Msg>],
        outbox: &mut [Option<Self::Msg>],
    ) -> Self::State;

    /// Whether the node has halted: its state is final, its `round`
    /// function is no longer called, and it sends no further messages.
    fn halted(&self, state: &Self::State) -> bool;
}

/// The result of a simulation.
#[derive(Debug, Clone)]
pub struct SimResult<S> {
    /// Final per-node states.
    pub states: Vec<S>,
    /// Number of rounds executed.
    pub rounds: usize,
    /// Whether every node halted within the budget.
    pub all_halted: bool,
    /// Why the run stopped early, if the budget cut it short. The
    /// states are those after the last *completed* round — a
    /// well-defined partial result.
    pub truncation: Option<TruncationReason>,
}

/// Runs a [`SyncAlgorithm`] on `(g, ports)` under a [`RunBudget`].
///
/// `ids` supplies identifiers (ID model), `orientation` the edge
/// directions (PO model) and `inputs` a per-node local input word; pass
/// `None` for anonymous/undirected/input-free runs.
///
/// The budget's round cap and deadline are checked before every round;
/// on exhaustion the result carries the states after the last completed
/// round and a [`TruncationReason`]. A budget without a round cap or
/// deadline does not terminate a never-halting algorithm — supply at
/// least one bound for untrusted algorithms (`RunBudget::unlimited()
/// .with_max_rounds(n)` runs at most `n` rounds).
///
/// # Errors
///
/// Returns a [`RunError`] when the algorithm needs model data the run
/// does not supply, when `ids` or `inputs` do not cover every node, or
/// when `ports`/`orientation` are inconsistent with `g`.
#[expect(
    clippy::indexing_slicing,
    reason = "ids/inputs are length-checked against n, states/inboxes are sized per vertex \
              and port at init, and bad ports return PortOutOfRange before indexing"
)]
pub fn run_sync_budgeted<A: SyncAlgorithm>(
    g: &Graph,
    ports: &PortNumbering,
    ids: Option<&[u64]>,
    orientation: Option<&Orientation>,
    inputs: Option<&[u64]>,
    algo: &A,
    budget: &RunBudget,
) -> Result<SimResult<A::State>, RunError> {
    let n = g.node_count();
    if ports.node_count() != n {
        return Err(RunError::InputLengthMismatch {
            what: "ports",
            expected: n,
            actual: ports.node_count(),
        }
        .publish());
    }
    if let Some(ids) = ids {
        if ids.len() != n {
            return Err(RunError::InputLengthMismatch {
                what: "ids",
                expected: n,
                actual: ids.len(),
            }
            .publish());
        }
    }
    if let Some(inputs) = inputs {
        if inputs.len() != n {
            return Err(RunError::InputLengthMismatch {
                what: "inputs",
                expected: n,
                actual: inputs.len(),
            }
            .publish());
        }
    }

    let mut states: Vec<A::State> = Vec::with_capacity(n);
    for v in 0..n {
        let port_out = match orientation {
            Some(o) => {
                let mut out = Vec::with_capacity(g.degree(v));
                for i in 0..g.degree(v) {
                    let u = port_neighbor(ports, v, i)?;
                    let (tail, _) = o
                        .directed(v, u)
                        .ok_or_else(|| RunError::UnorientedEdge { u: v, v: u }.publish())?;
                    out.push(tail == v);
                }
                Some(out)
            }
            None => None,
        };
        states.push(algo.init(&NodeCtx {
            degree: g.degree(v),
            id: ids.map(|ids| ids[v]),
            port_out,
            input: inputs.map(|inp| inp[v]),
        })?);
    }

    // inboxes[v][i] = message waiting at v's port i
    let mut inboxes: Vec<Vec<Option<A::Msg>>> = (0..n).map(|v| vec![None; g.degree(v)]).collect();
    let mut rounds = 0;
    let mut truncation = None;
    /// Counter of messages delivered across all simulator runs.
    const SIM_MESSAGES: &str = "sim/messages";
    let mut run_span = obs::span_with("sim/run", &[("nodes", n as i64)]);
    let msgs_total = obs::counter(SIM_MESSAGES);
    for round in 0.. {
        if states.iter().all(|s| algo.halted(s)) {
            break;
        }
        if let Some(t) = budget.check_rounds(round).or_else(|| budget.check_interrupt()) {
            truncation = Some(t.publish());
            break;
        }
        rounds = round + 1;
        let mut round_span = obs::span_with("sim/round", &[("round", round as i64)]);
        let mut messages = 0u64;
        let mut next_inboxes: Vec<Vec<Option<A::Msg>>> =
            (0..n).map(|v| vec![None; g.degree(v)]).collect();
        for v in 0..n {
            // frozen: a halted node's round function is not called and
            // its (empty) outbox sends nothing
            if algo.halted(&states[v]) {
                continue;
            }
            let mut outbox: Vec<Option<A::Msg>> = vec![None; g.degree(v)];
            let state = states[v].clone();
            states[v] = algo.round(state, round, &inboxes[v], &mut outbox);
            for (i, msg) in outbox.into_iter().enumerate() {
                if let Some(m) = msg {
                    let u = port_neighbor(ports, v, i)?;
                    let back = ports
                        .port_to(u, v)
                        .ok_or_else(|| RunError::MissingReversePort { from: v, to: u }.publish())?;
                    if u >= n || back >= next_inboxes[u].len() {
                        return Err(RunError::PortOutOfRange {
                            node: u,
                            port: back,
                            degree: next_inboxes.get(u).map_or(0, Vec::len),
                        }
                        .publish());
                    }
                    next_inboxes[u][back] = Some(m);
                    messages += 1;
                }
            }
        }
        inboxes = next_inboxes;
        msgs_total.add(messages);
        round_span.arg("messages", messages as i64);
    }
    let all_halted = states.iter().all(|s| algo.halted(s));
    run_span.arg("rounds", rounds as i64);
    Ok(SimResult { states, rounds, all_halted, truncation })
}

/// `ports.neighbor` with its two failure modes mapped to typed errors:
/// a port with no neighbour entry and a neighbour outside the graph.
fn port_neighbor(ports: &PortNumbering, v: usize, i: usize) -> Result<usize, RunError> {
    match ports.neighbor(v, i) {
        Some(u) if u < ports.node_count() => Ok(u),
        Some(u) => {
            Err(RunError::Graph(GraphError::NodeOutOfRange { node: u, n: ports.node_count() })
                .publish())
        }
        None => {
            Err(RunError::PortOutOfRange { node: v, port: i, degree: ports.ports(v).len() }
                .publish())
        }
    }
}

/// A gossip algorithm that floods identifiers for `r` rounds — used to
/// check that `r` rounds of message passing collect exactly the radius-`r`
/// ball (the locality principle of paper §2.2).
#[derive(Debug, Clone, Copy)]
pub struct GossipIds {
    /// Number of flooding rounds.
    pub rounds: usize,
}

/// State of [`GossipIds`]: identifiers heard so far.
#[derive(Debug, Clone)]
pub struct GossipState {
    /// Identifiers collected (sorted).
    pub heard: Vec<u64>,
    /// Rounds executed so far.
    pub step: usize,
    /// Total rounds to run.
    pub total: usize,
}

impl SyncAlgorithm for GossipIds {
    type State = GossipState;
    type Msg = Vec<u64>;

    fn init(&self, ctx: &NodeCtx) -> Result<GossipState, RunError> {
        Ok(GossipState { heard: vec![ctx.require_id()?], step: 0, total: self.rounds })
    }

    fn round(
        &self,
        mut state: GossipState,
        _round: usize,
        inbox: &[Option<Vec<u64>>],
        outbox: &mut [Option<Vec<u64>>],
    ) -> GossipState {
        for msg in inbox.iter().flatten() {
            for &x in msg {
                if !state.heard.contains(&x) {
                    state.heard.push(x);
                }
            }
        }
        state.heard.sort_unstable();
        if state.step < state.total {
            for slot in outbox.iter_mut() {
                *slot = Some(state.heard.clone());
            }
        }
        state.step += 1;
        state
    }

    fn halted(&self, state: &GossipState) -> bool {
        // one extra round to consume the final messages
        state.step > state.total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use locap_graph::canon::id_nbhd;
    use locap_graph::gen;

    /// A budget capping the run at `n` rounds.
    fn rounds(n: usize) -> RunBudget {
        RunBudget::unlimited().with_max_rounds(n)
    }

    #[test]
    fn gossip_collects_exactly_the_ball() {
        let g = gen::cycle(10);
        let ports = PortNumbering::sorted(&g);
        let ids: Vec<u64> = (0..10).map(|v| (v as u64) * 7 + 3).collect();
        for r in 0..4 {
            let res = run_sync_budgeted(
                &g,
                &ports,
                Some(&ids),
                None,
                None,
                &GossipIds { rounds: r },
                &rounds(100),
            )
            .expect("well-formed run");
            assert!(res.all_halted);
            assert_eq!(res.truncation, None);
            assert_eq!(res.rounds, r + 1, "r rounds of flooding + 1 to drain");
            for v in g.nodes() {
                let expected: Vec<u64> = {
                    let nb = id_nbhd(&g, &ids, v, r);
                    nb.ids.clone()
                };
                assert_eq!(res.states[v].heard, expected, "node {v}, radius {r}");
            }
        }
    }

    #[test]
    fn gossip_on_anonymous_run_is_a_typed_error() {
        let g = gen::cycle(6);
        let ports = PortNumbering::sorted(&g);
        let res =
            run_sync_budgeted(&g, &ports, None, None, None, &GossipIds { rounds: 2 }, &rounds(10));
        assert_eq!(res.unwrap_err(), RunError::MissingIds);
    }

    #[test]
    fn short_id_slice_is_a_typed_error() {
        let g = gen::cycle(6);
        let ports = PortNumbering::sorted(&g);
        let ids = vec![1u64, 2, 3]; // 3 < 6
        let res = run_sync_budgeted(
            &g,
            &ports,
            Some(&ids),
            None,
            None,
            &GossipIds { rounds: 1 },
            &rounds(10),
        );
        assert_eq!(
            res.unwrap_err(),
            RunError::InputLengthMismatch { what: "ids", expected: 6, actual: 3 }
        );
    }

    #[test]
    fn unoriented_edge_is_a_typed_error() {
        struct NeedsOrientation;
        impl SyncAlgorithm for NeedsOrientation {
            type State = usize;
            type Msg = ();
            fn init(&self, ctx: &NodeCtx) -> Result<usize, RunError> {
                Ok(ctx.require_port_out()?.len())
            }
            fn round(&self, s: usize, _: usize, _: &[Option<()>], _: &mut [Option<()>]) -> usize {
                s
            }
            fn halted(&self, _: &usize) -> bool {
                true
            }
        }
        let g = gen::cycle(5);
        let ports = PortNumbering::sorted(&g);
        // orientation built from a path on the same nodes: the closing
        // edge {0, 4} of the cycle is not oriented
        let orient = Orientation::from_smaller(&gen::path(5));
        let res =
            run_sync_budgeted(&g, &ports, None, Some(&orient), None, &NeedsOrientation, &rounds(5));
        assert!(matches!(res.unwrap_err(), RunError::UnorientedEdge { .. }));
    }

    #[test]
    fn mismatched_ports_are_a_typed_error() {
        let g = gen::cycle(6);
        let ports = PortNumbering::sorted(&gen::cycle(4)); // wrong node count
        let ids: Vec<u64> = (0..6).collect();
        let res = run_sync_budgeted(
            &g,
            &ports,
            Some(&ids),
            None,
            None,
            &GossipIds { rounds: 1 },
            &rounds(10),
        );
        assert_eq!(
            res.unwrap_err(),
            RunError::InputLengthMismatch { what: "ports", expected: 6, actual: 4 }
        );
    }

    #[test]
    fn orientation_reaches_nodes() {
        // An algorithm that outputs its out-degree via port_out.
        struct OutDeg;
        impl SyncAlgorithm for OutDeg {
            type State = usize;
            type Msg = ();
            fn init(&self, ctx: &NodeCtx) -> Result<usize, RunError> {
                Ok(ctx.require_port_out()?.iter().filter(|&&b| b).count())
            }
            fn round(&self, s: usize, _: usize, _: &[Option<()>], _: &mut [Option<()>]) -> usize {
                s
            }
            fn halted(&self, _: &usize) -> bool {
                true
            }
        }
        let g = gen::path(3);
        let ports = PortNumbering::sorted(&g);
        let orient = Orientation::from_smaller(&g);
        let res = run_sync_budgeted(&g, &ports, None, Some(&orient), None, &OutDeg, &rounds(10))
            .expect("well-formed run");
        assert_eq!(res.states, vec![1, 1, 0]); // 0->1, 1->2
        assert!(res.all_halted);
        assert_eq!(res.rounds, 0, "everyone halts immediately");
    }

    #[test]
    fn max_rounds_caps_execution() {
        struct Forever;
        impl SyncAlgorithm for Forever {
            type State = u32;
            type Msg = ();
            fn init(&self, _: &NodeCtx) -> Result<u32, RunError> {
                Ok(0)
            }
            fn round(&self, s: u32, _: usize, _: &[Option<()>], _: &mut [Option<()>]) -> u32 {
                s + 1
            }
            fn halted(&self, _: &u32) -> bool {
                false
            }
        }
        let g = gen::cycle(4);
        let ports = PortNumbering::sorted(&g);
        let res = run_sync_budgeted(&g, &ports, None, None, None, &Forever, &rounds(17))
            .expect("well-formed run");
        assert_eq!(res.rounds, 17);
        assert!(!res.all_halted);
        assert_eq!(res.truncation, Some(TruncationReason::RoundLimit { limit: 17 }));
        assert!(res.states.iter().all(|&s| s == 17));
    }

    #[test]
    fn deadline_budget_returns_partial_states() {
        use locap_graph::budget::ManualClock;
        use std::sync::Arc;
        use std::time::Duration;

        struct Ticker(Arc<ManualClock>);
        impl SyncAlgorithm for Ticker {
            type State = u32;
            type Msg = ();
            fn init(&self, _: &NodeCtx) -> Result<u32, RunError> {
                Ok(0)
            }
            fn round(&self, s: u32, _: usize, _: &[Option<()>], _: &mut [Option<()>]) -> u32 {
                self.0.advance(Duration::from_millis(4));
                s + 1
            }
            fn halted(&self, _: &u32) -> bool {
                false
            }
        }
        let g = gen::cycle(3);
        let ports = PortNumbering::sorted(&g);
        let clock = Arc::new(ManualClock::new());
        let budget = RunBudget::unlimited()
            .with_deadline(Duration::from_millis(20), Arc::clone(&clock) as _);
        let res =
            run_sync_budgeted(&g, &ports, None, None, None, &Ticker(Arc::clone(&clock)), &budget)
                .expect("well-formed run");
        // each round advances the clock 3 × 4 ms; the deadline trips
        // after round 2 (24 ms > 20 ms), leaving 2 completed rounds
        assert_eq!(res.rounds, 2);
        assert!(!res.all_halted);
        assert!(matches!(res.truncation, Some(TruncationReason::DeadlineExceeded { .. })));
        assert!(res.states.iter().all(|&s| s == 2), "states after the last completed round");
    }

    #[test]
    fn halted_nodes_freeze_while_neighbours_continue() {
        // Every node sends its id on all ports every round it runs and
        // halts once its step count reaches its input. On a path with
        // inputs [1, 3, 3], node 0 halts after one round; under the
        // halted contract node 1 must hear from it exactly once, while
        // still hearing from node 2 in every consumed round.
        struct HaltAt;
        #[derive(Clone)]
        struct St {
            id: u64,
            stop: u64,
            step: u64,
            got: Vec<(usize, u64)>,
        }
        impl SyncAlgorithm for HaltAt {
            type State = St;
            type Msg = u64;
            fn init(&self, ctx: &NodeCtx) -> Result<St, RunError> {
                Ok(St { id: ctx.require_id()?, stop: ctx.require_input()?, step: 0, got: vec![] })
            }
            fn round(
                &self,
                mut s: St,
                _: usize,
                inbox: &[Option<u64>],
                outbox: &mut [Option<u64>],
            ) -> St {
                for (i, m) in inbox.iter().enumerate() {
                    if let Some(x) = m {
                        s.got.push((i, *x));
                    }
                }
                for slot in outbox.iter_mut() {
                    *slot = Some(s.id);
                }
                s.step += 1;
                s
            }
            fn halted(&self, s: &St) -> bool {
                s.step >= s.stop
            }
        }
        let g = gen::path(3); // 0-1-2
        let ports = PortNumbering::sorted(&g);
        let ids = vec![10u64, 20, 30];
        let inputs = vec![1u64, 3, 3];
        let res =
            run_sync_budgeted(&g, &ports, Some(&ids), None, Some(&inputs), &HaltAt, &rounds(10))
                .expect("well-formed run");
        assert!(res.all_halted);
        assert_eq!(res.rounds, 3);
        // node 0 halted after round 0: node 1 hears 10 once (round 1),
        // not in round 2 — a frozen node sends no further messages
        let from_0: Vec<_> = res.states[1].got.iter().filter(|(p, _)| *p == 0).collect();
        assert_eq!(from_0.len(), 1, "exactly one message from the halted node");
        // node 2 ran rounds 0 and 1 before halting at step 2... it stops
        // at step >= 3, so it sends in rounds 0, 1, 2; node 1 consumes
        // inboxes in rounds 1 and 2 only (it halts before round 3)
        let from_2: Vec<_> = res.states[1].got.iter().filter(|(p, _)| *p == 1).collect();
        assert_eq!(from_2.len(), 2);
        // the frozen node's own state is untouched after halting
        assert_eq!(res.states[0].step, 1);
    }

    #[test]
    fn messages_route_through_correct_ports() {
        // Each node sends its id on port 0 only; the receiver records
        // (port, value). Check the port-to-port delivery rule.
        struct PortEcho;
        #[derive(Clone, Debug, PartialEq)]
        struct St {
            id: u64,
            got: Vec<(usize, u64)>,
            step: usize,
        }
        impl SyncAlgorithm for PortEcho {
            type State = St;
            type Msg = u64;
            fn init(&self, ctx: &NodeCtx) -> Result<St, RunError> {
                Ok(St { id: ctx.require_id()?, got: vec![], step: 0 })
            }
            fn round(
                &self,
                mut s: St,
                _: usize,
                inbox: &[Option<u64>],
                outbox: &mut [Option<u64>],
            ) -> St {
                for (i, m) in inbox.iter().enumerate() {
                    if let Some(x) = m {
                        s.got.push((i, *x));
                    }
                }
                if s.step == 0 && !outbox.is_empty() {
                    outbox[0] = Some(s.id);
                }
                s.step += 1;
                s
            }
            fn halted(&self, s: &St) -> bool {
                s.step >= 2
            }
        }
        let g = gen::path(3); // 0-1-2
        let ports = PortNumbering::sorted(&g);
        let ids = vec![100, 200, 300];
        let res = run_sync_budgeted(&g, &ports, Some(&ids), None, None, &PortEcho, &rounds(10))
            .expect("well-formed run");
        // node 0 port 0 -> node 1; node 1 port 0 -> node 0; node 2 port 0 -> node 1
        // deliveries: node 1 gets 100 on its port to 0 (port 0) and 300 on
        // its port to 2 (port 1); node 0 gets 200 on port 0.
        assert_eq!(res.states[0].got, vec![(0, 200)]);
        assert_eq!(res.states[1].got, vec![(0, 100), (1, 300)]);
        assert!(res.states[2].got.is_empty());

        // the same ID-model algorithm on an anonymous run: typed error
        let res = run_sync_budgeted(&g, &ports, None, None, None, &PortEcho, &rounds(10));
        assert_eq!(res.unwrap_err(), RunError::MissingIds);
    }
}
