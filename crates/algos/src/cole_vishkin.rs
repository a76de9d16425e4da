//! Cole–Vishkin colour reduction and MIS on directed cycles (ID model).
//!
//! The classical O(log* n) pipeline on a consistently oriented cycle:
//!
//! 1. **Bit reduction** ([`ColorReduce`]): treat identifiers as colours;
//!    each round a node compares its colour with its predecessor's and
//!    re-colours to `2i + bit_i`, where `i` is the lowest differing bit.
//!    Colours with `b` bits drop to `2⌈log b⌉`-ish bits per round, reaching
//!    the fixed point `{0,…,5}` after log* many rounds.
//! 2. **Six-to-three** ([`SixToThree`]): three shift rounds eliminate
//!    colours 5, 4, 3.
//! 3. **MIS from colours** ([`MisFromColors`]): three sweeps, one per
//!    colour class.
//!
//! The measured round count of step 1 grows like log* n — the experiment
//! behind Fig. 2 / §6.2 ("dependence on n").

use std::collections::BTreeSet;

use locap_graph::budget::RunBudget;
use locap_graph::{gen, Graph, NodeId, Orientation, PortNumbering};
use locap_models::sim::{run_sync_budgeted, NodeCtx, SyncAlgorithm};
use locap_models::RunError;

/// One Cole–Vishkin step: the new colour of a node with colour `own` whose
/// predecessor has colour `pred` (`own != pred`).
pub fn cv_step(pred: u64, own: u64) -> u64 {
    let diff = pred ^ own;
    debug_assert!(diff != 0, "proper colouring required");
    let i = diff.trailing_zeros() as u64;
    2 * i + ((own >> i) & 1)
}

/// Builds the consistent orientation of the cycle `0 → 1 → … → n−1 → 0`.
pub fn cycle_orientation(g: &Graph) -> Orientation {
    let n = g.node_count();
    Orientation::from_fn(g, |e| {
        // edge {v, v+1} points v -> v+1; the wrap edge {0, n-1} points
        // n-1 -> 0, i.e. *not* towards the larger endpoint.
        !(e.u == 0 && e.v == n - 1)
    })
}

/// Synchronous colour-reduction algorithm: runs exactly `rounds` CV steps.
#[derive(Debug, Clone, Copy)]
pub struct ColorReduce {
    /// Number of CV steps to run.
    pub rounds: usize,
}

/// State of [`ColorReduce`].
#[derive(Debug, Clone)]
pub struct CrState {
    /// Current colour.
    pub color: u64,
    step: usize,
    total: usize,
    /// Port towards the predecessor (the incoming edge).
    pred_port: usize,
    /// Port towards the successor (the outgoing edge).
    succ_port: usize,
}

impl SyncAlgorithm for ColorReduce {
    type State = CrState;
    type Msg = u64;

    fn init(&self, ctx: &NodeCtx) -> Result<CrState, RunError> {
        let color = ctx.require_id()?;
        let port_out = ctx.require_port_out()?;
        if ctx.degree != 2 {
            return Err(RunError::Unsupported {
                reason: format!("ColorReduce runs on cycles; found a degree-{} node", ctx.degree),
            }
            .publish());
        }
        let (succ, pred) = (port_out.iter().position(|&b| b), port_out.iter().position(|&b| !b));
        let (Some(succ_port), Some(pred_port)) = (succ, pred) else {
            return Err(RunError::Unsupported {
                reason: "ColorReduce needs a consistent cycle orientation \
                         (one incoming and one outgoing edge per node)"
                    .to_string(),
            }
            .publish());
        };
        Ok(CrState { color, step: 0, total: self.rounds, pred_port, succ_port })
    }

    fn round(
        &self,
        mut s: CrState,
        _round: usize,
        inbox: &[Option<u64>],
        outbox: &mut [Option<u64>],
    ) -> CrState {
        if let Some(pred_color) = inbox[s.pred_port] {
            s.color = cv_step(pred_color, s.color);
        }
        if s.step < s.total {
            outbox[s.succ_port] = Some(s.color);
        }
        s.step += 1;
        s
    }

    fn halted(&self, s: &CrState) -> bool {
        s.step > s.total
    }
}

/// Runs `rounds` CV steps on the cycle; returns the colours.
///
/// # Errors
///
/// Propagates the simulator's [`RunError`] — in practice only for
/// malformed inputs (short `ids`, non-cycle graphs).
pub fn color_reduce(g: &Graph, ids: &[u64], rounds: usize) -> Result<Vec<u64>, RunError> {
    let ports = PortNumbering::sorted(g);
    let orient = cycle_orientation(g);
    let budget = RunBudget::unlimited().with_max_rounds(rounds + 2);
    let algo = ColorReduce { rounds };
    let res = run_sync_budgeted(g, &ports, Some(ids), Some(&orient), None, &algo, &budget)?;
    debug_assert!(res.all_halted);
    Ok(res.states.into_iter().map(|s| s.color).collect())
}

/// The number of CV steps needed to bring all colours below 6 — the
/// measured log*-like quantity.
///
/// # Errors
///
/// Propagates [`RunError`] from [`color_reduce`].
pub fn rounds_to_six_colors(g: &Graph, ids: &[u64]) -> Result<usize, RunError> {
    for rounds in 0..64 {
        let colors = color_reduce(g, ids, rounds)?;
        if colors.iter().all(|&c| c < 6) {
            return Ok(rounds);
        }
    }
    unreachable!("colour reduction from 64-bit identifiers needs < 64 rounds")
}

/// Shift rounds removing colours 5, 4, 3 (input: proper colouring < 6).
#[derive(Debug, Clone, Copy)]
pub struct SixToThree;

/// State of [`SixToThree`].
#[derive(Debug, Clone)]
pub struct S23State {
    /// Current colour.
    pub color: u64,
    step: usize,
}

impl SyncAlgorithm for SixToThree {
    type State = S23State;
    type Msg = u64;

    fn init(&self, ctx: &NodeCtx) -> Result<S23State, RunError> {
        Ok(S23State { color: ctx.require_input()?, step: 0 })
    }

    fn round(
        &self,
        mut s: S23State,
        _round: usize,
        inbox: &[Option<u64>],
        outbox: &mut [Option<u64>],
    ) -> S23State {
        let nbr: Vec<u64> = inbox.iter().flatten().copied().collect();
        if !nbr.is_empty() {
            let target = 5 - (s.step as u64 - 1); // steps 1,2,3 remove 5,4,3
            if s.color == target {
                s.color = (0..3).find(|c| !nbr.contains(c)).expect("degree 2 leaves a free colour");
            }
        }
        if s.step < 3 {
            for slot in outbox.iter_mut() {
                *slot = Some(s.color);
            }
        }
        s.step += 1;
        s
    }

    fn halted(&self, s: &S23State) -> bool {
        s.step > 3
    }
}

/// MIS sweeps: colour class `c` joins in round `c` unless a neighbour
/// already joined (input: proper 3-colouring).
#[derive(Debug, Clone, Copy)]
pub struct MisFromColors;

/// State of [`MisFromColors`].
#[derive(Debug, Clone)]
pub struct MisState {
    color: u64,
    /// Whether the node joined the independent set.
    pub in_mis: bool,
    blocked: bool,
    step: usize,
}

impl SyncAlgorithm for MisFromColors {
    type State = MisState;
    type Msg = bool;

    fn init(&self, ctx: &NodeCtx) -> Result<MisState, RunError> {
        Ok(MisState { color: ctx.require_input()?, in_mis: false, blocked: false, step: 0 })
    }

    fn round(
        &self,
        mut s: MisState,
        _round: usize,
        inbox: &[Option<bool>],
        outbox: &mut [Option<bool>],
    ) -> MisState {
        if inbox.iter().flatten().any(|&joined| joined) {
            s.blocked = true;
        }
        let joined_now = s.step < 3 && s.color == s.step as u64 && !s.blocked && !s.in_mis;
        if joined_now {
            s.in_mis = true;
        }
        if s.step < 3 {
            for slot in outbox.iter_mut() {
                *slot = Some(joined_now);
            }
        }
        s.step += 1;
        s
    }

    fn halted(&self, s: &MisState) -> bool {
        s.step > 3
    }
}

/// Result of the full Cole–Vishkin MIS pipeline.
#[derive(Debug, Clone)]
pub struct CycleMis {
    /// The independent set found.
    pub mis: BTreeSet<NodeId>,
    /// CV reduction rounds used (the log*-like part).
    pub reduction_rounds: usize,
    /// Total rounds including the constant-round phases.
    pub total_rounds: usize,
}

/// Runs the full pipeline (colour reduction → 3-colouring → MIS) on the
/// cycle `0–1–…–(n−1)–0` with the given identifiers.
///
/// # Errors
///
/// [`RunError::Unsupported`] when `g` is not a cycle on ≥ 3 nodes;
/// otherwise propagates the simulator's errors (e.g. short `ids`).
///
/// # Panics
///
/// Panics if identifiers repeat (the CV invariant `own != pred` breaks).
pub fn cycle_mis(g: &Graph, ids: &[u64]) -> Result<CycleMis, RunError> {
    if !(g.is_regular(2) && g.is_connected()) {
        return Err(RunError::Unsupported {
            reason: "cycle_mis requires a connected 2-regular graph".to_string(),
        }
        .publish());
    }
    let ports = PortNumbering::sorted(g);

    let reduction_rounds = rounds_to_six_colors(g, ids)?;
    let colors = color_reduce(g, ids, reduction_rounds)?;
    assert_proper(g, &colors);

    let budget = RunBudget::unlimited().with_max_rounds(10);
    let res = run_sync_budgeted(g, &ports, None, None, Some(&colors), &SixToThree, &budget)?;
    debug_assert!(res.all_halted);
    let colors3: Vec<u64> = res.states.iter().map(|s| s.color).collect();
    assert!(colors3.iter().all(|&c| c < 3));
    assert_proper(g, &colors3);
    let r2 = res.rounds;

    let res = run_sync_budgeted(g, &ports, None, None, Some(&colors3), &MisFromColors, &budget)?;
    debug_assert!(res.all_halted);
    let mis: BTreeSet<NodeId> = res
        .states
        .iter()
        .enumerate()
        .filter_map(|(v, s)| s.in_mis.then_some(v))
        .collect();
    Ok(CycleMis { mis, reduction_rounds, total_rounds: reduction_rounds + r2 + res.rounds })
}

fn assert_proper(g: &Graph, colors: &[u64]) {
    for e in g.edges() {
        assert_ne!(colors[e.u], colors[e.v], "colouring must be proper on {e:?}");
    }
}

/// Convenience: MIS on the `n`-cycle with identifiers `ids` (defaults to a
/// scrambled-but-deterministic assignment when `None`).
///
/// # Errors
///
/// Same conditions as [`cycle_mis`].
pub fn cycle_mis_n(n: usize, ids: Option<Vec<u64>>) -> Result<CycleMis, RunError> {
    let g = gen::cycle(n);
    let ids = ids.unwrap_or_else(|| {
        (0..n as u64)
            .map(|v| v.wrapping_mul(0x9E3779B97F4A7C15).rotate_left(17) | 1)
            .collect()
    });
    cycle_mis(&g, &ids)
}

#[cfg(test)]
mod tests {
    use super::*;
    use locap_problems::independent_set;

    #[test]
    // expected values spelled as 2·index + bit, the CV encoding
    #[allow(clippy::identity_op, clippy::erasing_op)]
    fn cv_step_properties() {
        // differing at bit 0
        assert_eq!(cv_step(0b1010, 0b1011), 2 * 0 + 1);
        // differing first at bit 2
        assert_eq!(cv_step(0b0011, 0b0111), 2 * 2 + 1);
        assert_eq!(cv_step(0b0111, 0b0011), 2 * 2 + 0);
    }

    #[test]
    fn cv_step_preserves_properness() {
        // For any a != b != c: cv(a,b) != cv(b,c) — the CV invariant.
        for a in 0..32u64 {
            for b in 0..32u64 {
                for c in 0..32u64 {
                    if a != b && b != c {
                        assert_ne!(cv_step(a, b), cv_step(b, c), "a={a} b={b} c={c}");
                    }
                }
            }
        }
    }

    #[test]
    fn full_pipeline_produces_mis() {
        for n in [3usize, 4, 5, 8, 13, 32, 100] {
            let out = cycle_mis_n(n, None).unwrap();
            let g = gen::cycle(n);
            // independent
            let set = out.mis.clone();
            assert!(independent_set::feasible(&g, &set), "n={n}");
            // maximal: every node in MIS or adjacent to it
            for v in g.nodes() {
                assert!(
                    set.contains(&v) || g.neighbors(v).iter().any(|u| set.contains(u)),
                    "n={n}, node {v} not dominated"
                );
            }
            assert!(!set.is_empty());
        }
    }

    #[test]
    fn reduction_rounds_grow_slowly() {
        // log*-like growth: even with 64-bit identifiers the reduction takes
        // at most 5 steps, and small cycles need no more than large ones + 2.
        let small = cycle_mis_n(8, None).unwrap().reduction_rounds;
        let large = cycle_mis_n(512, None).unwrap().reduction_rounds;
        assert!(small <= 5, "small: {small}");
        assert!(large <= 5, "large: {large}");
    }

    #[test]
    fn sequential_ids_need_one_round() {
        // ids 1..n differ in low bits: still proper after 1-2 rounds.
        let g = gen::cycle(10);
        let ids: Vec<u64> = (1..=10).collect();
        let r = rounds_to_six_colors(&g, &ids).unwrap();
        assert!(r <= 3, "got {r}");
        let out = cycle_mis(&g, &ids).unwrap();
        assert!(independent_set::feasible(&g, &out.mis));
    }

    #[test]
    fn orientation_is_consistent() {
        let g = gen::cycle(6);
        let o = cycle_orientation(&g);
        // every node has exactly one outgoing edge
        let mut out_deg = vec![0; 6];
        for (t, _h) in o.directed_edges() {
            out_deg[t] += 1;
        }
        assert_eq!(out_deg, vec![1; 6]);
    }
}
