//! The one exact search behind every `solve_exact`: a branch and bound
//! over `u128` vertex masks.
//!
//! An instance is two lists of vertex masks, *picks* and *needs*. A set of
//! picks meets a need when their union shares a vertex with it, and
//! [`min_picks`] finds the fewest picks that meet every need:
//!
//! | problem | picks | needs | cap |
//! |---|---|---|---|
//! | vertex cover | vertices | edges | Δ |
//! | dominating set | vertices | closed neighbourhoods | Δ + 1 |
//! | edge dominating set | edges | edges | 2Δ − 1 |
//! | edge cover | edges | non-isolated vertices | 2 |
//!
//! Independent set and maximum matching are read off the first and the
//! last row: α = n − τ, and a minimum edge cover is a star forest with
//! ν stars on the non-isolated nodes.
//!
//! A node branches on its first unmet need, over the picks that meet it in
//! list order; each branch leaves out the picks of the branches before it,
//! whose solutions those have searched, so no solution is reached twice.
//! A node is pruned when `picked + ⌈unmet / cap⌉` reaches the best size
//! found so far: `cap` is the most needs one pick can meet, given by each
//! problem in closed form. The search starts from the size of a feasible
//! incumbent (the problem's greedy solution), keeps the picks and the
//! left-out picks on reused stacks and copies the picks only when they
//! improve, so a node allocates nothing.

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

use locap_graph::{Graph, NodeId};

use crate::MAX_EXACT_NODES;

/// What [`min_picks`] found.
pub(crate) struct Found {
    /// Indices into the pick list of a minimum solution, or `None` when
    /// no solution is smaller than the incumbent.
    pub(crate) picks: Option<Vec<usize>>,
    /// Search nodes entered, the root included.
    pub(crate) nodes: u64,
}

/// The fewest picks whose union meets every need, if fewer than
/// `incumbent` (the size of a known solution) do. `cap` must bound the
/// number of needs any one pick meets.
pub(crate) fn min_picks(picks: &[u128], needs: &[u128], cap: usize, incumbent: usize) -> Found {
    let mut s = Search {
        picks,
        needs,
        cap: cap.max(1),
        bound: incumbent,
        stack: Vec::with_capacity(incumbent),
        best: None,
        banned: vec![false; picks.len()],
        bans: Vec::with_capacity(picks.len()),
        nodes: 0,
    };
    s.descend(0);
    Found { picks: s.best, nodes: s.nodes }
}

/// One `u128` vertex mask per item: the bits of the nodes `nodes(item)`
/// yields.
///
/// # Panics
///
/// Panics if `g` has more than [`MAX_EXACT_NODES`] nodes: this is the
/// exact solvers' one size check.
pub(crate) fn masks<T, N>(
    g: &Graph,
    items: impl IntoIterator<Item = T>,
    nodes: impl Fn(T) -> N,
) -> Vec<u128>
where
    N: IntoIterator<Item = NodeId>,
{
    assert!(
        g.node_count() <= MAX_EXACT_NODES,
        "exact solver supports at most {MAX_EXACT_NODES} nodes"
    );
    items
        .into_iter()
        .map(|x| nodes(x).into_iter().fold(0, |m, v| m | 1u128 << v))
        .collect()
}

struct Search<'a> {
    picks: &'a [u128],
    needs: &'a [u128],
    cap: usize,
    /// Size of the best solution so far; only smaller ones are searched.
    bound: usize,
    stack: Vec<usize>,
    best: Option<Vec<usize>>,
    /// Picks left out below the current node: an earlier branch, here or
    /// at an ancestor, has searched every solution that holds them.
    banned: Vec<bool>,
    /// The indices set in `banned`, in the order they were set.
    bans: Vec<usize>,
    nodes: u64,
}

impl Search<'_> {
    /// Searches below the node whose picks (on the stack) cover `met`.
    fn descend(&mut self, met: u128) {
        self.nodes += 1;
        let mut unmet = 0;
        let mut first = 0;
        for &need in self.needs {
            if need & met == 0 {
                if unmet == 0 {
                    first = need;
                }
                unmet += 1;
            }
        }
        let floor = self.stack.len() + usize::div_ceil(unmet, self.cap);
        if floor >= self.bound {
            return;
        }
        if unmet == 0 {
            let best = self.best.get_or_insert_with(Vec::new);
            best.clear();
            best.extend_from_slice(&self.stack);
            self.bound = self.stack.len();
            return;
        }
        let mark = self.bans.len();
        for (i, &pick) in self.picks.iter().enumerate() {
            if pick & first == 0 || self.banned.get(i) != Some(&false) {
                continue;
            }
            self.stack.push(i);
            self.descend(met | pick);
            self.stack.pop();
            if floor >= self.bound {
                break;
            }
            // every solution below this node that holds pick i has been
            // searched, so the later branches leave it out
            if let Some(b) = self.banned.get_mut(i) {
                *b = true;
                self.bans.push(i);
            }
        }
        for i in self.bans.drain(mark..) {
            if let Some(b) = self.banned.get_mut(i) {
                *b = false;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_the_incumbent_when_nothing_is_smaller() {
        // a triangle's edges as needs, its vertices as picks: τ = 2
        let picks = [0b001, 0b010, 0b100];
        let needs = [0b011, 0b110, 0b101];
        let none = min_picks(&picks, &needs, 2, 2);
        assert_eq!(none.picks, None);
        let found = min_picks(&picks, &needs, 2, 3);
        assert_eq!(found.picks, Some(vec![0, 1]));
    }
}
