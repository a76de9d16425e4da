//! E06 — Fig. 6: homogeneous orders.
//!
//! (a) A fragment of the 4-regular ordered infinite tree is
//!     (1, r)-homogeneous — approximated here by the large-girth Cayley
//!     graphs of E07; we print the locally-tree-like census instead.
//! (b) The 6×6 toroidal grid with the lexicographic order: the paper
//!     states it is (4/9, 1)- and (1/9, 2)-homogeneous. We reproduce the
//!     exact fractions by a full ordered-type census.

use locap_bench::{cells, hprintln, Table};
use locap_graph::canon::ordered_ltype_census;
use locap_graph::product::toroidal;
use locap_num::Ratio;

fn main() {
    locap_bench::run(
        "e06_toroidal",
        "E06",
        "Fig. 6b — toroidal grids are homogeneous (exact census)",
        body,
    );
}

fn body() {
    hprintln!("\n6×6 torus (cartesian product of two directed 6-cycles),");
    hprintln!("lexicographic order 11 < 12 < … < 66 (paper's Fig. 6b):\n");

    let mut t = Table::new(&["k", "m", "r", "largest class", "n", "fraction", "paper"]);
    for (k, m, r, paper) in [
        (2usize, 6usize, 1usize, "4/9"),
        (2, 6, 2, "1/9"),
        (2, 8, 1, "9/16"),
        (2, 10, 1, "16/25"),
        (3, 6, 1, "8/27"),
    ] {
        let d = toroidal(k, m);
        let rank: Vec<usize> = (0..d.node_count()).collect(); // lexicographic
        let census = ordered_ltype_census(&d, &rank, r);
        let largest = census[0].1;
        let n = d.node_count();
        let frac = Ratio::new(largest as i128, n as i128).unwrap();
        t.row(&cells([&k, &m, &r, &largest, &n, &frac, &paper]));
    }
    t.print();

    hprintln!("\nThe k=2, m=6 rows reproduce the paper's exact figures:");
    hprintln!("  (4/9, 1)-homogeneous and (1/9, 2)-homogeneous.");
    hprintln!("In general the fraction is ((m−2r)/m)^k — the inner box whose");
    hprintln!("radius-r neighbourhood avoids the lexicographic seam.");

    hprintln!("\nGirth check (P3 fails for tori, motivating Thm 3.2):");
    let d = toroidal(2, 6);
    hprintln!(
        "  girth(6×6 torus) = {:?} (< 2r+2 already at r = 1)",
        d.underlying().unwrap().girth()
    );
}
