//! E13 — §5.2: why the construction needs groups of polynomial growth.
//!
//! The paper: "to implement our strategy, we should choose U to be a
//! Cayley graph of (a group of) polynomial growth" — the free group's
//! exponential growth would leave every finite cut with a constant-
//! fraction boundary. We tabulate exact ball sizes of U₂/U₃ against the
//! free-group tree and the box cap (2r+1)^d of Eq. (2).

use locap_bench::{cells, hprintln, Table};
use locap_groups::growth::{ball_sizes, box_cap, free_ball_size, growth_exponents};
use locap_groups::IterGroup;

fn main() {
    locap_bench::run(
        "e13_growth",
        "E13",
        "§5.2 — polynomial growth of U vs exponential growth of the free group",
        body,
    );
}

fn body() {
    hprintln!("\nball sizes |B(1, r)|, k = 2 generators:\n");
    let u2 = IterGroup::infinite(2).unwrap();
    let gens2 = vec![vec![1i64, 0, 0], vec![0, 0, 1]];
    let sizes2 = ball_sizes(&u2, &gens2, 8);

    let u3 = IterGroup::infinite(3).unwrap();
    let gens3 = vec![vec![1i64, 0, 0, 0, 0, 0, 0], vec![0, 0, 0, 0, 0, 0, 1]];
    let sizes3 = ball_sizes(&u3, &gens3, 6);

    let mut t =
        Table::new(&["r", "U₂ (d=3)", "cap (2r+1)³", "U₃ (d=7)", "cap (2r+1)⁷", "free F₂ (tree)"]);
    for r in 0..=8usize {
        t.row(&cells([
            &r,
            &sizes2.get(r).map(|s| s.to_string()).unwrap_or_default(),
            &box_cap(3, r),
            &sizes3.get(r).map(|s| s.to_string()).unwrap_or_default(),
            &box_cap(7, r),
            &free_ball_size(2, r),
        ]));
    }
    t.print();

    hprintln!("\nempirical growth exponents (≈ constant d for polynomial growth):");
    hprintln!(
        "  U₂: {:?}",
        growth_exponents(&sizes2)
            .iter()
            .map(|x| (x * 100.0).round() / 100.0)
            .collect::<Vec<_>>()
    );
    hprintln!(
        "  U₃: {:?}",
        growth_exponents(&sizes3)
            .iter()
            .map(|x| (x * 100.0).round() / 100.0)
            .collect::<Vec<_>>()
    );

    hprintln!("\nconsequence (the paper's cut argument): cutting U down to the box");
    hprintln!("[0, m)^d leaves boundary fraction 1 − ((m−2r)/m)^d → 0, which is");
    hprintln!("impossible in the free group where |B(r)| grows like 3^r.");
}
