//! E07 — Theorem 3.2 / §5: homogeneous graphs of large girth.
//!
//! Constructs the wreath-product Cayley graphs for a grid of (k, r, m),
//! reporting for each: the group, the generators found, the verified
//! girth bound, the exact homogeneity census vs the inner-box bound
//! ((m−2r)/m)^d, and that τ* is independent of m (the "independent of ε"
//! clause of the theorem).

use locap_bench::{cells, hprintln, timed, Table};
use locap_core::homogeneous::{construct_budgeted, construct_for_epsilon};
use locap_graph::budget::RunBudget;
use locap_num::Ratio;

fn main() {
    locap_bench::run(
        "e07_homogeneous",
        "E07",
        "Thm 3.2 — (1−ε, r)-homogeneous 2k-regular graphs, girth > 2r+1",
        body,
    );
}

fn body() {
    hprintln!();
    let mut t = Table::new(&[
        "k",
        "r",
        "m",
        "level",
        "n",
        "girth>",
        "gens",
        "census α",
        "bound ((m−2r)/m)^d",
        "time",
    ]);
    let mut tau_consistency = Vec::new();
    let ((), total) = timed(|| {
        for (k, r, ms) in [
            (1usize, 1usize, vec![6u64, 10, 16, 24, 32]),
            (2, 1, vec![6, 10, 16, 20]),
            (1, 2, vec![8, 12, 20, 24]),
            (2, 2, vec![12, 16, 20]),
        ] {
            let mut taus = Vec::new();
            for &m in &ms {
                let (result, dt) = timed(|| construct_budgeted(k, r, m, &RunBudget::unlimited()));
                match result {
                    Ok(h) => {
                        t.row(&cells([
                            &k,
                            &r,
                            &m,
                            &h.level,
                            &h.node_count(),
                            &(2 * r + 1),
                            &format!("{:?}", h.gens),
                            &format!("{} ≈ {:.4}", h.fraction(), h.fraction().to_f64()),
                            &format!("{} ≈ {:.4}", h.inner_bound(), h.inner_bound().to_f64()),
                            &format!("{dt:.2?}"),
                        ]));
                        taus.push(h.tau_star.clone());
                    }
                    Err(e) => {
                        t.row(&cells([
                            &k,
                            &r,
                            &m,
                            &"-",
                            &"-",
                            &(2 * r + 1),
                            &format!("FAILED: {e}"),
                            &"-",
                            &"-",
                            &format!("{dt:.2?}"),
                        ]));
                    }
                }
            }
            let consistent = taus.windows(2).all(|w| w[0] == w[1]);
            tau_consistency.push((k, r, consistent));
        }
    });
    t.print();
    hprintln!("\ntotal construction+census wall time: {total:.2?}");

    hprintln!("\nτ* independence of ε (same type for every m):");
    for (k, r, ok) in tau_consistency {
        hprintln!("  k={k}, r={r}: {}", if ok { "CONSISTENT" } else { "MISMATCH" });
    }

    hprintln!("\n\"for every ε\" form — smallest m with bound ≥ 1−ε (level 2):\n");
    let mut t = Table::new(&["k", "r", "ε", "chosen m", "n", "census α"]);
    for (k, r, num, den) in [(1usize, 1usize, 1i128, 4i128), (1, 1, 1, 10), (2, 1, 1, 4)] {
        let eps = Ratio::new(num, den).unwrap();
        match construct_for_epsilon(k, r, eps) {
            Ok(h) => t.row(&cells([
                &k,
                &r,
                &eps,
                &h.modulus,
                &h.node_count(),
                &format!("{:.4}", h.fraction().to_f64()),
            ])),
            Err(e) => t.row(&cells([&k, &r, &eps, &"-", &"-", &format!("FAILED: {e}")])),
        };
    }
    t.print();
}
