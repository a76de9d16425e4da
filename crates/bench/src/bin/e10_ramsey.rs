//! E10 — §4.2: the Ramsey ID → OI step, run exactly on cycles.
//!
//! Colours t-subsets of a concrete identifier universe by the behaviour of
//! an ID algorithm (the `ramsey` pipeline's `local-max`, `even-id` and
//! `sum-mod3`) on the order-homogeneous path ball, finds a monochromatic
//! set J, derives the OI algorithm B, and verifies that the ID algorithm
//! agrees with B on every identifier window drawn from J.

use locap_bench::{cells, hprintln, Table};
use locap_core::ramsey::{ramsey_cycle_transfer_budgeted, verify_monochromatic};
use locap_core::request::IdAlgo;
use locap_graph::budget::RunBudget;
use locap_models::run;

fn report(name: &str, algo: IdAlgo, t: &mut Table) {
    let universe: Vec<u64> = (1..=60).collect();
    match ramsey_cycle_transfer_budgeted(algo, &universe, 1, 9, &RunBudget::unlimited())
        .expect("an unlimited budget never truncates")
    {
        Some((oi, j, bit)) => {
            let verified = verify_monochromatic(&algo, &j, 1, bit);
            // run A with ids from J on a cycle and compare with B = OiFromId
            let g = locap_graph::gen::cycle(j.len());
            let ids: Vec<u64> = j.clone();
            let a_out = run::id_vertex_budgeted(&g, &ids, &algo, &RunBudget::unlimited())
                .expect("well-formed instance")
                .value;
            // B consumes the ordered graph whose order is the id order
            let rank: Vec<usize> = {
                let mut perm: Vec<usize> = (0..j.len()).collect();
                perm.sort_by_key(|&v| ids[v]);
                let mut rank = vec![0; j.len()];
                for (p, &v) in perm.iter().enumerate() {
                    rank[v] = p;
                }
                rank
            };
            let b_out = run::oi_vertex_budgeted(&g, &rank, &oi, &RunBudget::unlimited())
                .expect("well-formed instance")
                .value;
            let agree = run::agreement(&a_out, &b_out);
            t.row(&cells([&name, &format!("{j:?}"), &bit, &verified, &format!("{agree:.3}")]));
        }
        None => {
            t.row(&cells([&name, &"NOT FOUND", &false, &false, &"-"]));
        }
    }
}

fn main() {
    locap_bench::run(
        "e10_ramsey",
        "E10",
        "§4.2 — Ramsey forces ID algorithms to be order-invariant",
        body,
    );
}

fn body() {
    hprintln!("\nt = 2r+1 = 3, universe {{1..60}}, looking for |J| = 9:\n");
    let mut t = Table::new(&[
        "ID algorithm",
        "monochromatic J",
        "forced bit",
        "all t-subsets verified",
        "A vs B agreement on C|J| with ids from J",
    ]);
    report("LocalMax (already OI)", IdAlgo::LocalMax, &mut t);
    report("EvenId (value-sensitive)", IdAlgo::EvenId, &mut t);
    report("SumMod3 (value-sensitive)", IdAlgo::SumMod3, &mut t);
    t.print();

    hprintln!("\nInside J every ID algorithm is order-invariant: its outputs on");
    hprintln!("identifier windows from J depend only on the relative order — the");
    hprintln!("hypothesis the OI → PO machinery (E09) needs. The paper obtains an");
    hprintln!("infinite supply of such windows from Ramsey's theorem (Prop. 4.4/4.5);");
    hprintln!("here the monochromatic sets are found by exact search.");
}
