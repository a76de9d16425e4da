//! E05 — Fig. 5: the complete tree (T*, λ).
//!
//! Prints `t = |T*|` for a grid of alphabet sizes and radii (the quantity
//! the Ramsey argument of §4.2 depends on), verifies the branching
//! structure (root degree 2|L|, inner degree 2|L|−1 children), and shows
//! Fig. 5's instance |L| = 2, r = 2 explicitly.

use locap_bench::{cells, hprint, hprintln, timed, Table};
use locap_core::eds_lower::eds_instance;
use locap_lifts::{
    complete_tree, reduced_words, t_star_size, view_census, view_census_naive, ViewCache,
};

fn main() {
    locap_bench::run(
        "e05_complete_tree",
        "E05",
        "Fig. 5 — the complete L-labelled tree (T*, λ)",
        body,
    );
}

fn body() {
    hprintln!("\nt = |T*| (vertices = reduced words of length ≤ r):\n");
    let mut t = Table::new(&["|L|", "r=1", "r=2", "r=3", "r=4"]);
    for labels in 1..=4usize {
        t.row(&cells([
            &labels,
            &t_star_size(labels, 1),
            &t_star_size(labels, 2),
            &t_star_size(labels, 3),
            &t_star_size(labels, 4),
        ]));
    }
    t.print();

    hprintln!("\nFig. 5 instance |L| = 2, r = 2: the 17 reduced words:\n");
    for w in reduced_words(2, 2) {
        hprint!("{w}  ");
    }
    hprintln!();

    let tree = complete_tree(2, 2);
    hprintln!("\nroot children: {} (= 2|L|)", tree.root.children.len());
    let inner_ok = tree.root.children.iter().all(|(_, c)| c.children.len() == 3);
    hprintln!("every depth-1 node has 3 children (= 2|L| − 1): {inner_ok}");
    hprintln!("size matches closed formula: {}", tree.size() == t_star_size(2, 2));

    // On a label-complete L-digraph every radius-r view IS (T*, λ), so the
    // engine interns all n trees into a single class — the extreme case of
    // its memoization. Compare against the per-vertex reference path.
    hprintln!("\nView engine on a label-complete instance (|L| = 2, every view = T*):\n");
    let inst = eds_instance(4, 7 * 512).expect("4-regular lift instance");
    let d = &inst.digraph;
    let r = 3;
    let (naive, t_naive) = timed(|| view_census_naive(d, r));
    let (census, t_engine) = timed(|| view_census(d, r));
    assert_eq!(naive, census, "engine census must be bit-identical");
    let mut cache = ViewCache::new(d);
    let _ = cache.census(r);
    let stats = cache.stats();
    hprintln!(
        "n = {}, r = {r}: {} view class(es), |view| = {} = t_star_size(2, {r}) = {}",
        d.node_count(),
        census.len(),
        census[0].0.size(),
        t_star_size(2, r),
    );
    hprintln!("engine counters: {stats}");
    hprintln!(
        "census time: naive {:.2?} vs engine {:.2?} ({:.1}x)",
        t_naive,
        t_engine,
        t_naive.as_secs_f64() / t_engine.as_secs_f64().max(1e-9),
    );
}
