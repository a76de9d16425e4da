//! `view_cache/states` counts walk level 0's `n · 2|L|` walk states,
//! although the level stores nothing per state, and the `n` roots of a
//! radius pass. A test binary of its own: the counter is process-wide, so
//! a test running beside this one in the same process would add to it.

use locap_graph::product::toroidal;
use locap_graph::{gen, PoGraph};
use locap_lifts::ViewCache;
use locap_obs::counter_value;

#[test]
fn a_radius_one_query_counts_level_zero_and_the_roots() {
    let graphs = [
        gen::directed_cycle(5),
        toroidal(2, 4),
        PoGraph::canonical(&gen::petersen()).digraph().clone(),
    ];
    for d in &graphs {
        let (n, letters) = (d.node_count(), d.alphabet_size());
        let before = counter_value("view_cache/states");
        ViewCache::new(d).root_classes(1);
        let added = counter_value("view_cache/states") - before;
        assert_eq!(added, (n * 2 * letters + n) as u64, "{n} nodes, {letters} labels");
    }
}
