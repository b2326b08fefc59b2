//! The seeded graphs the workloads run on.
//!
//! Graph `g` of seed `s` is `advogato_like` with generator seed
//! `SplitMix64("graph-g", s)`. The cost of the Figure-2 card on one such
//! graph moves by up to 2× with the generator seed (A7 and A8 depend on a
//! few hub-to-hub edges), so no workload rests on a single graph: `analytic`
//! keeps a family of separate databases, and `serve` and `ingest` load a
//! family's graphs as disjoint components of one database.

use crate::rng::SplitMix64;
use pathix_datagen::{advogato_like, AdvogatoConfig};
use pathix_graph::{Graph, GraphBuilder};

/// Graphs in the `serve` and `ingest` database.
pub const UNION_GRAPHS: usize = 3;

/// A named edge: (source, label, target).
pub type Edge = (String, String, String);

/// The generator configuration of graph `graph` of the family drawn from
/// `seed`, at `scale` of the real network.
pub fn advogato_config(seed: u64, graph: usize, scale: f64) -> AdvogatoConfig {
    AdvogatoConfig {
        scale,
        seed: SplitMix64::for_stream(seed, &format!("graph-{graph}")).next_u64(),
        ..AdvogatoConfig::default()
    }
}

/// The seed of draw `draw` of further families under `seed` (set-up times
/// are summed over several draws).
pub fn draw_seed(seed: u64, draw: usize) -> u64 {
    SplitMix64::for_stream(seed, &format!("draw-{draw}")).next_u64()
}

/// The family's first `UNION_GRAPHS` graphs, at `scale` of the real
/// network, as disjoint components of one graph (node `u7` of graph 2
/// becomes `g2/u7`).
pub fn family_union(seed: u64, scale: f64) -> Graph {
    let mut builder = GraphBuilder::new();
    for g in 0..UNION_GRAPHS {
        let graph = advogato_like(advogato_config(seed, g, scale));
        for (s, l, d) in named_edges(&graph) {
            builder.add_edge_named(&format!("g{g}/{s}"), &l, &format!("g{g}/{d}"));
        }
    }
    builder.build()
}

/// Every edge of `graph`, by name.
pub fn named_edges(graph: &Graph) -> Vec<Edge> {
    let mut edges = Vec::with_capacity(graph.edge_count());
    for label in graph.labels() {
        let label_name = graph.label_name(label).unwrap_or("?").to_string();
        for (s, d) in graph.edges(label) {
            edges.push((
                graph.node_name(s).unwrap_or("?").to_string(),
                label_name.clone(),
                graph.node_name(d).unwrap_or("?").to_string(),
            ));
        }
    }
    edges
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_union_is_seeded_and_keeps_components_apart() {
        let a = family_union(5, 0.01);
        assert_eq!(named_edges(&a), named_edges(&family_union(5, 0.01)));
        assert_ne!(named_edges(&a), named_edges(&family_union(6, 0.01)));
        let parts: usize = (0..UNION_GRAPHS)
            .map(|g| advogato_like(advogato_config(5, g, 0.01)).edge_count())
            .sum();
        assert_eq!(a.edge_count(), parts);
        assert!(named_edges(&a)
            .iter()
            .all(|(s, _, d)| s.split('/').next() == d.split('/').next()));
    }
}
