//! Experiment **X9** (extension): incremental index maintenance versus full
//! rebuild.
//!
//! The paper builds `I_{G,k}` once; this experiment quantifies the follow-up
//! question a deployment immediately faces — what a single edge update costs
//! when it goes through `PathDb::apply` (graph commit, one counting pass,
//! publish) on the memory backend, compared against rebuilding the whole
//! index from scratch after every change.

use crate::datasets::build_advogato;
use crate::report::{write_json, Table};
use pathix_core::{GraphUpdate, PathDb, PathDbConfig};
use pathix_graph::Graph;
use pathix_index::{PathIndexBackend, SharedKPathIndex};
use std::time::Instant;

/// One `(k, batch)` measurement.
#[derive(Debug, Clone)]
pub struct IncrementalRow {
    /// Locality parameter.
    pub k: usize,
    /// Index entries before the update batch.
    pub entries: usize,
    /// Number of edges deleted and re-inserted.
    pub batch: usize,
    /// Mean time of one single-deletion `PathDb::apply`, in microseconds.
    pub delete_us: f64,
    /// Mean time of one single-insertion `PathDb::apply`, in microseconds.
    pub insert_us: f64,
    /// Time of one full `SharedKPathIndex::build` over the same graph, in
    /// milliseconds.
    pub rebuild_ms: f64,
    /// `rebuild_ms * 1000 / insert_us` — how many incremental insertions one
    /// rebuild pays for.
    pub rebuild_per_insert: f64,
}

/// The X9 report.
#[derive(Debug, Clone)]
pub struct IncrementalReport {
    /// Advogato-like scale factor.
    pub scale: f64,
    /// All rows.
    pub rows: Vec<IncrementalRow>,
}

/// Every `step`-th edge of the graph, as deletions.
fn update_batch(graph: &Graph, step: usize) -> Vec<GraphUpdate> {
    graph
        .labels()
        .flat_map(|l| {
            graph
                .edges(l)
                .map(move |(s, d)| GraphUpdate::delete(s, l, d))
        })
        .step_by(step.max(1))
        .collect()
}

/// Mean microseconds per `PathDb::apply` of a one-update batch; every update
/// must take effect.
fn mean_apply_us(db: &PathDb, updates: &[GraphUpdate]) -> f64 {
    let start = Instant::now();
    let applied: u64 = updates
        .iter()
        .filter_map(|update| db.apply(std::slice::from_ref(update)).ok())
        .map(|stats| stats.inserted + stats.deleted)
        .sum();
    let elapsed = start.elapsed();
    assert_eq!(applied, updates.len() as u64, "every update must apply");
    elapsed.as_secs_f64() * 1e6 / updates.len().max(1) as f64
}

/// Runs the incremental maintenance experiment for `k ∈ {1, 2}` (k = 3 is
/// excluded: replaying tens of millions of walk deltas is exactly the
/// workload the experiment shows one should avoid rebuilding for).
pub fn incremental_maintenance(scale: f64) -> IncrementalReport {
    let graph = build_advogato(scale);
    println!(
        "== X9: incremental maintenance vs rebuild (scale {scale}: {} nodes, {} edges)\n",
        graph.node_count(),
        graph.edge_count()
    );
    let mut rows = Vec::new();
    let mut table = Table::new(vec![
        "k",
        "entries",
        "batch",
        "delete (µs/edge)",
        "insert (µs/edge)",
        "rebuild (ms)",
        "rebuilds avoided per insert",
    ]);
    for k in [1usize, 2] {
        let start = Instant::now();
        let rebuilt = SharedKPathIndex::build(&graph, k);
        let rebuild_ms = start.elapsed().as_secs_f64() * 1e3;

        let db = PathDb::build(graph.clone(), PathDbConfig::with_k(k));
        let entries = db.stats().index.entries as usize;
        assert_eq!(
            entries as u64,
            rebuilt.stats().entries,
            "the database must hold a full build"
        );
        // An empty batch seeds the writer's walk-count table, so the timed
        // batches below measure updates only.
        assert!(db.apply(&[]).is_ok(), "seeding the writer");

        let batch = update_batch(&graph, graph.edge_count() / 200);
        let delete_us = mean_apply_us(&db, &batch);
        let inserts: Vec<GraphUpdate> = batch
            .iter()
            .filter_map(GraphUpdate::as_op)
            .map(|op| GraphUpdate::insert(op.src, op.label, op.dst))
            .collect();
        let insert_us = mean_apply_us(&db, &inserts);
        assert_eq!(
            db.stats().index.entries as usize,
            entries,
            "delete + re-insert must restore the index"
        );

        let rebuild_per_insert = rebuild_ms * 1e3 / insert_us.max(1e-9);
        table.push_row(vec![
            k.to_string(),
            entries.to_string(),
            batch.len().to_string(),
            format!("{delete_us:.1}"),
            format!("{insert_us:.1}"),
            format!("{rebuild_ms:.1}"),
            format!("{rebuild_per_insert:.0}"),
        ]);
        rows.push(IncrementalRow {
            k,
            entries,
            batch: batch.len(),
            delete_us,
            insert_us,
            rebuild_ms,
            rebuild_per_insert,
        });
    }
    println!("{}", table.render());
    println!(
        "expected shape: a single-update `PathDb::apply` (graph commit, counting pass, \
         publish, histogram refresh) costs microseconds to low milliseconds because it only \
         touches the k-neighborhood of the edge, while a rebuild grows with the whole graph, \
         so the ratio grows with the scale; the per-update cost grows with k (larger \
         neighborhoods).\n"
    );
    let report = IncrementalReport { scale, rows };
    write_json("incremental_maintenance", &report);
    report
}

crate::impl_to_json!(IncrementalRow {
    k,
    entries,
    batch,
    delete_us,
    insert_us,
    rebuild_ms,
    rebuild_per_insert
});
crate::impl_to_json!(IncrementalReport { scale, rows });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn incremental_maintenance_runs_at_tiny_scale() {
        let report = incremental_maintenance(0.01);
        assert_eq!(report.rows.len(), 2);
        for row in &report.rows {
            assert!(row.batch > 0);
            assert!(row.insert_us > 0.0 && row.delete_us > 0.0);
            assert!(row.rebuild_ms > 0.0);
        }
        // The k = 2 index is strictly larger than the k = 1 index.
        assert!(report.rows[1].entries > report.rows[0].entries);
    }
}
