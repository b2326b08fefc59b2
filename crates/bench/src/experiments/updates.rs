//! Experiment **X10** (extension): live `PathDb::apply` update throughput
//! versus rebuilding the database from scratch, swept across all four
//! storage backends.
//!
//! X9 measures single-update applies on the memory backend; this experiment
//! measures the whole serving path a live deployment actually exercises:
//! [`PathDb::apply`] validates the batch, commits it to the graph, runs one
//! counting pass over the net change set, refreshes the histogram under the
//! configured policy and publishes a fresh immutable snapshot (epoch bump plus O(Δ) chunk rebuilds
//! with structural sharing on the memory backend, copy-on-write B+tree key
//! deltas with page writeback on the paged backends, overlay entries with
//! threshold compaction on the compressed store). The alternative — the only
//! way a read-only database can stay fresh — is a full [`PathDb::build`] per
//! batch. Queries running between batches confirm both routes answer
//! identically, the backend sweep reports per-backend apply throughput and
//! post-update query latency, and the publish sweep pins the O(Δ) claim:
//! fixed-size batches cost the same on a 10× larger index.

use crate::datasets::build_advogato;
use crate::report::{write_json, Table};
use pathix_core::{BackendChoice, HistogramRefresh, PathDb, PathDbConfig, QueryOptions, Strategy};
use pathix_graph::{Graph, LabelId, NodeId};
use pathix_index::GraphUpdate;
use std::time::Instant;

/// One `(batch size)` measurement.
#[derive(Debug, Clone)]
pub struct UpdatesRow {
    /// Updates per `apply` batch.
    pub batch: usize,
    /// Batches applied.
    pub batches: usize,
    /// Mean time of one `PathDb::apply` batch, in milliseconds.
    pub apply_ms: f64,
    /// Updates applied per second through `apply`.
    pub updates_per_s: f64,
    /// Time of one full `PathDb::build` over the same graph, in milliseconds.
    pub rebuild_ms: f64,
    /// `rebuild_ms / apply_ms` — how much cheaper staying fresh is per batch.
    pub speedup_vs_rebuild: f64,
}

/// One backend of the storage sweep: apply throughput and post-update query
/// latency on the same update stream.
#[derive(Debug, Clone)]
pub struct BackendUpdatesRow {
    /// Backend short name (`memory`, `paged`, `on-disk`, `compressed`).
    pub backend: String,
    /// Mean time of one `PathDb::apply` batch, in milliseconds.
    pub apply_ms: f64,
    /// Updates applied per second through `apply`.
    pub updates_per_s: f64,
    /// Mean post-update query latency, in milliseconds.
    pub query_ms: f64,
    /// Epoch the database reached after the sweep.
    pub epoch: u64,
}

/// One point of the publish-latency-vs-index-size sweep: the same fixed-size
/// batches applied to databases whose index differs by an order of magnitude.
#[derive(Debug, Clone)]
pub struct PublishSweepRow {
    /// Backend short name (`memory`, `paged`).
    pub backend: String,
    /// Advogato-like scale of this point.
    pub scale: f64,
    /// Graph nodes at this point.
    pub nodes: usize,
    /// Graph edges at this point.
    pub edges: usize,
    /// Index entries at this point.
    pub index_entries: u64,
    /// Mean index-entry transitions per batch (the Δ publish is
    /// proportional to) — must stay comparable across scales for the sweep
    /// to isolate publish cost.
    pub delta_entries_per_batch: f64,
    /// Mean time of one fixed-size `PathDb::apply` batch (delta rules +
    /// publish), in milliseconds.
    pub apply_ms: f64,
}

/// The X10 report.
#[derive(Debug, Clone)]
pub struct UpdatesReport {
    /// Advogato-like scale factor.
    pub scale: f64,
    /// Locality parameter used.
    pub k: usize,
    /// Epoch the live database reached.
    pub final_epoch: u64,
    /// All rows.
    pub rows: Vec<UpdatesRow>,
    /// Per-backend sweep rows.
    pub backends: Vec<BackendUpdatesRow>,
    /// Publish-latency-vs-index-size sweep (fixed batch size, 1× and 10×
    /// graphs): the O(Δ) publish acceptance check.
    pub publish_sweep: Vec<PublishSweepRow>,
}

/// Every `step`-th edge of the graph as `(src, label, dst)` triples.
fn edge_sample(graph: &Graph, step: usize) -> Vec<(NodeId, LabelId, NodeId)> {
    graph
        .labels()
        .flat_map(|l| graph.edges(l).map(move |(s, d)| (s, l, d)))
        .step_by(step.max(1))
        .collect()
}

/// Runs the live-update throughput experiment at the given scale with
/// locality `k`.
pub fn live_updates(scale: f64, k: usize) -> UpdatesReport {
    let graph = build_advogato(scale);
    println!(
        "== X10: PathDb::apply throughput vs full rebuild (scale {scale}: {} nodes, {} edges, \
         k = {k})\n",
        graph.node_count(),
        graph.edge_count()
    );

    let start = Instant::now();
    let db = PathDb::build(graph.clone(), PathDbConfig::with_k(k));
    let rebuild_ms = start.elapsed().as_secs_f64() * 1e3;

    // The update stream: a slice of existing edges, deleted and re-inserted,
    // so the database ends every round where it started.
    let sample = edge_sample(&graph, graph.edge_count() / 256);
    let query = "journeyer/journeyer";
    let reference = db.query(query).unwrap().len();

    let mut rows = Vec::new();
    let mut table = Table::new(vec![
        "batch",
        "apply (ms/batch)",
        "updates/s",
        "rebuild (ms)",
        "speedup vs rebuild",
    ]);
    for &batch in &[1usize, 16, 128] {
        let rounds: Vec<Vec<GraphUpdate>> = sample
            .chunks(batch)
            .map(|chunk| {
                chunk
                    .iter()
                    .map(|&(src, label, dst)| GraphUpdate::DeleteEdge { src, label, dst })
                    .collect()
            })
            .collect();
        let reinserts: Vec<Vec<GraphUpdate>> = sample
            .chunks(batch)
            .map(|chunk| {
                chunk
                    .iter()
                    .map(|&(src, label, dst)| GraphUpdate::InsertEdge { src, label, dst })
                    .collect()
            })
            .collect();

        let start = Instant::now();
        let mut applied = 0usize;
        let mut batches = 0usize;
        for round in rounds.iter().chain(reinserts.iter()) {
            let stats = db.apply(round).unwrap();
            applied += (stats.inserted + stats.deleted) as usize;
            batches += 1;
        }
        let elapsed = start.elapsed().as_secs_f64();
        let apply_ms = elapsed * 1e3 / batches.max(1) as f64;
        let updates_per_s = applied as f64 / elapsed.max(1e-9);
        let speedup = rebuild_ms / apply_ms.max(1e-9);

        // Delete + re-insert restores the edge set: the live database must
        // still agree with the original build.
        assert_eq!(
            db.query(query).unwrap().len(),
            reference,
            "batch {batch}: answers diverged after the update rounds"
        );

        table.push_row(vec![
            batch.to_string(),
            format!("{apply_ms:.2}"),
            format!("{updates_per_s:.0}"),
            format!("{rebuild_ms:.1}"),
            format!("{speedup:.1}x"),
        ]);
        rows.push(UpdatesRow {
            batch,
            batches,
            apply_ms,
            updates_per_s,
            rebuild_ms,
            speedup_vs_rebuild: speedup,
        });
    }
    println!("{}", table.render());

    // Prepared-query staleness check at bench scale: a plan compiled before
    // an update keeps answering correctly after it.
    let prepared = db.prepare(query).unwrap();
    let before = prepared.run(&db, QueryOptions::with_strategy(Strategy::MinSupport));
    let &(src, label, dst) = sample.first().expect("non-empty sample");
    db.apply(&[GraphUpdate::DeleteEdge { src, label, dst }])
        .unwrap();
    let after = prepared.run(&db, QueryOptions::with_strategy(Strategy::MinSupport));
    db.apply(&[GraphUpdate::InsertEdge { src, label, dst }])
        .unwrap();
    println!(
        "prepared query across an update: {} answers before, {} after the delete (epoch {})\n",
        before.map(|r| r.len()).unwrap_or(0),
        after.map(|r| r.len()).unwrap_or(0),
        db.epoch()
    );
    println!(
        "expected shape: staying fresh after every single update (batch 1) beats a rebuild per \
         update, and updates/s grows with batch size as the per-batch bookkeeping (histogram \
         refresh, snapshot swap) amortizes. Publishing is O(batch), not O(index): the memory \
         backend rebuilds only the chunks the batch touched and re-shares the rest, so the \
         apply-vs-rebuild gap now reflects the paper's locality claim directly — rebuild re-joins \
         every path relation of the whole graph while apply touches only the batch's \
         k-neighborhoods. Answers match the rebuilt database throughout.\n"
    );

    let backends = backend_sweep(&graph, k, &sample, query);
    let publish_sweep = publish_sweep(scale, k);

    let report = UpdatesReport {
        scale,
        k,
        final_epoch: db.epoch(),
        rows,
        backends,
        publish_sweep,
    };
    write_json("live_updates", &report);
    report
}

/// Applies the **same fixed-size batches** to a database built at 1× and at
/// 10× the base scale, on the memory and paged backends. Because publishing
/// is O(Δ) everywhere — chunk rebuilds with structural sharing on memory,
/// page-level copy-on-write on paged — the per-batch apply latency must stay
/// flat (within ~2×) while the index grows an order of magnitude; before this
/// work the memory backend paid an O(index) freeze per publish, which made
/// this very sweep grow linearly.
fn publish_sweep(base_scale: f64, k: usize) -> Vec<PublishSweepRow> {
    const BATCH: usize = 64;
    const ROUNDS: usize = 8;
    let scales = [base_scale, base_scale * 10.0];
    let mut rows: Vec<PublishSweepRow> = Vec::new();
    let mut table = Table::new(vec![
        "backend",
        "scale",
        "entries",
        "delta entries/batch",
        "apply (ms/batch)",
        "vs 1x",
    ]);
    println!(
        "-- publish sweep: {BATCH}-update batches ({ROUNDS} delete + {ROUNDS} re-insert rounds) \
         at 1x and 10x index size\n"
    );
    for &scale in &scales {
        let graph = build_advogato(scale);
        // A *comparable* update stream at both sizes: the cost of the
        // paper's update rule is proportional to the k-neighborhood of the
        // changed edge, so the sweep holds that variable fixed by updating
        // the lowest-degree edges (uniform edge sampling would bias toward
        // hubs, whose neighborhoods — and thus Δ itself — grow with the
        // graph; that measures the workload, not the publish machinery).
        let mut degree = vec![0u32; graph.node_count()];
        for (src, _, dst) in edge_sample(&graph, 1) {
            degree[src.index()] += 1;
            degree[dst.index()] += 1;
        }
        let mut candidates = edge_sample(&graph, 1);
        candidates.sort_by_key(|&(src, _, dst)| degree[src.index()] + degree[dst.index()]);
        let sample: Vec<(NodeId, LabelId, NodeId)> =
            candidates.into_iter().take(ROUNDS * BATCH).collect();
        let choices: Vec<(&str, BackendChoice)> = vec![
            ("memory", BackendChoice::Memory),
            ("paged", BackendChoice::PagedInMemory { pool_frames: 256 }),
        ];
        for (name, choice) in choices {
            // Manual histogram refresh: the sweep isolates the index publish
            // (the O(Δ) claim under test); the default every-batch histogram
            // rebuild is policy, measured by the main X10 rows above.
            let config = PathDbConfig::with_k(k)
                .with_backend(choice)
                .with_histogram_refresh(HistogramRefresh::Manual);
            let db = PathDb::try_build(graph.clone(), config).expect("backend build failed");
            // Warm up the writer: the first apply seeds the walk-count table
            // (a one-time O(index) cost every route pays, not publish cost).
            let &(src, label, dst) = sample.first().expect("non-empty sample");
            db.apply(&[GraphUpdate::DeleteEdge { src, label, dst }])
                .unwrap();
            db.apply(&[GraphUpdate::InsertEdge { src, label, dst }])
                .unwrap();

            let rounds: Vec<Vec<GraphUpdate>> = sample
                .chunks(BATCH)
                .map(|chunk| {
                    chunk
                        .iter()
                        .map(|&(src, label, dst)| GraphUpdate::DeleteEdge { src, label, dst })
                        .collect()
                })
                .chain(sample.chunks(BATCH).map(|chunk| {
                    chunk
                        .iter()
                        .map(|&(src, label, dst)| GraphUpdate::InsertEdge { src, label, dst })
                        .collect()
                }))
                .collect();
            let start = Instant::now();
            let mut delta_entries = 0u64;
            for round in &rounds {
                delta_entries += db.apply(round).unwrap().delta_entries;
            }
            let apply_ms = start.elapsed().as_secs_f64() * 1e3 / rounds.len().max(1) as f64;
            let delta_entries_per_batch = delta_entries as f64 / rounds.len().max(1) as f64;

            let baseline: Option<f64> = rows.iter().find(|r| r.backend == name).map(|r| r.apply_ms);
            let vs_base = match baseline {
                Some(b) => format!("{:.2}x", apply_ms / b.max(1e-9)),
                None => "1.00x".to_owned(),
            };
            table.push_row(vec![
                name.to_string(),
                format!("{scale}"),
                db.stats().index.entries.to_string(),
                format!("{delta_entries_per_batch:.0}"),
                format!("{apply_ms:.3}"),
                vs_base,
            ]);
            rows.push(PublishSweepRow {
                backend: name.to_string(),
                scale,
                nodes: graph.node_count(),
                edges: graph.edge_count(),
                index_entries: db.stats().index.entries,
                delta_entries_per_batch,
                apply_ms,
            });
        }
    }
    println!("{}", table.render());
    println!(
        "expected shape: apply latency per fixed-size batch stays flat (within ~2x) as the index \
         grows 10x on both backends — the memory publish rebuilds only the touched chunks and \
         re-shares the rest behind Arcs, and the paged publish copy-on-writes only the dirtied \
         pages. An O(index) publish (the old snapshot freeze) would scale with the right column \
         instead.\n"
    );
    rows
}

/// Applies the same delete/re-insert stream through every storage backend
/// and reports per-backend apply throughput and post-update query latency.
fn backend_sweep(
    graph: &Graph,
    k: usize,
    sample: &[(NodeId, LabelId, NodeId)],
    query: &str,
) -> Vec<BackendUpdatesRow> {
    let disk_path = std::env::temp_dir().join(format!("pathix-x10-{}.pages", std::process::id()));
    let choices: Vec<(&str, BackendChoice)> = vec![
        ("memory", BackendChoice::Memory),
        ("paged", BackendChoice::PagedInMemory { pool_frames: 256 }),
        (
            "on-disk",
            BackendChoice::OnDisk {
                path: disk_path.clone(),
                pool_frames: 256,
            },
        ),
        ("compressed", BackendChoice::Compressed),
    ];

    let batch = 64usize;
    let mut rows = Vec::new();
    let mut table = Table::new(vec![
        "backend",
        "apply (ms/batch)",
        "updates/s",
        "post-update query (ms)",
    ]);
    println!("-- backend sweep: {batch}-update batches (delete + re-insert), same stream\n");
    for (name, choice) in choices {
        let db = PathDb::try_build(graph.clone(), PathDbConfig::with_k(k).with_backend(choice))
            .expect("backend build failed");
        let reference = db.query(query).unwrap().len();

        let rounds: Vec<Vec<GraphUpdate>> = sample
            .chunks(batch)
            .map(|chunk| {
                chunk
                    .iter()
                    .map(|&(src, label, dst)| GraphUpdate::DeleteEdge { src, label, dst })
                    .collect()
            })
            .chain(sample.chunks(batch).map(|chunk| {
                chunk
                    .iter()
                    .map(|&(src, label, dst)| GraphUpdate::InsertEdge { src, label, dst })
                    .collect()
            }))
            .collect();

        let start = Instant::now();
        let mut applied = 0usize;
        for round in &rounds {
            let stats = db.apply(round).unwrap();
            applied += (stats.inserted + stats.deleted) as usize;
        }
        let elapsed = start.elapsed().as_secs_f64();
        let apply_ms = elapsed * 1e3 / rounds.len().max(1) as f64;
        let updates_per_s = applied as f64 / elapsed.max(1e-9);

        // Delete + re-insert restores the edge set: answers must match the
        // build, on every backend.
        assert_eq!(
            db.query(query).unwrap().len(),
            reference,
            "{name}: answers diverged after the update rounds"
        );
        let queries = 16usize;
        let start = Instant::now();
        for _ in 0..queries {
            let _ = db
                .run(query, QueryOptions::with_strategy(Strategy::MinSupport))
                .unwrap();
        }
        let query_ms = start.elapsed().as_secs_f64() * 1e3 / queries as f64;

        table.push_row(vec![
            name.to_string(),
            format!("{apply_ms:.2}"),
            format!("{updates_per_s:.0}"),
            format!("{query_ms:.3}"),
        ]);
        rows.push(BackendUpdatesRow {
            backend: name.to_string(),
            apply_ms,
            updates_per_s,
            query_ms,
            epoch: db.epoch(),
        });
    }
    println!("{}", table.render());
    println!(
        "expected shape: every backend absorbs the same stream (the counting delta enumeration \
         runs once per batch regardless of backend); memory pays O(touched chunks) per publish, \
         the paged backends pay key-level tree maintenance with page-level copy-on-write plus \
         writeback (on-disk adds the file sync), and the compressed store pays overlay inserts \
         with occasional block-rewrite compactions. Post-update query latency shows each \
         representation's read cost over identical data.\n"
    );
    let _ = std::fs::remove_file(&disk_path);
    rows
}

crate::impl_to_json!(UpdatesRow {
    batch,
    batches,
    apply_ms,
    updates_per_s,
    rebuild_ms,
    speedup_vs_rebuild
});
crate::impl_to_json!(BackendUpdatesRow {
    backend,
    apply_ms,
    updates_per_s,
    query_ms,
    epoch
});
crate::impl_to_json!(PublishSweepRow {
    backend,
    scale,
    nodes,
    edges,
    index_entries,
    delta_entries_per_batch,
    apply_ms
});
crate::impl_to_json!(UpdatesReport {
    scale,
    k,
    final_epoch,
    rows,
    backends,
    publish_sweep
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn live_updates_experiment_runs_at_tiny_scale() {
        let report = live_updates(0.01, 2);
        assert_eq!(report.rows.len(), 3);
        assert!(report.final_epoch > 0);
        for row in &report.rows {
            assert!(row.batches > 0);
            assert!(row.apply_ms > 0.0);
            assert!(row.updates_per_s > 0.0);
            assert!(row.rebuild_ms > 0.0);
        }
        // The backend sweep covers all four storage backends, and each of
        // them absorbed the whole stream (epoch > 0).
        let names: Vec<&str> = report.backends.iter().map(|r| r.backend.as_str()).collect();
        assert_eq!(names, ["memory", "paged", "on-disk", "compressed"]);
        for row in &report.backends {
            assert!(row.apply_ms > 0.0, "{}", row.backend);
            assert!(row.updates_per_s > 0.0, "{}", row.backend);
            assert!(row.query_ms > 0.0, "{}", row.backend);
            assert!(row.epoch > 0, "{}", row.backend);
        }
        // The publish sweep covers memory and paged at 1x and 10x, and the
        // larger point really indexes an order of magnitude more entries.
        assert_eq!(report.publish_sweep.len(), 4);
        for backend in ["memory", "paged"] {
            let points: Vec<_> = report
                .publish_sweep
                .iter()
                .filter(|r| r.backend == backend)
                .collect();
            assert_eq!(points.len(), 2, "{backend}");
            assert!(
                points[1].index_entries > points[0].index_entries * 3,
                "{backend}"
            );
            assert!(points.iter().all(|r| r.apply_ms > 0.0), "{backend}");
        }
        // Machine-readable output for the CI artifact.
        use crate::report::ToJson;
        let json = report.to_json();
        assert!(json.contains("\"publish_sweep\""), "{json}");
        assert!(json.contains("\"apply_ms\""), "{json}");
    }
}
