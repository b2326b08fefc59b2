//! Experiment **X12** (extension): streaming ingest from an empty database.
//!
//! X10 measures live updates against a database that was *bulk built* first;
//! this experiment starts from [`PathDb::empty`] and feeds the whole
//! Advogato-like edge stream through [`PathDb::apply`] as
//! [`GraphUpdate::InsertEdgeNamed`] batches — every node and label name is
//! interned live, mid-stream, exactly the way a serving deployment that never
//! saw a bulk load would grow. Two questions are answered:
//!
//! 1. **Throughput** — how fast each storage backend absorbs a pure named
//!    insert stream from empty, and whether the streamed database ends up
//!    identical (counts and query answers) to a bulk build of the same
//!    edges.
//! 2. **Latency flatness** — the O(Δ) acceptance check for the ingest path:
//!    the same fixed-size batches of brand-new named edges appended to a 1×
//!    and a 10× database must cost the same (within ~2×) on *all four*
//!    backends. Fresh endpoints have empty k-neighborhoods, so the paper's
//!    delta rule contributes a constant Δ per batch and the sweep isolates
//!    vocabulary interning, chunk publishing and snapshot swap — any O(V+E)
//!    step left on the apply path shows up as the 10× column growing.

use crate::datasets::build_advogato;
use crate::report::{write_json, Table};
use pathix_core::{ApplyPhases, BackendChoice, HistogramRefresh, PathDb, PathDbConfig};
use pathix_graph::Graph;
use pathix_index::GraphUpdate;
use std::time::Instant;

/// One backend of the streaming-ingest throughput sweep.
#[derive(Debug, Clone)]
pub struct IngestRow {
    /// Backend short name (`memory`, `paged`, `on-disk`, `compressed`).
    pub backend: String,
    /// Named inserts per `apply` batch.
    pub batch: usize,
    /// Batches applied to go from empty to the full graph.
    pub batches: usize,
    /// Edges the stream carried (all inserted — the stream is duplicate
    /// free).
    pub edges: usize,
    /// Mean time of one `apply` batch, in milliseconds.
    pub apply_ms: f64,
    /// Edges ingested per second end to end.
    pub edges_per_s: f64,
    /// Mean per-batch time of each apply phase ([`pathix_core::ApplyPhases`]),
    /// in milliseconds: validate and intern, graph commit and counting,
    /// log append and sync, backend delta and publish, checkpoint.
    pub prepare_ms: f64,
    /// See [`IngestRow::prepare_ms`].
    pub count_ms: f64,
    /// See [`IngestRow::prepare_ms`].
    pub log_ms: f64,
    /// See [`IngestRow::prepare_ms`].
    pub publish_ms: f64,
    /// See [`IngestRow::prepare_ms`].
    pub checkpoint_ms: f64,
    /// Nodes interned live by the stream.
    pub final_nodes: usize,
    /// Labels interned live by the stream.
    pub final_labels: usize,
    /// Epoch the database reached (one per batch).
    pub epoch: u64,
}

/// One point of the append-latency-vs-database-size sweep.
#[derive(Debug, Clone)]
pub struct IngestLatencyRow {
    /// Backend short name.
    pub backend: String,
    /// Advogato-like scale of this point.
    pub scale: f64,
    /// Graph nodes before the appends.
    pub nodes: usize,
    /// Graph edges before the appends.
    pub edges: usize,
    /// Index entries before the appends.
    pub index_entries: u64,
    /// Mean time of one fixed-size batch of brand-new named edges, in
    /// milliseconds.
    pub apply_ms: f64,
}

/// The X12 report.
#[derive(Debug, Clone)]
pub struct IngestReport {
    /// Advogato-like scale factor of the throughput sweep.
    pub scale: f64,
    /// Locality parameter used.
    pub k: usize,
    /// Streaming throughput per backend.
    pub rows: Vec<IngestRow>,
    /// Fixed-size append latency at 1× and 10×, all four backends: the
    /// O(Δ) ingest acceptance check.
    pub latency_sweep: Vec<IngestLatencyRow>,
}

/// Extracts every edge of `graph` as owned `(src, label, dst)` name triples,
/// deterministically shuffled so node and label vocabulary arrive
/// interleaved mid-stream instead of in label-major blocks.
fn named_stream(graph: &Graph) -> Vec<(String, String, String)> {
    let mut triples: Vec<(String, String, String)> = Vec::with_capacity(graph.edge_count());
    for label in graph.labels() {
        let label_name = graph.label_name(label).unwrap_or("?").to_owned();
        for (s, t) in graph.edges(label) {
            triples.push((
                graph.node_name(s).unwrap_or("?").to_owned(),
                label_name.clone(),
                graph.node_name(t).unwrap_or("?").to_owned(),
            ));
        }
    }
    // Fisher–Yates with a fixed-seed LCG: reproducible, dependency free.
    let mut state = 0x12u64.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    for i in (1..triples.len()).rev() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let j = (state >> 33) as usize % (i + 1);
        triples.swap(i, j);
    }
    triples
}

/// The four storage backends, with a process-unique on-disk path.
fn backend_choices(tag: &str) -> Vec<(&'static str, BackendChoice)> {
    let disk_path =
        std::env::temp_dir().join(format!("pathix-x12-{tag}-{}.pages", std::process::id()));
    vec![
        ("memory", BackendChoice::Memory),
        ("paged", BackendChoice::PagedInMemory { pool_frames: 256 }),
        (
            "on-disk",
            BackendChoice::OnDisk {
                path: disk_path,
                pool_frames: 256,
            },
        ),
        ("compressed", BackendChoice::Compressed),
    ]
}

/// Runs the streaming-ingest experiment at the given scale with locality `k`.
pub fn ingest(scale: f64, k: usize) -> IngestReport {
    let graph = build_advogato(scale);
    println!(
        "== X12: streaming ingest from empty (scale {scale}: {} nodes, {} edges, k = {k})\n",
        graph.node_count(),
        graph.edge_count()
    );

    let stream = named_stream(&graph);
    let batch = 256usize;
    let query = "journeyer/journeyer";
    // The reference: a bulk build over the same edges answers the probe
    // query; every streamed database must agree.
    let reference_db = PathDb::build(graph.clone(), PathDbConfig::with_k(k));
    let reference = reference_db
        .query(query)
        .unwrap_or_else(|e| panic!("reference query failed: {e}"))
        .len();

    let mut rows = Vec::new();
    let mut table = Table::new(vec![
        "backend",
        "apply (ms/batch)",
        "prepare",
        "count",
        "log",
        "publish",
        "checkpoint",
        "edges/s",
        "nodes interned",
        "labels interned",
        "epochs",
    ]);
    println!(
        "-- throughput: {batch}-insert named batches, empty -> {} edges\n",
        stream.len()
    );
    for (name, choice) in backend_choices("stream") {
        let config = PathDbConfig::with_k(k).with_backend(choice);
        let db = PathDb::empty(config)
            .unwrap_or_else(|e| panic!("{name}: empty database build failed: {e}"));

        let start = Instant::now();
        let mut batches = 0usize;
        let mut inserted = 0u64;
        let mut phases = ApplyPhases::default();
        for chunk in stream.chunks(batch) {
            let updates: Vec<GraphUpdate> = chunk
                .iter()
                .map(|(s, l, d)| GraphUpdate::insert_named(s.clone(), l.clone(), d.clone()))
                .collect();
            let stats = db
                .apply(&updates)
                .unwrap_or_else(|e| panic!("{name}: ingest batch failed: {e}"));
            inserted += stats.inserted;
            batches += 1;
            let p = stats.phases;
            phases.prepare += p.prepare;
            phases.count += p.count;
            phases.log += p.log;
            phases.publish += p.publish;
            phases.checkpoint += p.checkpoint;
        }
        let elapsed = start.elapsed().as_secs_f64();
        let per_batch = |d: std::time::Duration| d.as_secs_f64() * 1e3 / batches.max(1) as f64;
        let apply_ms = elapsed * 1e3 / batches.max(1) as f64;
        let edges_per_s = inserted as f64 / elapsed.max(1e-9);

        // The streamed database must be the bulk build, reached a batch at a
        // time: same counts, same answers.
        let stats = db.stats();
        assert_eq!(
            stats.nodes,
            graph.node_count(),
            "{name}: node count diverged"
        );
        assert_eq!(
            stats.edges,
            graph.edge_count(),
            "{name}: edge count diverged"
        );
        assert_eq!(
            stats.labels,
            graph.label_count(),
            "{name}: label count diverged"
        );
        assert_eq!(
            db.query(query)
                .unwrap_or_else(|e| panic!("{name}: post-ingest query failed: {e}"))
                .len(),
            reference,
            "{name}: streamed answers diverged from the bulk build"
        );

        table.push_row(vec![
            name.to_string(),
            format!("{apply_ms:.2}"),
            format!("{:.2}", per_batch(phases.prepare)),
            format!("{:.2}", per_batch(phases.count)),
            format!("{:.2}", per_batch(phases.log)),
            format!("{:.2}", per_batch(phases.publish)),
            format!("{:.2}", per_batch(phases.checkpoint)),
            format!("{edges_per_s:.0}"),
            stats.nodes.to_string(),
            stats.labels.to_string(),
            db.epoch().to_string(),
        ]);
        rows.push(IngestRow {
            backend: name.to_string(),
            batch,
            batches,
            edges: inserted as usize,
            apply_ms,
            edges_per_s,
            prepare_ms: per_batch(phases.prepare),
            count_ms: per_batch(phases.count),
            log_ms: per_batch(phases.log),
            publish_ms: per_batch(phases.publish),
            checkpoint_ms: per_batch(phases.checkpoint),
            final_nodes: stats.nodes,
            final_labels: stats.labels,
            epoch: db.epoch(),
        });
    }
    println!("{}", table.render());
    println!(
        "expected shape: every backend ingests the full stream from a completely empty database \
         — node and label names are interned live as they first appear, no bulk load and no \
         vocabulary pre-registration — and ends bit-for-bit equivalent to a bulk build of the \
         same edges (counts and query answers checked above). Throughput tracks X10's apply \
         numbers because ingest IS the apply path; the extra cost of name resolution is one \
         dictionary probe per endpoint. The phase columns (ms/batch) split each apply: \
         prepare = validate + intern, count = graph commit + counting, log = WAL append + \
         fsync (on-disk only), publish = backend delta + page flush + snapshot, checkpoint = \
         graph checkpoint + log truncation; they sum to the apply column bar the loop \
         itself.\n"
    );

    let latency_sweep = latency_sweep(scale, k);
    let report = IngestReport {
        scale,
        k,
        rows,
        latency_sweep,
    };
    write_json("ingest", &report);
    report
}

/// Appends the **same fixed-size batches of brand-new named edges** to a
/// database built at 1× and at 10× the base scale, on all four backends.
/// Fresh endpoints have empty k-neighborhoods, so the counting delta is a
/// constant per batch and the sweep isolates the ingest machinery itself:
/// live interning, chunk publish, backend delta, snapshot swap. O(Δ) end to
/// end means the 10× column stays within ~2× of the 1× column.
fn latency_sweep(base_scale: f64, k: usize) -> Vec<IngestLatencyRow> {
    const BATCH: usize = 64;
    const ROUNDS: usize = 8;
    let scales = [base_scale, base_scale * 10.0];
    let mut rows: Vec<IngestLatencyRow> = Vec::new();
    let mut table = Table::new(vec![
        "backend",
        "scale",
        "entries",
        "apply (ms/batch)",
        "vs 1x",
    ]);
    println!(
        "-- append-latency sweep: {BATCH} brand-new named edges per batch, {ROUNDS} batches, \
         at 1x and 10x database size\n"
    );
    for &scale in &scales {
        let graph = build_advogato(scale);
        // One existing label keeps the delta rule engaged (the new edges are
        // indexable) while fresh endpoints keep Δ constant across scales.
        let label = graph
            .labels()
            .next()
            .and_then(|l| graph.label_name(l))
            .unwrap_or("observes")
            .to_owned();
        for (name, choice) in backend_choices("latency") {
            // Manual histogram refresh for the same reason as X10's publish
            // sweep: the default per-batch histogram rebuild is policy, not
            // the ingest machinery under test.
            let config = PathDbConfig::with_k(k)
                .with_backend(choice)
                .with_histogram_refresh(HistogramRefresh::Manual);
            let db = PathDb::try_build(graph.clone(), config)
                .unwrap_or_else(|e| panic!("{name}: backend build failed: {e}"));
            // Warm up the writer (one-time O(index) counting-index seed that
            // every route pays once, not per-batch ingest cost).
            db.apply(&[GraphUpdate::insert_named(
                format!("x12-{name}-{scale}-warm-a"),
                label.clone(),
                format!("x12-{name}-{scale}-warm-b"),
            )])
            .unwrap_or_else(|e| panic!("{name}: warm-up apply failed: {e}"));

            let batches: Vec<Vec<GraphUpdate>> = (0..ROUNDS)
                .map(|round| {
                    (0..BATCH)
                        .map(|i| {
                            let n = round * BATCH + i;
                            GraphUpdate::insert_named(
                                format!("x12-{name}-{scale}-src-{n}"),
                                label.clone(),
                                format!("x12-{name}-{scale}-dst-{n}"),
                            )
                        })
                        .collect()
                })
                .collect();
            let start = Instant::now();
            for round in &batches {
                db.apply(round)
                    .unwrap_or_else(|e| panic!("{name}: append batch failed: {e}"));
            }
            let apply_ms = start.elapsed().as_secs_f64() * 1e3 / batches.len().max(1) as f64;

            let stats = db.stats();
            let baseline: Option<f64> = rows.iter().find(|r| r.backend == name).map(|r| r.apply_ms);
            let vs_base = match baseline {
                Some(b) => format!("{:.2}x", apply_ms / b.max(1e-9)),
                None => "1.00x".to_owned(),
            };
            table.push_row(vec![
                name.to_string(),
                format!("{scale}"),
                stats.index.entries.to_string(),
                format!("{apply_ms:.3}"),
                vs_base,
            ]);
            rows.push(IngestLatencyRow {
                backend: name.to_string(),
                scale,
                nodes: graph.node_count(),
                edges: graph.edge_count(),
                index_entries: stats.index.entries,
                apply_ms,
            });
        }
    }
    println!("{}", table.render());
    println!(
        "expected shape: the per-batch append latency stays flat (within ~2x) while the \
         database underneath grows an order of magnitude, on all four backends — live \
         vocabulary interning is append-only (no dictionary rebuild), the graph publish \
         rebuilds only the touched chunks, and every backend's index delta is proportional to \
         the batch, not the index. Any remaining O(V+E) step on the apply path would make the \
         10x rows grow with the entries column instead.\n"
    );
    rows
}

crate::impl_to_json!(IngestRow {
    backend,
    batch,
    batches,
    edges,
    apply_ms,
    edges_per_s,
    prepare_ms,
    count_ms,
    log_ms,
    publish_ms,
    checkpoint_ms,
    final_nodes,
    final_labels,
    epoch
});
crate::impl_to_json!(IngestLatencyRow {
    backend,
    scale,
    nodes,
    edges,
    index_entries,
    apply_ms
});
crate::impl_to_json!(IngestReport {
    scale,
    k,
    rows,
    latency_sweep
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ingest_experiment_runs_at_tiny_scale() {
        let report = ingest(0.01, 2);
        // All four backends ingested the full stream from empty...
        let names: Vec<&str> = report.rows.iter().map(|r| r.backend.as_str()).collect();
        assert_eq!(names, ["memory", "paged", "on-disk", "compressed"]);
        for row in &report.rows {
            assert!(row.edges > 0, "{}", row.backend);
            assert!(row.apply_ms > 0.0, "{}", row.backend);
            assert!(row.edges_per_s > 0.0, "{}", row.backend);
            // The phases split the apply time and never exceed it.
            let phased =
                row.prepare_ms + row.count_ms + row.log_ms + row.publish_ms + row.checkpoint_ms;
            assert!(phased > 0.0 && phased <= row.apply_ms, "{}", row.backend);
            assert!(row.final_nodes > 0, "{}", row.backend);
            assert!(row.final_labels > 0, "{}", row.backend);
            // One epoch per applied batch: the stream really went through
            // the live apply path, not a bulk load.
            assert_eq!(row.epoch, row.batches as u64, "{}", row.backend);
        }
        // Only the on-disk backend logs: its log phase (an fsync per batch)
        // outweighs the memory backend's empty one.
        assert!(report.rows[2].log_ms > report.rows[0].log_ms);
        // ...and the latency sweep covers all four backends at 1x and 10x,
        // with the larger point really indexing a much bigger database.
        assert_eq!(report.latency_sweep.len(), 8);
        for backend in ["memory", "paged", "on-disk", "compressed"] {
            let points: Vec<_> = report
                .latency_sweep
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
        assert!(json.contains("\"latency_sweep\""), "{json}");
        assert!(json.contains("\"edges_per_s\""), "{json}");
    }

    #[test]
    fn named_stream_is_shuffled_but_complete() {
        let graph = build_advogato(0.01);
        let stream = named_stream(&graph);
        assert_eq!(stream.len(), graph.edge_count());
        // The shuffle interleaves labels: the first hundred triples are not
        // all the same label (label-major order would make them so).
        let first_labels: std::collections::BTreeSet<&str> = stream
            .iter()
            .take(100)
            .map(|(_, l, _)| l.as_str())
            .collect();
        assert!(first_labels.len() > 1, "stream is not interleaved");
    }
}
