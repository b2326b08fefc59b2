//! Readings shared by the workloads: the on-disk database's files and pool
//! counters, direct index scans of a plan's leaves, replays straight into
//! the graph and page-store layers, self time per layer, and the end of a
//! traced run.

use crate::report::{Metrics, Samples};
use crate::rng::SplitMix64;
use crate::trace::Tracer;
use crate::{Outcome, RunConfig};
use pathix_core::{
    BackendChoice, GraphUpdate, IndexBackend, PathDb, PathDbConfig, PathIndexBackend, PhysicalPlan,
    PoolStats, SignedLabel, Strategy,
};
use pathix_exec::ScanOrientation;
use pathix_graph::{EdgeOp, Graph, GraphPublishStats};
use pathix_index::PairBatch;
use pathix_pagestore::{BufferPool, DiskManager, PageId};
use pathix_rpq::ast::inverse_path;
use std::path::{Path, PathBuf};

/// Every workload indexes paths of up to two labels.
pub const K: usize = 2;

/// A durable on-disk database at `path` with a pool of `frames` pages.
pub fn on_disk(path: &Path, frames: usize) -> PathDbConfig {
    PathDbConfig::with_k(K).with_backend(BackendChoice::OnDisk {
        path: path.to_path_buf(),
        pool_frames: frames,
    })
}

/// The write-ahead log directory next to a page file.
pub fn wal_dir(page_path: &Path) -> PathBuf {
    let mut name = page_path.as_os_str().to_os_string();
    name.push(".wal");
    PathBuf::from(name)
}

/// Removes a page file and the log and checkpoint next to it.
pub fn remove_db_files(page_path: &Path) {
    let _ = std::fs::remove_file(page_path);
    let _ = std::fs::remove_dir_all(wal_dir(page_path));
    let mut checkpoint = page_path.as_os_str().to_os_string();
    checkpoint.push(".graph");
    let _ = std::fs::remove_file(PathBuf::from(checkpoint));
}

/// The buffer-pool counters of an on-disk database (zero off the paged
/// backends).
pub fn pool_stats(db: &PathDb) -> PoolStats {
    db.index()
        .as_paged()
        .map(|paged| paged.pool_stats())
        .unwrap_or_default()
}

/// The buffer-pool counters and copy-on-write page copies of `dbs`,
/// summed; zero for a database without a buffer pool (the memory backend).
pub fn storage_counters(dbs: &[PathDb]) -> (PoolStats, u64) {
    let mut pool = PoolStats::default();
    let mut page_copies = 0;
    for db in dbs {
        let p = pool_stats(db);
        pool.hits += p.hits;
        pool.misses += p.misses;
        pool.evictions += p.evictions;
        pool.write_backs += p.write_backs;
        pool.read_ahead_pages += p.read_ahead_pages;
        page_copies += db.stats().storage.cow.map_or(0, |cow| cow.page_copies);
    }
    (pool, page_copies)
}

/// Pages of the on-disk B+tree (zero off the paged backends).
pub fn index_pages(db: &PathDb) -> u32 {
    db.index()
        .as_paged()
        .map_or(0, |paged| paged.stats().tree.pages)
}

/// The index paths a plan's leaves scan, in the orientation they read.
pub fn leaf_paths(plan: &PhysicalPlan, out: &mut Vec<Vec<SignedLabel>>) {
    match plan {
        PhysicalPlan::IndexScan { path, orientation } => out.push(match orientation {
            ScanOrientation::Forward => path.clone(),
            ScanOrientation::Inverse => inverse_path(path),
        }),
        PhysicalPlan::Epsilon => {}
        PhysicalPlan::Join { left, right, .. } => {
            leaf_paths(left, out);
            leaf_paths(right, out);
        }
        PhysicalPlan::Union(children) => {
            for child in children {
                leaf_paths(child, out);
            }
        }
    }
}

/// Drains `scan_path_batches(path)` on `index`, returning the pairs read.
pub fn drain_leaf(index: &IndexBackend, path: &[SignedLabel]) -> Result<usize, String> {
    let mut scan = index
        .scan_path_batches(path)
        .map_err(|e| format!("leaf scan: {e}"))?;
    let mut batch = PairBatch::new();
    let mut pairs = 0;
    loop {
        let n = scan
            .next_batch(&mut batch)
            .map_err(|e| format!("leaf scan: {e}"))?;
        if n == 0 {
            return Ok(pairs);
        }
        pairs += n;
    }
}

/// Records `self.<layer>_ms` for every layer: the self time of the
/// layer's spans, per request that has a span in the layer. Call it after
/// every replay, so the replays' spans count.
pub fn record_self_times(tracer: &Tracer, metrics: &mut Metrics) {
    let by_layer = tracer.self_ms_per_request();
    for (name, layer) in [
        ("self.gen_ms", "gen"),
        ("self.serve_ms", "serve"),
        ("self.core_ms", "core"),
        ("self.rpq_ms", "rpq"),
        ("self.plan_ms", "plan"),
        ("self.exec_ms", "exec"),
        ("self.index_ms", "index"),
        ("self.pagestore_ms", "pagestore"),
        ("self.graph_ms", "graph"),
    ] {
        let (ms, requests) = by_layer.get(layer).copied().unwrap_or((0.0, 0));
        metrics.set(name, ms, "ms", Some(requests));
    }
    metrics.set("trace.spans", tracer.spans().len() as f64, "count", None);
}

/// Records each of `names` as 0, in the unit `BENCHMARK.json` declares for
/// it: the workload does not measure these, and the call site says why
/// (mostly: it never calls the layer they read). Each workload lists its
/// own, so a metric no workload records fails the result line instead of
/// reading 0.
pub fn record_unmeasured(metrics: &mut Metrics, names: &[&str]) {
    let declared = crate::report::declared("per_layer");
    for name in names {
        let unit = declared
            .iter()
            .find(|(declared, _)| declared == name)
            .map(|&(_, unit)| unit)
            .unwrap_or_else(|| panic!("{name} is not a declared per-layer metric"));
        metrics.set(name, 0.0, unit, None);
    }
}

/// Compiles each of `queries` and plans it under every strategy, `repeats`
/// times, on a fresh memory database over `graph` that has no plan cache,
/// so nothing is reused: `core.prepare_us` (spans in `rpq`) and
/// `core.plan_us.<strategy>` (spans in `plan`).
pub fn replay_planning(
    graph: Graph,
    queries: &[&str],
    repeats: usize,
    tracer: &mut Tracer,
    request: &mut u64,
    out: &mut Outcome,
) -> Result<(), String> {
    let uncached = PathDbConfig {
        plan_cache_capacity: 0,
        ..PathDbConfig::with_k(K)
    };
    let db = PathDb::try_build(graph, uncached).map_err(|e| format!("planning database: {e}"))?;
    let mut prepare_us = Samples::new();
    let mut plan_us: Vec<Samples> = vec![Samples::new(); Strategy::all().len()];
    for query in queries {
        for _ in 0..repeats {
            *request += 1;
            let (fresh, span) =
                tracer.span("core.prepare", "rpq", None, *request, || db.prepare(query));
            prepare_us.push(tracer.duration_ms(span) * 1e3);
            let fresh = fresh.map_err(|e| format!("prepare {query}: {e}"))?;
            for (slot, strategy) in Strategy::all().into_iter().enumerate() {
                let (planned, span) = tracer.span("core.plan", "plan", None, *request, || {
                    fresh.plan(&db, strategy)
                });
                planned.map_err(|e| format!("plan {query}: {e}"))?;
                plan_us[slot].push(tracer.duration_ms(span) * 1e3);
            }
        }
    }
    let m = &mut out.metrics;
    m.set(
        "core.prepare_us",
        prepare_us.mean(),
        "us",
        Some(prepare_us.len()),
    );
    for (slot, strategy) in Strategy::all().into_iter().enumerate() {
        let name = format!("core.plan_us.{}", strategy.name());
        m.set(&name, plan_us[slot].mean(), "us", Some(plan_us[slot].len()));
    }
    Ok(())
}

/// The serving tier's metrics, for the workloads that start no `Server`.
pub const SERVE_METRICS: [&str; 7] = [
    "serve.queue_wait_p50_ms",
    "serve.queue_wait_p99_ms",
    "serve.service_p50_ms",
    "serve.shed",
    "serve.deadline_exceeded",
    "serve.max_in_flight",
    "gen.late_p99_ms",
];

/// Applies `batches` of named updates to `graph` through the graph layer's
/// own write path, one `graph.commit` span per batch: `Graph::vocab_batch`,
/// names interned in the order `PathDb::apply` interns them (source, label,
/// target; a delete resolves names without interning), then
/// `Graph::commit_batch`. Returns what each commit re-shared and rebuilt.
pub fn replay_graph_commits(
    mut graph: Graph,
    batches: &[Vec<GraphUpdate>],
    tracer: &mut Tracer,
    request: &mut u64,
) -> Vec<GraphPublishStats> {
    let mut published = Vec::with_capacity(batches.len());
    for updates in batches {
        *request += 1;
        let (next, _) = tracer.span("graph.commit", "graph", None, *request, || {
            let mut vocab = graph.vocab_batch();
            let mut ops = Vec::with_capacity(updates.len());
            for update in updates {
                match update {
                    GraphUpdate::InsertEdgeNamed { src, label, dst } => {
                        let s = vocab.intern_node(src);
                        let l = vocab.intern_label(label);
                        let d = vocab.intern_node(dst);
                        ops.push(EdgeOp::insert(s, l, d));
                    }
                    GraphUpdate::DeleteEdgeNamed { src, label, dst } => {
                        if let (Some(s), Some(l), Some(d)) = (
                            vocab.node_id(src),
                            vocab.label_id(label),
                            vocab.node_id(dst),
                        ) {
                            ops.push(EdgeOp::delete(s, l, d));
                        }
                    }
                    other => ops.extend(other.as_op()),
                }
            }
            graph.commit_batch(vocab, &ops)
        });
        published.push(next.last_publish_stats());
        graph = next;
    }
    published
}

/// Requests `count` seeded pages of the page file at `path` through a
/// fresh buffer pool of `frames` frames, straight through the page store's
/// API (`DiskManager::open`, `BufferPool::with_page`), one
/// `pagestore.page_read` span each. The pool's counters are checked against
/// two counts kept elsewhere: the requests made here, and the pages the
/// disk manager read.
pub fn replay_page_reads(
    path: &Path,
    frames: usize,
    rng: &mut SplitMix64,
    count: usize,
    tracer: &mut Tracer,
    request: &mut u64,
    out: &mut Outcome,
) -> Result<(), String> {
    let disk = DiskManager::open(path).map_err(|e| format!("opening the page file: {e}"))?;
    let pages = disk.num_pages() as usize;
    if pages == 0 {
        return Err("the page file is empty".to_string());
    }
    let pool = BufferPool::new(disk, frames);
    let (before, disk_before) = (pool.stats(), pool.disk_stats());
    let mut distinct = std::collections::HashSet::new();
    for _ in 0..count {
        let page = PageId(rng.below(pages) as u32);
        distinct.insert(page);
        *request += 1;
        let (read, _) = tracer.span("pagestore.page_read", "pagestore", None, *request, || {
            pool.with_page(page, |bytes| bytes[0])
        });
        read.map_err(|e| format!("reading page {}: {e}", page.0))?;
    }
    let (after, disk_after) = (pool.stats(), pool.disk_stats());
    let hits = after.hits - before.hits;
    let misses = after.misses - before.misses;
    let read_ahead = after.read_ahead_pages - before.read_ahead_pages;
    let reads = disk_after.reads - disk_before.reads;
    out.check(hits + misses == count as u64, || {
        format!("{count} page requests, the pool counted {hits} hits and {misses} misses")
    });
    out.check(misses + read_ahead == reads, || {
        format!(
            "the pool counted {misses} misses and {read_ahead} read-ahead pages, the disk \
             manager read {reads} pages"
        )
    });
    out.check(misses >= distinct.len() as u64, || {
        format!(
            "{} distinct pages requested from a cold pool, only {misses} misses",
            distinct.len()
        )
    });
    Ok(())
}

/// `trace.overhead_*`: traced ÷ untraced, as time ratios (above 1 means
/// tracing costs time).
pub fn record_overhead(metrics: &mut Metrics, plain: &Metrics, traced: &Metrics) {
    let get = |m: &Metrics, name| m.get(name).unwrap_or(0.0);
    let time_ratios = [
        (
            "trace.overhead_ratio",
            get(plain, "ops_per_s"),
            get(traced, "ops_per_s"),
        ),
        (
            "trace.overhead_p50_ratio",
            get(traced, "op_p50_ms"),
            get(plain, "op_p50_ms"),
        ),
        (
            "trace.overhead_p90_ratio",
            get(traced, "op_p90_ms"),
            get(plain, "op_p90_ms"),
        ),
    ];
    for (name, numerator, denominator) in time_ratios {
        metrics.set(name, ratio(numerator, denominator), "ratio", None);
    }
}

/// Ends a traced run: reports the untraced pass's `e2e.*` figures, the
/// error ratio and whether every reconciliation check passed, and writes
/// the spans to `<work dir>/trace-<workload>-<seed>.tsv`.
pub fn finish_trace(
    out: &mut Outcome,
    plain: &Metrics,
    tracer: &Tracer,
    config: &RunConfig,
) -> Result<(), String> {
    out.metrics.copy_prefixed(plain, "e2e.");
    out.metrics.set(
        "e2e.error_ratio",
        ratio(out.failed as f64, out.attempted as f64),
        "ratio",
        None,
    );
    out.metrics.set(
        "trace.reconciled",
        f64::from(u8::from(out.check_failures.is_empty())),
        "count",
        None,
    );
    let path = config.work_dir.join(format!(
        "trace-{}-{}.tsv",
        config.workload.name(),
        config.seed
    ));
    tracer
        .write_tsv(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))
}

/// `numerator / denominator`, or 0 when nothing was counted.
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}
