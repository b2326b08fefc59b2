//! Experiment **X11** (extension): the vectorized scan/join engine versus
//! pair-at-a-time execution, swept across all four storage backends.
//!
//! Three workload families per backend over the same Advogato-like graph:
//!
//! * **unbound-scan** — drain one hot 2-path of the index. Baseline pulls
//!   the operator tree one pair at a time ([`execute_pairwise`]); the
//!   vectorized engine pulls [`PairBatch`]-sized slices straight out of the
//!   backend ([`execute`]).
//! * **bound-probe** — `source = ?` lookups on the same path. Baseline is
//!   what an engine without skip metadata must do: decode the whole path
//!   list and filter. The vectorized path uses the per-chunk min/max fences,
//!   the per-path source bloom and the per-segment fences of the compressed
//!   store to bypass everything the probe cannot match.
//! * **join-2/3/4** — left-deep composition chains of single-label scans,
//!   pairwise versus batched.
//!
//! Each row reports the skip counters the batched run generated
//! (`chunks_skipped` on the memory backend, `blocks_skipped` on the
//! compressed store, `read_ahead_pages` on the paged backends) so the
//! speedups are attributable to work actually bypassed, not just loop
//! overhead.
//!
//! [`PairBatch`]: pathix_index::backend::PairBatch

use crate::datasets::build_advogato;
use crate::report::{write_json, Table};
use pathix_core::{
    BackendChoice, NodeId, PathDb, PathDbConfig, PathIndexBackend, PhysicalPlan, SignedLabel,
};
use pathix_plan::{execute, execute_pairwise};
use std::time::Instant;

/// One `(backend, workload)` measurement.
#[derive(Debug, Clone)]
pub struct ScanJoinRow {
    /// Backend short name (`memory`, `paged`, `on-disk`, `compressed`).
    pub backend: String,
    /// Workload short name (`unbound-scan`, `bound-probe`, `join-2`, …).
    pub workload: String,
    /// Result pairs (or probe hits) the workload produces, as a sanity
    /// anchor that both routes did the same work.
    pub result_pairs: usize,
    /// Pair-at-a-time (or decode-and-filter) time, in milliseconds.
    pub baseline_ms: f64,
    /// Vectorized time, in milliseconds.
    pub batched_ms: f64,
    /// `baseline_ms / batched_ms`.
    pub speedup: f64,
    /// Memory-backend chunks the batched run skipped via fences/bloom.
    pub chunks_skipped: u64,
    /// Compressed-store segments the batched run skipped via fences.
    pub blocks_skipped: u64,
    /// Pages the paged backends pulled in via read-ahead during the run.
    pub read_ahead_pages: u64,
}

/// The X11 report.
#[derive(Debug, Clone)]
pub struct ScanJoinReport {
    /// Advogato-like scale factor.
    pub scale: f64,
    /// Locality parameter used.
    pub k: usize,
    /// All rows, grouped by backend.
    pub rows: Vec<ScanJoinRow>,
}

/// Mean wall-clock milliseconds of `f` over a warmup run plus `reps` timed
/// runs.
fn time_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let _ = f();
    let start = Instant::now();
    for _ in 0..reps {
        let _ = f();
    }
    start.elapsed().as_secs_f64() * 1e3 / reps.max(1) as f64
}

/// Probe sources: a spread of real node ids plus ids past the node range, so
/// the fences and the bloom both get exercised (present sources skip the
/// chunks before/after their run, absent sources are rejected outright).
fn probe_sources(node_count: usize, probes: usize) -> Vec<NodeId> {
    let step = (node_count / probes.max(1)).max(1);
    let mut sources: Vec<NodeId> = (0..node_count)
        .step_by(step)
        .take(probes)
        .map(|i| NodeId(i as u32))
        .collect();
    for i in 0..probes / 4 {
        sources.push(NodeId(u32::MAX - 1 - i as u32));
    }
    sources
}

/// Runs the vectorized-engine experiment at the given scale with locality
/// `k` (the hot paths are 2-paths, so `k` must be ≥ 2).
pub fn scan_join(scale: f64, k: usize) -> ScanJoinReport {
    assert!(k >= 2, "scan_join probes 2-paths; build with k >= 2");
    let graph = build_advogato(scale);
    println!(
        "== X11: vectorized scan/join engine vs pair-at-a-time (scale {scale}: {} nodes, {} \
         edges, k = {k})\n",
        graph.node_count(),
        graph.edge_count()
    );

    let journeyer = SignedLabel::forward(
        graph
            .label_id("journeyer")
            .unwrap_or_else(|| graph.labels().next().expect("graph has labels")),
    );
    let hot_path: Vec<SignedLabel> = vec![journeyer, journeyer];
    let leaf = || PhysicalPlan::scan(hot_path.clone());
    // Join chains compose 1-path leaves: a dense social graph's 2-path
    // relation composed four times approaches the full cross product, which
    // would measure materialization, not join advancement.
    let jleaf = || PhysicalPlan::scan(vec![journeyer]);
    let join2 = PhysicalPlan::compose(jleaf(), jleaf());
    let join3 = PhysicalPlan::compose(join2.clone(), jleaf());
    let join4 = PhysicalPlan::compose(join3.clone(), jleaf());
    // Few probes at bench scale keep the decode-everything baseline (the
    // whole point of the comparison) from dominating the harness runtime.
    let sources = probe_sources(graph.node_count(), if scale < 0.05 { 16 } else { 48 });
    let reps = 2usize;

    let disk_path = std::env::temp_dir().join(format!("pathix-x11-{}.pages", std::process::id()));
    // Small buffer pools: the index must not fit, otherwise the warmup runs
    // leave every page resident and neither route touches the page store
    // (read-ahead would measure nothing).
    let choices: Vec<(&str, BackendChoice)> = vec![
        ("memory", BackendChoice::Memory),
        ("paged", BackendChoice::PagedInMemory { pool_frames: 64 }),
        (
            "on-disk",
            BackendChoice::OnDisk {
                path: disk_path.clone(),
                pool_frames: 64,
            },
        ),
        ("compressed", BackendChoice::Compressed),
    ];

    let mut rows = Vec::new();
    let mut table = Table::new(vec![
        "backend",
        "workload",
        "pairs",
        "baseline (ms)",
        "batched (ms)",
        "speedup",
        "chunks skip",
        "blocks skip",
        "read-ahead",
    ]);
    for (name, choice) in choices {
        let db = PathDb::try_build(graph.clone(), PathDbConfig::with_k(k).with_backend(choice))
            .expect("backend build failed");
        let snapshot = db.snapshot();
        let index = snapshot.index();

        let mut push = |workload: &str,
                        result_pairs: usize,
                        baseline_ms: f64,
                        batched_ms: f64,
                        before: pathix_core::StorageStats| {
            let after = db.stats().storage;
            let row = ScanJoinRow {
                backend: name.to_string(),
                workload: workload.to_string(),
                result_pairs,
                baseline_ms,
                batched_ms,
                speedup: baseline_ms / batched_ms.max(1e-9),
                chunks_skipped: after.chunks_skipped.saturating_sub(before.chunks_skipped),
                blocks_skipped: after.blocks_skipped.saturating_sub(before.blocks_skipped),
                read_ahead_pages: after
                    .read_ahead_pages
                    .saturating_sub(before.read_ahead_pages),
            };
            eprintln!(
                "   {}/{}: {:.3} ms -> {:.3} ms ({:.1}x)",
                row.backend, row.workload, row.baseline_ms, row.batched_ms, row.speedup
            );
            table.push_row(vec![
                row.backend.clone(),
                row.workload.clone(),
                row.result_pairs.to_string(),
                format!("{:.3}", row.baseline_ms),
                format!("{:.3}", row.batched_ms),
                format!("{:.1}x", row.speedup),
                row.chunks_skipped.to_string(),
                row.blocks_skipped.to_string(),
                row.read_ahead_pages.to_string(),
            ]);
            rows.push(row);
        };

        // Unbound scan: one hot path, drained whole.
        let plan = leaf();
        let baseline_ms = time_ms(reps, || execute_pairwise(&plan, index).unwrap());
        let before = db.stats().storage;
        let batched_ms = time_ms(reps, || execute(&plan, index).unwrap());
        let pairs = execute(&plan, index).unwrap().len();
        assert_eq!(
            execute_pairwise(&plan, index).unwrap().len(),
            pairs,
            "{name}: unbound scan routes disagree"
        );
        push("unbound-scan", pairs, baseline_ms, batched_ms, before);

        // Bound probes: the decode-and-filter baseline against the fenced
        // `scan_path_from` fast path, over the same probe set.
        let filter_probe = |s: NodeId| -> usize {
            let mut hits = 0usize;
            for pair in index.scan_path(&hot_path).unwrap() {
                let (src, _) = pair.unwrap();
                match src.cmp(&s) {
                    std::cmp::Ordering::Less => {}
                    std::cmp::Ordering::Equal => hits += 1,
                    std::cmp::Ordering::Greater => break,
                }
            }
            hits
        };
        let fenced_probe = |s: NodeId| index.scan_path_from(&hot_path, s).unwrap().len();
        for &s in sources.iter().step_by(8) {
            assert_eq!(
                filter_probe(s),
                fenced_probe(s),
                "{name}: probe routes disagree on source {s:?}"
            );
        }
        let baseline_ms = time_ms(reps, || {
            sources.iter().map(|&s| filter_probe(s)).sum::<usize>()
        });
        let before = db.stats().storage;
        let batched_ms = time_ms(reps, || {
            sources.iter().map(|&s| fenced_probe(s)).sum::<usize>()
        });
        let hits = sources.iter().map(|&s| fenced_probe(s)).sum::<usize>();
        push("bound-probe", hits, baseline_ms, batched_ms, before);

        // Join chains: each join reads the previous one as its left input.
        for (workload, plan) in [("join-2", &join2), ("join-3", &join3), ("join-4", &join4)] {
            let baseline_ms = time_ms(reps, || execute_pairwise(plan, index).unwrap());
            let before = db.stats().storage;
            let batched_ms = time_ms(reps, || execute(plan, index).unwrap());
            let pairs = execute(plan, index).unwrap();
            let pairwise = execute_pairwise(plan, index).unwrap();
            assert_eq!(pairs, pairwise, "{name}: {workload} routes disagree");
            push(workload, pairs.len(), baseline_ms, batched_ms, before);
        }
    }
    println!("{}", table.render());
    println!(
        "expected shape: batched execution beats pair-at-a-time on every backend — unbound scans \
         and join chains save the per-pair virtual dispatch (the operators move {}-pair slices), \
         and bound probes win structurally: the baseline decodes the whole path list per probe \
         while the fences, the source bloom and the segment min/max bounds let the index bypass \
         every chunk the probe cannot match (the skip columns count exactly that). The paged \
         backends additionally prefetch upcoming leaves during range scans (read-ahead column).\n",
        pathix_index::backend::BATCH_CAPACITY
    );

    let _ = std::fs::remove_file(&disk_path);
    let report = ScanJoinReport { scale, k, rows };
    write_json("scan_join", &report);
    report
}

crate::impl_to_json!(ScanJoinRow {
    backend,
    workload,
    result_pairs,
    baseline_ms,
    batched_ms,
    speedup,
    chunks_skipped,
    blocks_skipped,
    read_ahead_pages
});
crate::impl_to_json!(ScanJoinReport { scale, k, rows });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scan_join_experiment_runs_at_tiny_scale() {
        let report = scan_join(0.01, 2);
        // 4 backends x 5 workloads.
        assert_eq!(report.rows.len(), 20);
        let names: Vec<&str> = report
            .rows
            .iter()
            .map(|r| r.backend.as_str())
            .collect::<Vec<_>>();
        for backend in ["memory", "paged", "on-disk", "compressed"] {
            assert_eq!(names.iter().filter(|n| **n == backend).count(), 5);
        }
        for row in &report.rows {
            assert!(row.baseline_ms > 0.0, "{}/{}", row.backend, row.workload);
            assert!(row.batched_ms > 0.0, "{}/{}", row.backend, row.workload);
            assert!(row.speedup > 0.0, "{}/{}", row.backend, row.workload);
        }
        // The probes exercise the skip machinery: the memory backend skips
        // chunks (the absent probe sources are bloom-rejected), and the
        // compressed store skips fenced segments.
        let probe = |backend: &str| {
            report
                .rows
                .iter()
                .find(|r| r.backend == backend && r.workload == "bound-probe")
                .expect("probe row")
        };
        assert!(probe("memory").chunks_skipped > 0);
        assert!(probe("compressed").blocks_skipped > 0);
        // Machine-readable output for the CI artifact.
        use crate::report::ToJson;
        let json = report.to_json();
        assert!(json.contains("\"speedup\""), "{json}");
        assert!(json.contains("\"bound-probe\""), "{json}");
    }
}
