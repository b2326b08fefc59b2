//! Workload `ingest`: the durable write path alone.
//!
//! One writer, closed loop. Each cycle starts from `PathDb::empty` on disk
//! (durable, default checkpoint cadence) and applies a seed-shuffled
//! Advogato-like edge stream as `InsertEdgeNamed` batches; every fourth
//! batch instead deletes edges applied earlier, which the stream re-inserts
//! later, so the final graph is the full one. The cycle ends with
//! `PathDb::close` and timed `PathDb::open`s. Deletes reach B+tree merges
//! and count decrements that an insert-only stream never does. No query
//! runs inside the timed region.

use crate::inputs::{draw_seed, family_union, named_edges, Edge};
use crate::layers::{self, on_disk, pool_stats, ratio, remove_db_files, wal_dir, K};
use crate::report::{Metrics, Samples, MIN_BEYOND};
use crate::rng::{shuffle, SplitMix64};
use crate::sys::{disk_bytes, RunDir};
use crate::trace::Tracer;
use crate::{Outcome, RunConfig};
use pathix_core::{GraphUpdate, PathDb, PathDbConfig, Strategy};
use pathix_datagen::advogato_queries;
use pathix_graph::{Graph, GraphPublishStats};
use std::path::Path;
use std::time::{Duration, Instant};

/// Share of the real network (6 541 nodes, 51 127 edges) of each graph of
/// the stream: 3 × 65 nodes, 3 × 511 edges.
const SCALE: f64 = 0.01;
const POOL_FRAMES: usize = 256;
const BATCH: usize = 32;
/// Every `DELETE_EVERY`-th batch deletes instead of inserting.
const DELETE_EVERY: usize = 4;
/// Set-up prepares `SETUP_DRAWS` seeded streams per round, `SETUP_ROUNDS`
/// rounds; `setup_s` is the median round. One stream's set-up time moves
/// with its graph draw; a sum over draws moves far less. Half the rounds
/// run before the load and half after it: the host's speed shifts in
/// phases of seconds, and rounds on both sides of the run average them.
const SETUP_DRAWS: usize = 8;
const SETUP_ROUNDS: usize = 16;
/// Pages requested straight from the page store in the traced run.
const REPLAY_PAGE_READS: usize = 2000;
/// Timed reopens per cycle; `recovery_s` is their median.
const REOPENS: usize = 21;

/// One batch of the stream: inserts or deletes of named edges.
struct Batch {
    delete: bool,
    edges: Vec<Edge>,
}

impl Batch {
    fn updates(&self) -> Vec<GraphUpdate> {
        self.edges
            .iter()
            .map(|(s, l, d)| {
                if self.delete {
                    GraphUpdate::delete_named(s.clone(), l.clone(), d.clone())
                } else {
                    GraphUpdate::insert_named(s.clone(), l.clone(), d.clone())
                }
            })
            .collect()
    }
}

/// The batch stream of one cycle: the edges in seeded order, with every
/// `DELETE_EVERY`-th batch deleting present edges that go back to the end
/// of the stream. Deletes stop once the stream runs short, so it ends with
/// every edge present.
fn batch_stream(mut edges: Vec<Edge>, rng: &mut SplitMix64) -> Vec<Batch> {
    shuffle(&mut edges, rng);
    let mut pending: std::collections::VecDeque<Edge> = edges.into();
    let mut present: Vec<Edge> = Vec::new();
    let mut batches = Vec::new();
    while !pending.is_empty() {
        let n = batches.len();
        if n % DELETE_EVERY == DELETE_EVERY - 1
            && pending.len() > 2 * BATCH
            && present.len() >= BATCH
        {
            let mut deleted = Vec::with_capacity(BATCH);
            for _ in 0..BATCH {
                let i = rng.below(present.len());
                deleted.push(present.swap_remove(i));
            }
            pending.extend(deleted.iter().cloned());
            batches.push(Batch {
                delete: true,
                edges: deleted,
            });
        } else {
            let take = BATCH.min(pending.len());
            let inserted: Vec<Edge> = pending.drain(..take).collect();
            present.extend(inserted.iter().cloned());
            batches.push(Batch {
                delete: false,
                edges: inserted,
            });
        }
    }
    batches
}

#[derive(Default)]
struct PassStats {
    apply_ms: Samples,
    recovery_s: Samples,
    edges: u64,
    apply_time: Duration,
    batches: u64,
    attempted: u64,
    failed: u64,
    bytes_per_edge: Samples,
    // Traced counters.
    delta_entries: u64,
    write_backs: u64,
    page_copies: u64,
    chunks_rebuilt: u64,
    chunks_shared: u64,
    pool_hits: u64,
    pool_misses: u64,
    evictions: u64,
    read_ahead_pages: u64,
    file_bytes: u64,
    wal_bytes: u64,
    refresh_ms: Samples,
    entries: u64,
    approx_bytes: u64,
    index_pages: u32,
}

/// The A1–A8 answers, by node name, under the default strategy.
fn card(db: &PathDb) -> Result<Vec<Vec<(String, String)>>, String> {
    advogato_queries()
        .iter()
        .map(|q| {
            let result = db
                .run(
                    &q.text,
                    pathix_core::QueryOptions::with_strategy(Strategy::MinSupport),
                )
                .map_err(|e| format!("{}: {e}", q.name))?;
            let mut pairs = result.named_pairs(db);
            pairs.sort_unstable();
            Ok(pairs)
        })
        .collect()
}

pub fn run(config: &RunConfig) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let run_dir =
        RunDir::new(&config.work_dir, "ingest").map_err(|e| format!("run directory: {e}"))?;

    // Set-up rounds, half before the load and half after it (see
    // `SETUP_ROUNDS`).
    let mut setup_s = Samples::new();
    for round in 0..SETUP_ROUNDS / 2 {
        setup_s.push(setup_round(config.seed, run_dir.path(), round)?);
    }
    let graph = family_union(config.seed, SCALE);
    let edges = named_edges(&graph);
    // The end state every cycle must reach, from a bulk build.
    let expected = card(
        &PathDb::try_build(graph, PathDbConfig::with_k(K))
            .map_err(|e| format!("bulk build: {e}"))?,
    )?;

    let mut cycle = 0usize;
    let mut pass_of = |out: &mut Outcome, tracer| {
        run_pass(
            config,
            &edges,
            &expected,
            run_dir.path(),
            &mut cycle,
            out,
            tracer,
        )
    };
    crate::sys::reset_peak_rss();
    if !config.trace {
        let mut pass = pass_of(&mut out, None)?;
        e2e_metrics(&mut out.metrics, &mut pass)?;
    } else {
        let mut plain_pass = pass_of(&mut out, None)?;
        let mut plain = Metrics::new();
        e2e_metrics(&mut plain, &mut plain_pass)?;
        let mut tracer = Tracer::new(Instant::now());
        let mut pass = pass_of(&mut out, Some(&mut tracer))?;
        let mut traced = Metrics::new();
        e2e_metrics(&mut traced, &mut pass)?;
        layers::record_overhead(&mut out.metrics, &plain, &traced);
        let b = pass.batches as f64;
        let m = &mut out.metrics;
        m.set(
            "core.delta_entries_per_edge",
            ratio(pass.delta_entries as f64, pass.edges as f64),
            "count",
            None,
        );
        m.set(
            "core.histogram_refresh_ms",
            pass.refresh_ms.mean(),
            "ms",
            Some(pass.refresh_ms.len()),
        );
        m.set(
            "pagestore.write_backs_per_batch",
            ratio(pass.write_backs as f64, b),
            "count",
            None,
        );
        m.set(
            "pagestore.cow_page_copies_per_batch",
            ratio(pass.page_copies as f64, b),
            "count",
            None,
        );
        m.set(
            "pagestore.pool_hit_ratio",
            ratio(
                pass.pool_hits as f64,
                (pass.pool_hits + pass.pool_misses) as f64,
            ),
            "ratio",
            None,
        );
        m.set("pagestore.evictions", pass.evictions as f64, "count", None);
        m.set(
            "pagestore.read_ahead_pages",
            pass.read_ahead_pages as f64,
            "count",
            None,
        );
        m.set(
            "pagestore.file_bytes",
            pass.file_bytes as f64,
            "bytes",
            None,
        );
        m.set("pagestore.wal_bytes", pass.wal_bytes as f64, "bytes", None);
        m.set(
            "pagestore.index_pages",
            pass.index_pages as f64,
            "count",
            None,
        );
        m.set(
            "graph.chunks_rebuilt_per_batch",
            ratio(pass.chunks_rebuilt as f64, b),
            "count",
            None,
        );
        m.set(
            "graph.chunks_shared_per_batch",
            ratio(pass.chunks_shared as f64, b),
            "count",
            None,
        );
        m.set("index.entries", pass.entries as f64, "count", None);
        m.set(
            "index.approx_bytes",
            pass.approx_bytes as f64,
            "bytes",
            None,
        );
        // No query, cursor or serving tier runs on the write path.
        layers::record_unmeasured(m, &layers::SERVE_METRICS);
        layers::record_unmeasured(
            m,
            &[
                "core.prepare_us",
                "core.plan_us.naive",
                "core.plan_us.semi-naive",
                "core.plan_us.minSupport",
                "core.plan_us.minJoin",
                "core.plan_cache_hit_ratio",
                "core.open_us",
                "core.lookup_over_seek",
                "core.outside_exec_share",
                "exec.drain_ms",
                "exec.pairs_pulled_per_result",
                "exec.merge_join_share",
                "exec.pairs_pulled_per_lookup",
                "index.leaf_scan_ms",
                "index.seek_us",
                "index.chunks_skipped",
                "pagestore.pool_requests_per_lookup",
                "e2e.lookup_p50_ms",
                "e2e.lookup_p90_ms",
                "e2e.lookup_p99_ms",
                "e2e.scan_p50_ms",
                "e2e.scan_p90_ms",
            ],
        );
        // A run applies a few hundred batches: too few for a p99 with ten
        // samples beyond it.
        layers::record_unmeasured(m, &["e2e.op_p99_ms"]);
        layers::record_self_times(&tracer, &mut out.metrics);
        layers::finish_trace(&mut out, &plain, &tracer, config)?;
    }
    if let Some(rss) = crate::sys::peak_rss_mb() {
        out.metrics.set("peak_rss_mb", rss, "MiB", None);
    }
    for round in SETUP_ROUNDS / 2..SETUP_ROUNDS {
        setup_s.push(setup_round(config.seed, run_dir.path(), round)?);
    }
    let setup = setup_s.median().ok_or("no set-up ran")?;
    out.metrics.set("setup_s", setup, "s", Some(setup_s.len()));
    Ok(out)
}

/// One set-up round, in seconds: for each of `SETUP_DRAWS` seeded graph
/// draws, generating the stream's graph, bulk-building the reference
/// database its end state is checked against and computing that database's
/// answer card, and creating an empty durable database.
fn setup_round(seed: u64, dir: &Path, round: usize) -> Result<f64, String> {
    let mut total = Duration::ZERO;
    for draw in 0..SETUP_DRAWS {
        let path = dir.join(format!("setup-{round}-{draw}.pages"));
        let start = Instant::now();
        let graph = family_union(draw_seed(seed, draw), SCALE);
        let reference = PathDb::try_build(graph, PathDbConfig::with_k(K))
            .map_err(|e| format!("bulk build: {e}"))?;
        card(&reference)?;
        let db = PathDb::empty(on_disk(&path, POOL_FRAMES)).map_err(|e| format!("empty: {e}"))?;
        total += start.elapsed();
        drop((reference, db));
        remove_db_files(&path);
    }
    Ok(total.as_secs_f64())
}

fn e2e_metrics(metrics: &mut Metrics, pass: &mut PassStats) -> Result<(), String> {
    metrics.set(
        "ops_per_s",
        pass.edges as f64 / pass.apply_time.as_secs_f64(),
        "1/s",
        Some(pass.edges as usize),
    );
    metrics.set_percentile("op_p50_ms", &mut pass.apply_ms, 0.5, "ms")?;
    metrics.set_percentile("op_p90_ms", &mut pass.apply_ms, 0.9, "ms")?;
    metrics.alias("edges_per_s", "ops_per_s");
    metrics.set_percentile("e2e.write_p50_ms", &mut pass.apply_ms, 0.5, "ms")?;
    metrics.set_percentile("e2e.write_p90_ms", &mut pass.apply_ms, 0.9, "ms")?;
    metrics.set_percentile("e2e.recovery_s", &mut pass.recovery_s, 0.5, "s")?;
    metrics.set(
        "e2e.disk_bytes_per_edge",
        pass.bytes_per_edge.mean(),
        "bytes",
        Some(pass.bytes_per_edge.len()),
    );
    Ok(())
}

/// Whole cycles, each streaming `edges` in a fresh seeded order, until
/// `config.seconds` of apply time has passed.
fn run_pass(
    config: &RunConfig,
    edges: &[Edge],
    expected: &[Vec<(String, String)>],
    dir: &Path,
    cycle: &mut usize,
    out: &mut Outcome,
    mut tracer: Option<&mut Tracer>,
) -> Result<PassStats, String> {
    let mut pass = PassStats::default();
    let mut request = 0;
    // At least enough batches for the tail percentile, however short the run.
    while pass.apply_time < config.seconds || pass.apply_ms.len() < 10 * MIN_BEYOND {
        // The traced pass replays its first cycle into the graph and page
        // store layers on their own.
        let replay_cycle = tracer.is_some() && pass.batches == 0;
        let mut published = Vec::new();
        let mut rng = SplitMix64::for_stream(config.seed, &format!("stream-{cycle}"));
        let batches = batch_stream(edges.to_vec(), &mut rng);
        let path = dir.join(format!("cycle-{cycle}.pages"));
        *cycle += 1;
        let db = PathDb::empty(on_disk(&path, POOL_FRAMES)).map_err(|e| format!("empty: {e}"))?;
        let pool_start = pool_stats(&db);
        let cow_start = db.stats().storage.cow.unwrap_or_default();
        for batch in &batches {
            let updates = batch.updates();
            let start = Instant::now();
            let applied = db.apply(&updates);
            let done = Instant::now();
            pass.apply_ms.push_ms(done - start);
            pass.apply_time += done - start;
            pass.attempted += 1;
            pass.batches += 1;
            let stats = match applied {
                Ok(stats) => stats,
                Err(e) => return Err(format!("apply: {e}")),
            };
            pass.edges += stats.inserted + stats.deleted;
            if stats.inserted + stats.deleted != batch.edges.len() as u64 {
                pass.failed += 1;
            }
            if let Some(tracer) = tracer.as_deref_mut() {
                request += 1;
                tracer.record("core.apply", "core", start, done, None, request);
                pass.delta_entries += stats.delta_entries;
                let publish = db.stats().graph_publish;
                pass.chunks_rebuilt += publish.chunks_rebuilt as u64;
                pass.chunks_shared += publish.chunks_shared as u64;
                if replay_cycle {
                    published.push(publish);
                }
            }
        }
        if let (true, Some(tracer)) = (replay_cycle, tracer.as_deref_mut()) {
            check_graph_commits(&batches, &published, tracer, out);
        }
        let live_edges = db.stats().edges;
        let bytes = disk_bytes(&path) + disk_bytes(&wal_dir(&path));
        pass.bytes_per_edge
            .push(ratio(bytes as f64, live_edges as f64));
        if tracer.is_some() {
            let pool = pool_stats(&db);
            let cow = db.stats().storage.cow.unwrap_or_default();
            pass.pool_hits += pool.hits - pool_start.hits;
            pass.pool_misses += pool.misses - pool_start.misses;
            pass.evictions += pool.evictions - pool_start.evictions;
            pass.read_ahead_pages += pool.read_ahead_pages - pool_start.read_ahead_pages;
            pass.write_backs += pool.write_backs - pool_start.write_backs;
            pass.page_copies += cow.page_copies - cow_start.page_copies;
            pass.file_bytes = disk_bytes(&path);
            pass.wal_bytes = disk_bytes(&wal_dir(&path));
            let stats = db.stats();
            pass.entries = stats.index.entries;
            pass.approx_bytes = stats.index.approx_bytes;
            pass.index_pages = db
                .index()
                .as_paged()
                .map_or(0, |paged| paged.stats().tree.pages);
            for _ in 0..5 {
                let start = Instant::now();
                db.refresh_histogram();
                pass.refresh_ms.push_ms(start.elapsed());
            }
        }

        // End state, outside the timed region: the card against a bulk
        // build of the same edges, and a clean audit, before and after the
        // timed reopens.
        check_end_state(&db, expected, "after the stream", out)?;
        db.close().map_err(|e| format!("close: {e}"))?;
        drop(db);
        if let (true, Some(tracer)) = (replay_cycle, tracer.as_deref_mut()) {
            let mut replay_request = u64::MAX / 2;
            layers::replay_page_reads(
                &path,
                POOL_FRAMES,
                &mut SplitMix64::for_stream(config.seed, "page-reads"),
                REPLAY_PAGE_READS,
                tracer,
                &mut replay_request,
                out,
            )?;
        }
        let mut reopened = None;
        for _ in 0..REOPENS {
            drop(reopened.take());
            let start = Instant::now();
            let db = PathDb::open(on_disk(&path, POOL_FRAMES)).map_err(|e| format!("open: {e}"))?;
            pass.recovery_s.push(start.elapsed().as_secs_f64());
            db.close().map_err(|e| format!("close: {e}"))?;
            reopened = Some(db);
        }
        if let Some(db) = reopened {
            check_end_state(&db, expected, "after reopening", out)?;
        }
        remove_db_files(&path);
    }
    out.attempted += pass.attempted;
    out.failed += pass.failed;
    Ok(pass)
}

/// Replays a cycle's batches straight into the graph layer, on a graph of
/// its own, and checks that every commit re-shared and rebuilt exactly what
/// the database's commit of the same batch reported.
fn check_graph_commits(
    batches: &[Batch],
    published: &[GraphPublishStats],
    tracer: &mut Tracer,
    out: &mut Outcome,
) {
    let updates: Vec<Vec<GraphUpdate>> = batches.iter().map(Batch::updates).collect();
    let mut request = u64::MAX / 4;
    let replayed = layers::replay_graph_commits(Graph::empty(), &updates, tracer, &mut request);
    let differing = replayed
        .iter()
        .zip(published)
        .filter(|(a, b)| (a.chunks_rebuilt, a.chunks_shared) != (b.chunks_rebuilt, b.chunks_shared))
        .count();
    out.check(replayed.len() == published.len() && differing == 0, || {
        format!(
            "{differing} of {} batches rebuilt or re-shared other chunks in the graph layer \
                 than in the database",
            published.len()
        )
    });
}

fn check_end_state(
    db: &PathDb,
    expected: &[Vec<(String, String)>],
    when: &str,
    out: &mut Outcome,
) -> Result<(), String> {
    let audit = db.audit();
    out.check(audit.is_clean(), || {
        format!("audit {when}: {:?}", audit.violations())
    });
    let answers = card(db)?;
    for (i, (got, want)) in answers.iter().zip(expected).enumerate() {
        out.check(got == want, || {
            format!(
                "A{} {when}: {} pairs, the bulk build has {}",
                i + 1,
                got.len(),
                want.len()
            )
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_stream_ends_with_every_edge_present() {
        let edges: Vec<Edge> = (0..300)
            .map(|i| (format!("s{i}"), "l".to_string(), format!("d{i}")))
            .collect();
        let batches = batch_stream(edges.clone(), &mut SplitMix64::for_stream(1, "t"));
        let mut present = std::collections::BTreeSet::new();
        for batch in &batches {
            for e in &batch.edges {
                if batch.delete {
                    assert!(present.remove(e), "deleted an absent edge");
                } else {
                    assert!(present.insert(e.clone()), "inserted a present edge");
                }
            }
        }
        assert_eq!(present.len(), edges.len());
        assert!(batches.iter().any(|b| b.delete));
        let again = batch_stream(edges, &mut SplitMix64::for_stream(1, "t"));
        assert_eq!(again.len(), batches.len());
        assert!(again.iter().zip(&batches).all(|(a, b)| a.edges == b.edges));
    }
}
