//! Workload `analytic`: the paper's Figure-2 card.
//!
//! A closed loop with one client runs A1–A8 under all four strategies, over
//! and over, on the memory backend. Every (query, strategy) pair is prepared
//! once; each operation is one `PreparedQuery::run`. The work is planning and
//! operator joins over memory chunks; the serving tier, the page store and
//! the writer are never called, so a change confined to them must leave
//! these figures unchanged.

use crate::inputs::advogato_config;
use crate::layers::{self, ratio, K};
use crate::report::{Metrics, Samples};
use crate::rng::{shuffle, SplitMix64};
use crate::trace::Tracer;
use crate::{Outcome, RunConfig};
use pathix_core::{PathDb, PathDbConfig, PreparedQuery, QueryOptions, Strategy};
use pathix_datagen::{advogato_like, advogato_queries};
use std::time::{Duration, Instant};

/// Share of the real Advogato network (6 541 nodes, 51 127 edges).
const SCALE: f64 = 0.02;
/// Graphs in the family one run measures, one database each.
const GRAPHS: usize = 32;
/// Set-up rounds per run, each building the whole family; `setup_s` is
/// the median round. Half the rounds run before the load and half after
/// it: the host's speed shifts in phases of seconds, and rounds on both
/// sides of the run average them.
const SETUP_ROUNDS: usize = 16;
/// Repetitions of each replayed call in the traced run.
const REPLAY_REPEATS: usize = 20;
/// Repetitions of each entry's leaf scans in the traced run.
const LEAF_REPEATS: usize = 5;

struct Entry {
    graph: usize,
    query: String,
    strategy: Strategy,
    prepared: PreparedQuery,
    /// Answer count of the automaton baseline, computed once at set-up.
    expected: usize,
}

#[derive(Default)]
struct LoopStats {
    latency_ms: Samples,
    elapsed: Duration,
    attempted: u64,
    failed: u64,
    /// Execution time per entry, as the query reported it.
    drain_ms: Vec<Samples>,
    /// Σ over queries of latency, and of the part of it outside the
    /// execution the query reports (compile lookup, planning, snapshot).
    latency_total_ms: f64,
    outside_exec_ms: f64,
    /// Queries that report more execution time than their latency.
    exec_over_latency: u64,
    pulled: u64,
    results: u64,
    joins: u64,
    merge_joins: u64,
}

pub fn run(config: &RunConfig) -> Result<Outcome, String> {
    let mut out = Outcome::default();

    // Set-up rounds, half before the load and half after it (see
    // `SETUP_ROUNDS`); the last round before the load builds the databases
    // the load runs on. Each round's databases are dropped before the next
    // round, so the heap never holds two families.
    let mut setup_s = Samples::new();
    for _ in 1..SETUP_ROUNDS / 2 {
        setup_s.push(build_family(config.seed)?.1);
    }
    let (dbs, last) = build_family(config.seed)?;
    setup_s.push(last);

    // Prepare the card, with the warm-up pass and the full answer check:
    // every strategy returns exactly the automaton's pair set.
    let mut card = Vec::new();
    for (graph, db) in dbs.iter().enumerate() {
        prepare_card(db, graph, &mut card, &mut out)?;
    }
    let mut order: Vec<usize> = (0..card.len()).collect();
    shuffle(
        &mut order,
        &mut SplitMix64::for_stream(config.seed, "order"),
    );

    let (mut nodes, mut edges, mut entries, mut bytes) = (0, 0, 0, 0);
    for db in &dbs {
        let stats = db.stats();
        nodes += stats.nodes;
        edges += stats.edges;
        entries += stats.index.entries;
        bytes += stats.index.approx_bytes;
    }
    out.metrics.set("size.nodes", nodes as f64, "count", None);
    out.metrics.set("size.edges", edges as f64, "count", None);
    out.metrics
        .set("index.entries", entries as f64, "count", None);
    out.metrics
        .set("index.approx_bytes", bytes as f64, "bytes", None);

    crate::sys::reset_peak_rss();
    if !config.trace {
        let mut run = closed_loop(&dbs, &card, &order, config.seconds, None);
        e2e_metrics(&mut out.metrics, &mut run)?;
        tally(&mut out, &run);
    } else {
        let mut untraced = closed_loop(&dbs, &card, &order, config.seconds, None);
        let mut plain = Metrics::new();
        e2e_metrics(&mut plain, &mut untraced)?;
        tally(&mut out, &untraced);

        let mut tracer = Tracer::new(Instant::now());
        let skipped = |dbs: &[PathDb]| -> u64 {
            dbs.iter().map(|db| db.stats().storage.chunks_skipped).sum()
        };
        let cache = |dbs: &[PathDb]| -> (u64, u64) {
            dbs.iter()
                .map(|db| db.plan_cache_stats())
                .fold((0, 0), |(h, m), s| (h + s.hits, m + s.misses))
        };
        let skipped_before = skipped(&dbs);
        let cache_before = cache(&dbs);
        let (pool_before, _) = layers::storage_counters(&dbs);
        let mut traced = closed_loop(&dbs, &card, &order, config.seconds, Some(&mut tracer));
        let (pool_after, _) = layers::storage_counters(&dbs);
        let cache_after = cache(&dbs);
        tally(&mut out, &traced);
        let mut with_trace = Metrics::new();
        e2e_metrics(&mut with_trace, &mut traced)?;
        layers::record_overhead(&mut out.metrics, &plain, &with_trace);
        let m = &mut out.metrics;
        m.set(
            "index.chunks_skipped",
            (skipped(&dbs) - skipped_before) as f64,
            "count",
            None,
        );
        m.set(
            "exec.drain_ms",
            traced.drain_ms.iter().map(Samples::sum).sum::<f64>() / traced.attempted.max(1) as f64,
            "ms",
            Some(traced.attempted as usize),
        );
        m.set(
            "exec.pairs_pulled_per_result",
            ratio(traced.pulled as f64, traced.results as f64),
            "count",
            None,
        );
        m.set(
            "exec.merge_join_share",
            ratio(traced.merge_joins as f64, traced.joins as f64),
            "ratio",
            None,
        );
        let (hits, misses) = (
            cache_after.0 - cache_before.0,
            cache_after.1 - cache_before.1,
        );
        m.set(
            "core.plan_cache_hit_ratio",
            ratio(hits as f64, (hits + misses) as f64),
            "ratio",
            None,
        );
        m.set(
            "core.outside_exec_share",
            ratio(traced.outside_exec_ms, traced.latency_total_ms),
            "ratio",
            None,
        );
        out.check(traced.exec_over_latency == 0, || {
            format!(
                "{} queries report more execution time than the latency around them",
                traced.exec_over_latency
            )
        });
        // The memory backend has no buffer pool, page file or log: its pool
        // counters read zero, and these figures show it.
        let m = &mut out.metrics;
        let pool_hits = pool_after.hits - pool_before.hits;
        let pool_requests = pool_hits + pool_after.misses - pool_before.misses;
        m.set(
            "pagestore.pool_requests_per_lookup",
            ratio(pool_requests as f64, traced.attempted as f64),
            "count",
            None,
        );
        m.set(
            "pagestore.pool_hit_ratio",
            ratio(pool_hits as f64, pool_requests as f64),
            "ratio",
            None,
        );
        m.set(
            "pagestore.evictions",
            (pool_after.evictions - pool_before.evictions) as f64,
            "count",
            None,
        );
        m.set(
            "pagestore.read_ahead_pages",
            (pool_after.read_ahead_pages - pool_before.read_ahead_pages) as f64,
            "count",
            None,
        );
        let pages: u32 = dbs.iter().map(layers::index_pages).sum();
        m.set("pagestore.index_pages", f64::from(pages), "count", None);
        // No write, bound lookup, seek or serving tier runs here, and
        // nothing is read back from disk.
        layers::record_unmeasured(m, &layers::SERVE_METRICS);
        layers::record_unmeasured(
            m,
            &[
                "core.delta_entries_per_edge",
                "core.lookup_over_seek",
                "exec.pairs_pulled_per_lookup",
                "index.seek_us",
                "pagestore.write_backs_per_batch",
                "pagestore.cow_page_copies_per_batch",
                "pagestore.file_bytes",
                "pagestore.wal_bytes",
                "graph.chunks_rebuilt_per_batch",
                "graph.chunks_shared_per_batch",
                "e2e.lookup_p50_ms",
                "e2e.lookup_p90_ms",
                "e2e.lookup_p99_ms",
                "e2e.scan_p50_ms",
                "e2e.scan_p90_ms",
                "e2e.write_p50_ms",
                "e2e.write_p90_ms",
                "e2e.recovery_s",
                "e2e.disk_bytes_per_edge",
            ],
        );
        replay(&dbs, &card, &traced, &mut tracer, &mut out)?;
        layers::record_self_times(&tracer, &mut out.metrics);
        layers::finish_trace(&mut out, &plain, &tracer, config)?;
    }
    if let Some(rss) = crate::sys::peak_rss_mb() {
        out.metrics.set("peak_rss_mb", rss, "MiB", None);
    }
    drop((card, dbs));
    for _ in SETUP_ROUNDS / 2..SETUP_ROUNDS {
        setup_s.push(build_family(config.seed)?.1);
    }
    let setup = setup_s.median().ok_or("no set-up ran")?;
    out.metrics.set("setup_s", setup, "s", Some(setup_s.len()));
    Ok(out)
}

/// One set-up round: graph generation plus memory index build for each
/// graph of the family. Returns the databases and the seconds it took.
fn build_family(seed: u64) -> Result<(Vec<PathDb>, f64), String> {
    let mut dbs = Vec::with_capacity(GRAPHS);
    let start = Instant::now();
    for graph in 0..GRAPHS {
        let generator = advogato_config(seed, graph, SCALE);
        dbs.push(
            PathDb::try_build(advogato_like(generator), PathDbConfig::with_k(K))
                .map_err(|e| format!("index build: {e}"))?,
        );
    }
    Ok((dbs, start.elapsed().as_secs_f64()))
}

fn prepare_card(
    db: &PathDb,
    graph: usize,
    card: &mut Vec<Entry>,
    out: &mut Outcome,
) -> Result<(), String> {
    for query in advogato_queries() {
        let prepared = db
            .prepare(&query.text)
            .map_err(|e| format!("prepare {}: {e}", query.name))?;
        let mut expected = db
            .query_automaton(&query.text)
            .map_err(|e| format!("automaton {}: {e}", query.name))?;
        expected.sort_unstable();
        expected.dedup();
        for strategy in Strategy::all() {
            let result = prepared
                .run(db, QueryOptions::with_strategy(strategy))
                .map_err(|e| format!("{} under {strategy}: {e}", query.name))?;
            out.check(result.pairs() == expected.as_slice(), || {
                format!(
                    "graph {graph} {} under {strategy}: {} pairs, the automaton finds {}",
                    query.name,
                    result.len(),
                    expected.len()
                )
            });
            card.push(Entry {
                graph,
                query: query.name.clone(),
                strategy,
                prepared: prepared.clone(),
                expected: expected.len(),
            });
        }
    }
    Ok(())
}

/// Runs whole passes of the card in `order` until `duration` has passed.
fn closed_loop(
    dbs: &[PathDb],
    card: &[Entry],
    order: &[usize],
    duration: Duration,
    mut tracer: Option<&mut Tracer>,
) -> LoopStats {
    let mut stats = LoopStats {
        drain_ms: vec![Samples::new(); card.len()],
        ..LoopStats::default()
    };
    let start = Instant::now();
    while start.elapsed() < duration {
        for &i in order {
            let entry = &card[i];
            let options = QueryOptions::with_strategy(entry.strategy);
            let sent = Instant::now();
            let result = entry.prepared.run(&dbs[entry.graph], options);
            let done = Instant::now();
            stats.latency_ms.push_ms(done - sent);
            stats.attempted += 1;
            match result {
                Ok(result) if result.len() == entry.expected => {
                    let exec = result.stats;
                    stats.drain_ms[i].push_ms(exec.elapsed);
                    let latency = done - sent;
                    stats.latency_total_ms += latency.as_secs_f64() * 1e3;
                    stats.outside_exec_ms +=
                        latency.saturating_sub(exec.elapsed).as_secs_f64() * 1e3;
                    if exec.elapsed > latency {
                        stats.exec_over_latency += 1;
                    }
                    stats.pulled += exec.pairs_pulled as u64;
                    stats.results += exec.result_pairs as u64;
                    stats.joins += exec.joins as u64;
                    stats.merge_joins += exec.merge_joins as u64;
                    if let Some(tracer) = tracer.as_deref_mut() {
                        let request = stats.attempted;
                        let root = tracer.record("core.run", "core", sent, done, None, request);
                        let exec_start = done.checked_sub(exec.elapsed).unwrap_or(sent);
                        tracer.record("exec.drain", "exec", exec_start, done, Some(root), request);
                    }
                }
                _ => stats.failed += 1,
            }
        }
    }
    stats.elapsed = start.elapsed();
    stats
}

fn e2e_metrics(metrics: &mut Metrics, run: &mut LoopStats) -> Result<(), String> {
    let n = run.latency_ms.len();
    metrics.set(
        "ops_per_s",
        n as f64 / run.elapsed.as_secs_f64(),
        "1/s",
        Some(n),
    );
    metrics.set_percentile("op_p50_ms", &mut run.latency_ms, 0.5, "ms")?;
    metrics.set_percentile("op_p90_ms", &mut run.latency_ms, 0.9, "ms")?;
    metrics.set_percentile("e2e.op_p99_ms", &mut run.latency_ms, 0.99, "ms")?;
    metrics.alias("queries_per_s", "ops_per_s");
    metrics.alias("query_p50_ms", "op_p50_ms");
    metrics.alias("query_p99_ms", "e2e.op_p99_ms");
    Ok(())
}

fn tally(out: &mut Outcome, run: &LoopStats) {
    out.attempted += run.attempted;
    out.failed += run.failed;
}

/// Replays each layer's calls on their own: compile and plan on a fresh
/// handle (a database without a plan cache, so nothing is reused), cursor
/// opens, a histogram refresh per database, and each plan leaf's index scan
/// drained directly on the snapshot.
fn replay(
    dbs: &[PathDb],
    card: &[Entry],
    traced: &LoopStats,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Result<(), String> {
    // Replayed calls get request ids above the traced loop's.
    let mut request = traced.attempted;
    let texts: Vec<String> = advogato_queries().into_iter().map(|q| q.text).collect();
    let texts: Vec<&str> = texts.iter().map(String::as_str).collect();
    layers::replay_planning(
        (*dbs[0].graph()).clone(),
        &texts,
        REPLAY_REPEATS,
        tracer,
        &mut request,
        out,
    )?;

    // Opening a cursor on each prepared entry: plan lookup plus operator
    // tree construction, without draining.
    let mut open_us = Samples::new();
    for entry in card {
        request += 1;
        let options = QueryOptions::with_strategy(entry.strategy);
        let (cursor, span) = tracer.span("core.open", "core", None, request, || {
            entry.prepared.cursor(&dbs[entry.graph], options)
        });
        open_us.push(tracer.duration_ms(span) * 1e3);
        cursor.map_err(|e| format!("open {}: {e}", entry.query))?;
    }
    out.metrics
        .set("core.open_us", open_us.mean(), "us", Some(open_us.len()));
    let mut refresh_ms = Samples::new();
    for db in dbs {
        let start = Instant::now();
        db.refresh_histogram();
        refresh_ms.push_ms(start.elapsed());
    }
    out.metrics.set(
        "core.histogram_refresh_ms",
        refresh_ms.mean(),
        "ms",
        Some(refresh_ms.len()),
    );

    // Leaf scans: Σ over the card of each entry's leaf time per execution,
    // against Σ of its mean drain time in the traced loop.
    let mut leaf_ms_per_card = 0.0;
    let mut drain_ms_per_card = 0.0;
    for (i, entry) in card.iter().enumerate() {
        let db = &dbs[entry.graph];
        let snapshot = db.snapshot();
        let plan = entry
            .prepared
            .plan(db, entry.strategy)
            .map_err(|e| format!("plan {}: {e}", entry.query))?;
        let mut leaves = Vec::new();
        layers::leaf_paths(&plan, &mut leaves);
        let mut total_ms = 0.0;
        for _ in 0..LEAF_REPEATS {
            request += 1;
            for path in &leaves {
                let (pairs, span) = tracer.span("index.leaf_scan", "index", None, request, || {
                    layers::drain_leaf(snapshot.index(), path)
                });
                pairs?;
                total_ms += tracer.duration_ms(span);
            }
        }
        leaf_ms_per_card += total_ms / LEAF_REPEATS as f64;
        drain_ms_per_card += traced.drain_ms[i].mean();
    }
    out.metrics.set(
        "index.leaf_scan_ms",
        leaf_ms_per_card / card.len() as f64,
        "ms",
        Some(card.len() * LEAF_REPEATS),
    );
    out.check(leaf_ms_per_card <= drain_ms_per_card, || {
        format!(
            "leaf scans take {leaf_ms_per_card:.3} ms per card, more than the \
             {drain_ms_per_card:.3} ms the executions drained in"
        )
    });
    Ok(())
}
