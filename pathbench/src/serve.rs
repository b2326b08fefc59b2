//! Workload `serve`: the client path end to end.
//!
//! One generator thread submits on one clock through `Server::submit_query`
//! and `Server::submit_write` (open loop): bound point lookups at a fixed
//! rate, a few unbound scans per second, and group-committed batches of
//! fresh named edges. A closed-loop saturation phase follows, with lookups
//! only and `2 × WORKERS` outstanding. The database is on disk with a buffer
//! pool smaller than the index, so requests pass through the admission
//! queue, the plan cache, the cursor, the operators, the paged B+tree, the
//! buffer pool and the write-ahead log.
//!
//! Writes touch only fresh nodes on the label `apprentice`, and no lookup
//! or scan path can reach such an edge, so every reply stays checkable
//! against a memory-backed twin built from the same graph.

use crate::inputs::{draw_seed, family_union};
use crate::layers::{self, on_disk, pool_stats, ratio, remove_db_files, wal_dir, K};
use crate::report::{Metrics, Samples};
use crate::rng::{shuffle, SplitMix64, Zipf};
use crate::sys::{disk_bytes, RunDir};
use crate::trace::Tracer;
use crate::{Outcome, RunConfig};
use pathix_core::{
    GraphUpdate, NodeId, PathDb, PathDbConfig, PathIndexBackend, PoolStats, QueryOptions,
    SignedLabel,
};
use pathix_pagestore::PagedPathIndex;
use pathix_rpq::ast::inverse_path;
use pathix_serve::{QueryReply, ServeConfig, Server, Ticket, WriteReply};
use std::collections::{HashMap, VecDeque};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Share of the real network (6 541 nodes, 51 127 edges) of each graph:
/// 3 × 65 nodes, 3 × 511 edges.
const SCALE: f64 = 0.01;
/// Buffer-pool frames: fewer than the index has pages (both are reported as
/// `pagestore.pool_frames` and `pagestore.index_pages`).
const POOL_FRAMES: usize = 48;
/// Set-up builds `SETUP_DRAWS` seeded databases of the served size per
/// round, `SETUP_ROUNDS` rounds; `setup_s` is the median round. One
/// database's build time moves with its graph draw; a sum over draws moves
/// far less. Half the rounds run before the load and half after it: the
/// host's speed shifts in phases of seconds, and rounds on both sides of
/// the run average them.
const SETUP_DRAWS: usize = 8;
const SETUP_ROUNDS: usize = 12;
/// Bound lookups: 1- and 2-label paths none of the written edges can extend.
const LOOKUP_QUERIES: [&str; 5] = [
    "journeyer",
    "master",
    "journeyer/master",
    "apprentice/journeyer",
    "master/apprentice",
];
const LOOKUP_LIMIT: usize = 16;
const LOOKUP_RATE: f64 = 400.0;
/// Zipf exponent of the lookup keys (the YCSB default).
const ZIPF_EXPONENT: f64 = 0.99;
const SCAN_QUERY: &str = "journeyer/master";
const SCAN_RATE: f64 = 20.0;
const WRITE_LABEL: &str = "apprentice";
const WRITE_BATCH: usize = 8;
/// Twelve batches a second. A durable batch waits for an fsync while it
/// holds a worker, so a faster write stream lets the host's disk latency
/// set the lookup tail.
const WRITE_EDGES_PER_S: f64 = 96.0;
/// Share of the run spent in the open-loop phase; the rest saturates.
const OPEN_SHARE: f64 = 0.7;
/// Windows the saturation phase is cut into; `ops_per_s` is the median
/// window's completion rate.
const SATURATION_WINDOWS: usize = 25;
/// Budget of every request; far above any healthy latency here.
const DEADLINE: Duration = Duration::from_secs(2);
/// Worker threads of the tier. One, not one per CPU: on the 2-vCPU virtual
/// machine the bounds were set on, two busy workers made the host steal
/// 15–32 % of CPU time (one worker: 8–15 %, a single-threaded workload: 1–3 %)
/// and spread the saturation rate over a factor of three between runs.
const WORKERS: usize = 1;
/// Lookups replayed one at a time in the traced run.
const REPLAY_LOOKUPS: usize = 400;
const REPLAY_REPEATS: usize = 20;
/// Write batches replayed straight into the graph layer.
const REPLAY_BATCHES: usize = 64;
/// Pages requested straight from the page store.
const REPLAY_PAGE_READS: usize = 2000;

#[derive(Debug, Clone, Copy)]
struct Lookup {
    query: usize,
    node: NodeId,
    by_target: bool,
}

impl Lookup {
    fn options(self) -> QueryOptions {
        let options = QueryOptions::new().limit(LOOKUP_LIMIT);
        if self.by_target {
            options.target(self.node)
        } else {
            options.source(self.node)
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Kind {
    Lookup(Lookup),
    Scan,
    Write,
}

/// The seeded lookup stream: Zipf-drawn keys, mapped through a seeded
/// permutation so popularity is independent of degree.
struct LookupStream {
    rng: SplitMix64,
    zipf: Zipf,
    keys: Vec<u32>,
}

impl LookupStream {
    fn new(seed: u64, nodes: usize) -> Self {
        let mut keys: Vec<u32> = (0..nodes as u32).collect();
        shuffle(&mut keys, &mut SplitMix64::for_stream(seed, "keys"));
        LookupStream {
            rng: SplitMix64::for_stream(seed, "lookups"),
            zipf: Zipf::new(nodes, ZIPF_EXPONENT),
            keys,
        }
    }

    fn next(&mut self) -> Lookup {
        let node = NodeId(self.keys[self.zipf.sample(&mut self.rng)]);
        Lookup {
            query: self.rng.below(LOOKUP_QUERIES.len()),
            node,
            by_target: self.rng.below(2) == 1,
        }
    }
}

/// Arrival offsets of the open-loop phase, merged on one clock.
fn schedule(duration: Duration, lookups: &mut LookupStream) -> Vec<(Duration, Kind)> {
    let mut arrivals = Vec::new();
    let secs = duration.as_secs_f64();
    let mut push_every = |rate: f64, phase: f64, kind: &mut dyn FnMut() -> Kind| {
        let mut i = 0.0;
        loop {
            let at = (i + phase) / rate;
            if at >= secs {
                break;
            }
            arrivals.push((Duration::from_secs_f64(at), kind()));
            i += 1.0;
        }
    };
    push_every(LOOKUP_RATE, 0.0, &mut || Kind::Lookup(lookups.next()));
    push_every(SCAN_RATE, 0.5, &mut || Kind::Scan);
    push_every(WRITE_EDGES_PER_S / WRITE_BATCH as f64, 0.25, &mut || {
        Kind::Write
    });
    arrivals.sort_by_key(|(at, _)| *at);
    arrivals
}

/// Expected answers, from a memory-backed twin of the served graph.
struct Twin {
    db: PathDb,
    lookups: HashMap<(usize, u32, bool), Vec<(NodeId, NodeId)>>,
    scan_count: usize,
}

impl Twin {
    fn lookup(&mut self, lookup: Lookup) -> Result<&[(NodeId, NodeId)], String> {
        let key = (lookup.query, lookup.node.0, lookup.by_target);
        if !self.lookups.contains_key(&key) {
            let options = if lookup.by_target {
                QueryOptions::new().target(lookup.node)
            } else {
                QueryOptions::new().source(lookup.node)
            };
            let answer = self
                .db
                .run(LOOKUP_QUERIES[lookup.query], options)
                .map_err(|e| format!("twin lookup: {e}"))?;
            self.lookups.insert(key, answer.pairs().to_vec());
        }
        Ok(&self.lookups[&key])
    }

    /// `true` when `reply` is a valid limited answer to `lookup`.
    fn admits(&mut self, lookup: Lookup, reply: &QueryReply) -> Result<bool, String> {
        let expected = self.lookup(lookup)?;
        let pairs = reply.result.pairs();
        Ok(pairs.len() == expected.len().min(LOOKUP_LIMIT)
            && pairs.iter().all(|p| expected.binary_search(p).is_ok()))
    }
}

/// Latencies and counters of one pass (open loop plus saturation).
#[derive(Default)]
struct PassStats {
    lookup_ms: Samples,
    scan_ms: Samples,
    write_ms: Samples,
    late_ms: Samples,
    queue_ms: Samples,
    service_ms: Samples,
    saturation_rps: f64,
    saturation_lookups: usize,
    /// Closed-loop lookup latencies of the saturation phase.
    saturation_ms: Samples,
    attempted: u64,
    failed: u64,
    /// Σ over lookups of the latency outside lateness, queue wait and the
    /// execution the reply reports, and Σ of latency itself.
    outside_exec_ms: f64,
    latency_total_ms: f64,
    /// Lookups whose lateness, queue wait and reported execution add up to
    /// more than their latency.
    over_attributed: u64,
    joins: u64,
    merge_joins: u64,
    write_batches: u64,
    edges_written: u64,
    delta_entries: u64,
}

struct Pending<T> {
    due: Instant,
    send: Instant,
    ticket: Ticket<T>,
}

pub fn run(config: &RunConfig) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let run_dir =
        RunDir::new(&config.work_dir, "serve").map_err(|e| format!("run directory: {e}"))?;

    // Set-up rounds, half before the load and half after it (see
    // `SETUP_ROUNDS`).
    let mut setup_s = Samples::new();
    for round in 0..SETUP_ROUNDS / 2 {
        setup_s.push(setup_round(config.seed, run_dir.path(), round)?);
    }

    let graph = family_union(config.seed, SCALE);
    let page_path = run_dir.path().join("served.pages");
    let db = PathDb::try_build(graph.clone(), on_disk(&page_path, POOL_FRAMES))
        .map_err(|e| format!("on-disk build: {e}"))?;
    let twin_db = PathDb::try_build(graph, PathDbConfig::with_k(K))
        .map_err(|e| format!("twin build: {e}"))?;
    let scan_count = twin_db
        .query(SCAN_QUERY)
        .map_err(|e| format!("twin scan: {e}"))?
        .len();
    let mut twin = Twin {
        db: twin_db,
        lookups: HashMap::new(),
        scan_count,
    };
    let stats = db.stats();
    let nodes = stats.nodes;
    out.metrics.set("size.nodes", nodes as f64, "count", None);
    out.metrics
        .set("size.edges", stats.edges as f64, "count", None);
    out.metrics
        .set("index.entries", stats.index.entries as f64, "count", None);
    out.metrics.set(
        "index.approx_bytes",
        stats.index.approx_bytes as f64,
        "bytes",
        None,
    );
    let index_pages = layers::index_pages(&db);
    out.metrics.set(
        "pagestore.index_pages",
        f64::from(index_pages),
        "count",
        None,
    );
    out.metrics
        .set("pagestore.pool_frames", POOL_FRAMES as f64, "count", None);
    if index_pages as usize <= POOL_FRAMES {
        return Err(format!(
            "the index has {index_pages} pages, not more than the {POOL_FRAMES} pool frames"
        ));
    }

    let server = Server::new(
        Arc::new(db),
        ServeConfig {
            workers: WORKERS,
            queue_capacity: 256,
            max_in_flight: 1024,
            default_deadline: Some(DEADLINE),
            ..ServeConfig::default()
        },
    );
    let mut stream = LookupStream::new(config.seed, nodes);
    let mut written = 0usize;

    // Warm-up: one lookup per query and side, a scan and a write, so the
    // plan cache, the pool and the log are live before timing starts.
    for (query, text) in LOOKUP_QUERIES.iter().enumerate() {
        for by_target in [false, true] {
            let lookup = Lookup {
                query,
                node: NodeId(0),
                by_target,
            };
            let reply = server
                .query(text, lookup.options())
                .map_err(|e| format!("warm-up lookup: {e}"))?;
            out.check(twin.admits(lookup, &reply)?, || {
                format!("warm-up lookup {lookup:?} returned a wrong answer")
            });
        }
    }
    server
        .query(SCAN_QUERY, QueryOptions::new())
        .map_err(|e| format!("warm-up scan: {e}"))?;
    server
        .write(fresh_edges(&mut written))
        .map_err(|e| format!("warm-up write: {e}"))?;

    crate::sys::reset_peak_rss();
    let mut traced = None;
    if !config.trace {
        let pass = run_pass(&server, config, &mut stream, &mut written, &mut twin, None)?;
        out.attempted += pass.attempted;
        out.failed += pass.failed;
        e2e_metrics(&mut out.metrics, pass)?;
    } else {
        let plain_pass = run_pass(&server, config, &mut stream, &mut written, &mut twin, None)?;
        out.attempted += plain_pass.attempted;
        out.failed += plain_pass.failed;
        let mut plain = Metrics::new();
        e2e_metrics(&mut plain, plain_pass)?;

        let db = server.db();
        let dbs = std::slice::from_ref(&*db);
        let (pool_before, cow_before) = layers::storage_counters(dbs);
        let cache_before = db.plan_cache_stats();
        let skipped_before = db.stats().storage.chunks_skipped;
        let mut tracer = Tracer::new(Instant::now());
        let mut pass = run_pass(
            &server,
            config,
            &mut stream,
            &mut written,
            &mut twin,
            Some(&mut tracer),
        )?;
        let (pool_after, cow_after) = layers::storage_counters(dbs);
        let cache_after = db.plan_cache_stats();
        let skipped = db.stats().storage.chunks_skipped - skipped_before;
        let requests = pass.lookup_ms.len();

        let m = &mut out.metrics;
        m.set_percentile("serve.queue_wait_p50_ms", &mut pass.queue_ms, 0.5, "ms")?;
        m.set_percentile("serve.queue_wait_p99_ms", &mut pass.queue_ms, 0.99, "ms")?;
        m.set_percentile("serve.service_p50_ms", &mut pass.service_ms, 0.5, "ms")?;
        m.set_percentile("gen.late_p99_ms", &mut pass.late_ms, 0.99, "ms")?;
        let counters = server.health().counters;
        m.set("serve.shed", counters.shed_overload as f64, "count", None);
        m.set(
            "serve.deadline_exceeded",
            counters.deadline_exceeded as f64,
            "count",
            None,
        );
        m.set(
            "serve.max_in_flight",
            counters.max_in_flight as f64,
            "count",
            None,
        );
        let hits = cache_after.hits - cache_before.hits;
        let misses = cache_after.misses - cache_before.misses;
        m.set(
            "core.plan_cache_hit_ratio",
            ratio(hits as f64, (hits + misses) as f64),
            "ratio",
            None,
        );
        m.set(
            "core.delta_entries_per_edge",
            ratio(pass.delta_entries as f64, pass.edges_written as f64),
            "count",
            None,
        );
        m.set(
            "core.outside_exec_share",
            ratio(pass.outside_exec_ms, pass.latency_total_ms),
            "ratio",
            None,
        );
        m.set(
            "exec.merge_join_share",
            ratio(pass.merge_joins as f64, pass.joins as f64),
            "ratio",
            None,
        );
        m.set("index.chunks_skipped", skipped as f64, "count", None);
        let pool_hits = pool_after.hits - pool_before.hits;
        let pool_misses = pool_after.misses - pool_before.misses;
        m.set(
            "pagestore.pool_hit_ratio",
            ratio(pool_hits as f64, (pool_hits + pool_misses) as f64),
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
        m.set(
            "pagestore.write_backs_per_batch",
            ratio(
                (pool_after.write_backs - pool_before.write_backs) as f64,
                pass.write_batches as f64,
            ),
            "count",
            None,
        );
        m.set(
            "pagestore.cow_page_copies_per_batch",
            ratio((cow_after - cow_before) as f64, pass.write_batches as f64),
            "count",
            None,
        );
        let file_bytes = disk_bytes(&page_path);
        let wal_bytes = disk_bytes(&wal_dir(&page_path));
        m.set("pagestore.file_bytes", file_bytes as f64, "bytes", None);
        m.set("pagestore.wal_bytes", wal_bytes as f64, "bytes", None);
        m.set(
            "e2e.disk_bytes_per_edge",
            ratio((file_bytes + wal_bytes) as f64, db.stats().edges as f64),
            "bytes",
            None,
        );
        // The tier is never restarted here.
        layers::record_unmeasured(m, &["e2e.recovery_s"]);
        out.check(pass.over_attributed == 0, || {
            format!(
                "{} of {requests} lookups: lateness + queue wait + reported execution exceed \
                 the latency",
                pass.over_attributed
            )
        });
        out.attempted += pass.attempted;
        out.failed += pass.failed;
        let mut with_trace = Metrics::new();
        e2e_metrics(&mut with_trace, pass)?;
        layers::record_overhead(&mut out.metrics, &plain, &with_trace);
        let mut request = u64::MAX / 2;
        let seeks = replay(
            &db,
            &mut stream,
            &mut twin,
            &mut tracer,
            &mut request,
            &mut out,
        )?;
        layers::replay_planning(
            (*twin.db.graph()).clone(),
            &[LOOKUP_QUERIES.as_slice(), &[SCAN_QUERY]].concat(),
            REPLAY_REPEATS,
            &mut tracer,
            &mut request,
            &mut out,
        )?;
        replay_writes(config.seed, &mut tracer, &mut request, &mut out);
        traced = Some((tracer, plain, seeks, request));
    }
    let health = server.health();
    out.check(
        health.counters.shed_overload == 0 && health.counters.deadline_exceeded == 0,
        || format!("the tier shed or timed out requests: {:?}", health.counters),
    );
    server
        .shutdown()
        .map_err(|e| format!("server shutdown: {e}"))?;
    if let Some((mut tracer, plain, seeks, mut request)) = traced {
        // The page file is closed now: count the replayed seeks' page
        // requests again on a pool of its own, and replay raw page reads.
        check_seek_requests(&page_path, nodes, &seeks, &mut out)?;
        layers::replay_page_reads(
            &page_path,
            POOL_FRAMES,
            &mut SplitMix64::for_stream(config.seed, "page-reads"),
            REPLAY_PAGE_READS,
            &mut tracer,
            &mut request,
            &mut out,
        )?;
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

/// One set-up round, in seconds: graph generation plus the on-disk index
/// build, for each of `SETUP_DRAWS` seeded graph draws.
fn setup_round(seed: u64, dir: &Path, round: usize) -> Result<f64, String> {
    let mut total = Duration::ZERO;
    for draw in 0..SETUP_DRAWS {
        let path = dir.join(format!("setup-{round}-{draw}.pages"));
        let start = Instant::now();
        let db = PathDb::try_build(
            family_union(draw_seed(seed, draw), SCALE),
            on_disk(&path, POOL_FRAMES),
        )
        .map_err(|e| format!("on-disk build: {e}"))?;
        total += start.elapsed();
        db.close().map_err(|e| format!("close: {e}"))?;
        drop(db);
        remove_db_files(&path);
    }
    Ok(total.as_secs_f64())
}

/// One replayed seek: the index path, the bound node, and the buffer-pool
/// requests the seek made on the served database.
struct Seek {
    path: Vec<SignedLabel>,
    node: NodeId,
    pool_requests: u64,
}

/// Reopens the closed page file straight through the page store
/// (`PagedPathIndex::open`, with a buffer pool of its own) and runs every
/// replayed seek again. A seek walks the same pages of the same tree
/// whatever the pool holds, so its hits and misses here must sum to the
/// requests the served database's pool counted for it.
fn check_seek_requests(
    page_path: &Path,
    nodes: usize,
    seeks: &[Seek],
    out: &mut Outcome,
) -> Result<(), String> {
    let index = PagedPathIndex::open(page_path, K, POOL_FRAMES, nodes)
        .map_err(|e| format!("reopening the page file: {e}"))?;
    let requests = |index: &PagedPathIndex| {
        let stats = index.pool_stats();
        stats.hits + stats.misses
    };
    let mut differing = 0;
    for seek in seeks {
        let before = requests(&index);
        index
            .scan_path_from(&seek.path, seek.node)
            .map_err(|e| format!("seek on the reopened file: {e}"))?;
        if requests(&index) - before != seek.pool_requests {
            differing += 1;
        }
    }
    out.check(differing == 0, || {
        format!(
            "{differing} of {} seeks made a different number of page requests on the served \
             pool than on a pool over the closed file",
            seeks.len()
        )
    });
    Ok(())
}

/// Replays fresh-edge write batches straight into the graph layer, on a
/// graph of its own built from the same seed:
/// `graph.chunks_rebuilt_per_batch` and `graph.chunks_shared_per_batch`.
fn replay_writes(seed: u64, tracer: &mut Tracer, request: &mut u64, out: &mut Outcome) {
    let mut written = 0;
    let batches: Vec<Vec<GraphUpdate>> = (0..REPLAY_BATCHES)
        .map(|_| fresh_edges(&mut written))
        .collect();
    let published =
        layers::replay_graph_commits(family_union(seed, SCALE), &batches, tracer, request);
    let n = published.len() as f64;
    let rebuilt: usize = published.iter().map(|p| p.chunks_rebuilt).sum();
    let shared: usize = published.iter().map(|p| p.chunks_shared).sum();
    let m = &mut out.metrics;
    m.set(
        "graph.chunks_rebuilt_per_batch",
        rebuilt as f64 / n,
        "count",
        Some(published.len()),
    );
    m.set(
        "graph.chunks_shared_per_batch",
        shared as f64 / n,
        "count",
        Some(published.len()),
    );
}

fn fresh_edges(written: &mut usize) -> Vec<GraphUpdate> {
    let batch = (*written..*written + WRITE_BATCH)
        .map(|i| GraphUpdate::insert_named(format!("w{i}"), WRITE_LABEL, format!("w{i}'")))
        .collect();
    *written += WRITE_BATCH;
    batch
}

fn e2e_metrics(metrics: &mut Metrics, mut pass: PassStats) -> Result<(), String> {
    metrics.set(
        "ops_per_s",
        pass.saturation_rps,
        "1/s",
        Some(pass.saturation_lookups),
    );
    metrics.set_percentile("op_p50_ms", &mut pass.saturation_ms, 0.5, "ms")?;
    metrics.set_percentile("op_p90_ms", &mut pass.saturation_ms, 0.9, "ms")?;
    metrics.set_percentile("e2e.op_p99_ms", &mut pass.saturation_ms, 0.99, "ms")?;
    metrics.alias("lookup_peak_rps", "ops_per_s");
    metrics.set_percentile("e2e.lookup_p50_ms", &mut pass.lookup_ms, 0.5, "ms")?;
    metrics.set_percentile("e2e.lookup_p90_ms", &mut pass.lookup_ms, 0.9, "ms")?;
    metrics.set_percentile("e2e.lookup_p99_ms", &mut pass.lookup_ms, 0.99, "ms")?;
    metrics.set_percentile("e2e.scan_p50_ms", &mut pass.scan_ms, 0.5, "ms")?;
    metrics.set_percentile("e2e.scan_p90_ms", &mut pass.scan_ms, 0.9, "ms")?;
    metrics.set_percentile("e2e.write_p50_ms", &mut pass.write_ms, 0.5, "ms")?;
    metrics.set_percentile("e2e.write_p90_ms", &mut pass.write_ms, 0.9, "ms")?;
    Ok(())
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// One open-loop phase followed by one saturation phase.
fn run_pass(
    server: &Server,
    config: &RunConfig,
    stream: &mut LookupStream,
    written: &mut usize,
    twin: &mut Twin,
    mut tracer: Option<&mut Tracer>,
) -> Result<PassStats, String> {
    let mut pass = PassStats::default();
    let open = config.seconds.mul_f64(OPEN_SHARE);
    let arrivals = schedule(open, stream);
    let mut lookups: Vec<(Lookup, Pending<QueryReply>)> = Vec::new();
    let mut scans: Vec<Pending<QueryReply>> = Vec::new();
    let mut writes: Vec<Pending<WriteReply>> = Vec::new();
    let start = Instant::now() + Duration::from_millis(5);
    for (at, kind) in arrivals {
        let due = start + at;
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let send = Instant::now();
        pass.attempted += 1;
        let submitted = match kind {
            Kind::Lookup(lookup) => server
                .submit_query(LOOKUP_QUERIES[lookup.query], lookup.options())
                .map(|ticket| lookups.push((lookup, Pending { due, send, ticket }))),
            Kind::Scan => server
                .submit_query(SCAN_QUERY, QueryOptions::new())
                .map(|ticket| scans.push(Pending { due, send, ticket })),
            Kind::Write => server
                .submit_write(fresh_edges(written))
                .map(|ticket| writes.push(Pending { due, send, ticket })),
        };
        if submitted.is_err() {
            pass.failed += 1;
        }
    }

    for (lookup, pending) in lookups {
        let Some(reply) = wait(pending.ticket, &mut pass) else {
            continue;
        };
        // Three clocks: the generator's (lateness, latency), the tier's
        // (queue wait, from submission to a worker taking the request) and
        // the query's own (execution). They cover disjoint parts of the
        // request, so they must not add up to more than its latency.
        let latency = reply.finished_at.saturating_duration_since(pending.due);
        let late = pending.send.saturating_duration_since(pending.due);
        let exec = reply.result.stats.elapsed;
        let attributed = late + reply.queued_for + exec;
        pass.lookup_ms.push_ms(latency);
        pass.late_ms.push_ms(late);
        pass.queue_ms.push_ms(reply.queued_for);
        pass.service_ms.push_ms(exec);
        pass.latency_total_ms += ms(latency);
        pass.outside_exec_ms += ms(latency.saturating_sub(attributed));
        if attributed > latency {
            pass.over_attributed += 1;
        }
        pass.joins += reply.result.stats.joins as u64;
        pass.merge_joins += reply.result.stats.merge_joins as u64;
        let worker_start = pending.send + reply.queued_for;
        if let Some(tracer) = tracer.as_deref_mut() {
            let request = pass.lookup_ms.len() as u64;
            let root = tracer.record(
                "serve.request",
                "serve",
                pending.due,
                reply.finished_at,
                None,
                request,
            );
            tracer.record(
                "gen.late",
                "gen",
                pending.due,
                pending.send,
                Some(root),
                request,
            );
            tracer.record(
                "serve.queue",
                "serve",
                pending.send,
                worker_start,
                Some(root),
                request,
            );
            let run = tracer.record(
                "core.run",
                "core",
                worker_start,
                reply.finished_at,
                Some(root),
                request,
            );
            let exec_start = reply.finished_at.checked_sub(exec).unwrap_or(worker_start);
            tracer.record(
                "exec.drain",
                "exec",
                exec_start,
                reply.finished_at,
                Some(run),
                request,
            );
        }
        if !twin.admits(lookup, &reply)? {
            pass.failed += 1;
        }
    }
    for pending in scans {
        if let Some(reply) = wait(pending.ticket, &mut pass) {
            pass.scan_ms
                .push_ms(reply.finished_at.saturating_duration_since(pending.due));
            if reply.result.len() != twin.scan_count {
                pass.failed += 1;
            }
        }
    }
    for pending in writes {
        if let Some(reply) = wait(pending.ticket, &mut pass) {
            pass.write_ms
                .push_ms(reply.finished_at.saturating_duration_since(pending.due));
            pass.write_batches += 1;
            pass.edges_written += reply.stats.inserted + reply.stats.deleted;
            pass.delta_entries += reply.stats.delta_entries;
            if reply.stats.inserted != WRITE_BATCH as u64 {
                pass.failed += 1;
            }
        }
    }

    // Saturation: lookups only, a fixed number outstanding.
    let outstanding = 2 * WORKERS;
    let duration = config.seconds.saturating_sub(open);
    let mut inflight: VecDeque<(Lookup, Instant, Ticket<QueryReply>)> = VecDeque::new();
    let mut done: Vec<(Lookup, QueryReply)> = Vec::new();
    let start = Instant::now();
    let end = start + duration;
    loop {
        while inflight.len() < outstanding && Instant::now() < end {
            let lookup = stream.next();
            pass.attempted += 1;
            let send = Instant::now();
            match server.submit_query(LOOKUP_QUERIES[lookup.query], lookup.options()) {
                Ok(ticket) => inflight.push_back((lookup, send, ticket)),
                Err(_) => pass.failed += 1,
            }
        }
        let Some((lookup, send, ticket)) = inflight.pop_front() else {
            break;
        };
        if let Some(reply) = wait(ticket, &mut pass) {
            pass.saturation_ms
                .push_ms(reply.finished_at.saturating_duration_since(send));
            done.push((lookup, reply));
        }
    }
    // The completion rate of each of SATURATION_WINDOWS equal windows; the
    // median window is robust to a short stall of the host.
    let window = duration.as_secs_f64() / SATURATION_WINDOWS as f64;
    let mut completions = vec![0usize; SATURATION_WINDOWS];
    for (_, reply) in &done {
        let at = reply
            .finished_at
            .saturating_duration_since(start)
            .as_secs_f64();
        if let Some(slot) = completions.get_mut((at / window) as usize) {
            *slot += 1;
        }
    }
    let mut rates = Samples::new();
    for n in completions {
        rates.push(n as f64 / window);
    }
    pass.saturation_lookups = done.len();
    pass.saturation_rps = rates
        .percentile(0.5)
        .ok_or("too few saturation windows for a median")?;
    for (lookup, reply) in done {
        if !twin.admits(lookup, &reply)? {
            pass.failed += 1;
        }
    }
    Ok(pass)
}

/// Waits for a reply; a failed request counts against the pass.
fn wait<T>(ticket: Ticket<T>, pass: &mut PassStats) -> Option<T> {
    match ticket.wait() {
        Ok(reply) => Some(reply),
        Err(_) => {
            pass.failed += 1;
            None
        }
    }
}

/// Replays lookups one at a time with nothing else running, so each call's
/// buffer-pool traffic is its own: `PreparedQuery::cursor` (core), the
/// cursor drain (exec, with the index and page store below it) and the raw
/// `scan_path_from` seek the lookup amounts to (index). Returns the seeks
/// with the page requests each made.
fn replay(
    db: &PathDb,
    stream: &mut LookupStream,
    twin: &mut Twin,
    tracer: &mut Tracer,
    request: &mut u64,
    out: &mut Outcome,
) -> Result<Vec<Seek>, String> {
    let prepared: Vec<_> = LOOKUP_QUERIES
        .iter()
        .map(|q| db.prepare(q).map_err(|e| format!("prepare {q}: {e}")))
        .collect::<Result<_, _>>()?;
    let snapshot = db.snapshot();
    let mut open_us = Samples::new();
    let mut seek_us = Samples::new();
    let mut pulled = 0u64;
    let mut returned = 0u64;
    let mut lookup_requests = 0u64;
    let mut seeks = Vec::with_capacity(REPLAY_LOOKUPS);
    let requests = |p: PoolStats| p.hits + p.misses;
    for _ in 0..REPLAY_LOOKUPS {
        let lookup = stream.next();
        *request += 1;
        let before = requests(pool_stats(db));
        let (cursor, span) = tracer.span("core.open", "core", None, *request, || {
            prepared[lookup.query].cursor(db, lookup.options())
        });
        open_us.push(tracer.duration_ms(span) * 1e3);
        let mut cursor = cursor.map_err(|e| format!("replayed lookup: {e}"))?;
        let (pairs, _) = tracer.span("exec.drain", "exec", None, *request, || {
            (&mut cursor).collect::<Result<Vec<_>, _>>()
        });
        let mut pairs = pairs.map_err(|e| format!("replayed lookup: {e}"))?;
        pulled += cursor.stats().pairs_pulled as u64;
        returned += pairs.len() as u64;
        drop(cursor);
        let after = requests(pool_stats(db));
        lookup_requests += after - before;

        let path = &prepared[lookup.query].disjuncts()[0];
        let path = if lookup.by_target {
            inverse_path(path)
        } else {
            path.clone()
        };
        let (seek, span) = tracer.span("index.seek", "index", None, *request, || {
            snapshot.index().scan_path_from(&path, lookup.node)
        });
        seek_us.push(tracer.duration_ms(span) * 1e3);
        let seek = seek.map_err(|e| format!("seek: {e}"))?;
        seeks.push(Seek {
            path,
            node: lookup.node,
            pool_requests: requests(pool_stats(db)) - after,
        });

        pairs.sort_unstable();
        let expected = twin.lookup(lookup)?;
        let ok = pairs.len() == expected.len().min(LOOKUP_LIMIT)
            && pairs.iter().all(|p| expected.binary_search(p).is_ok())
            && seek.len() == expected.len();
        out.attempted += 1;
        if !ok {
            out.failed += 1;
        }
    }
    let n = REPLAY_LOOKUPS as f64;
    let m = &mut out.metrics;
    m.set("core.open_us", open_us.mean(), "us", Some(open_us.len()));
    m.set(
        "exec.pairs_pulled_per_lookup",
        pulled as f64 / n,
        "count",
        Some(REPLAY_LOOKUPS),
    );
    m.set(
        "exec.pairs_pulled_per_result",
        ratio(pulled as f64, returned as f64),
        "count",
        Some(REPLAY_LOOKUPS),
    );
    m.set(
        "pagestore.pool_requests_per_lookup",
        lookup_requests as f64 / n,
        "count",
        Some(REPLAY_LOOKUPS),
    );
    let seek_p50 = seek_us.median().unwrap_or(0.0);
    m.set("index.seek_us", seek_p50, "us", Some(seek_us.len()));
    let service_us = m.get("serve.service_p50_ms").unwrap_or(0.0) * 1e3;
    m.set(
        "core.lookup_over_seek",
        ratio(service_us, seek_p50),
        "ratio",
        None,
    );

    // The scan: its plan's leaves drained directly, against a cursor drain.
    let scan = db
        .prepare(SCAN_QUERY)
        .map_err(|e| format!("prepare scan: {e}"))?;
    let plan = scan
        .plan(db, db.config().default_strategy)
        .map_err(|e| format!("plan scan: {e}"))?;
    let mut leaves = Vec::new();
    layers::leaf_paths(&plan, &mut leaves);
    let mut leaf_ms = Samples::new();
    let mut drain_ms = Samples::new();
    for _ in 0..REPLAY_REPEATS {
        *request += 1;
        let start = Instant::now();
        for path in &leaves {
            layers::drain_leaf(snapshot.index(), path)?;
        }
        let leaf = tracer.record(
            "index.leaf_scan",
            "index",
            start,
            Instant::now(),
            None,
            *request,
        );
        leaf_ms.push(tracer.duration_ms(leaf));
        let (count, span) = tracer.span("exec.drain", "exec", None, *request, || {
            scan.cursor(db, QueryOptions::new()).and_then(|c| c.count())
        });
        drain_ms.push(tracer.duration_ms(span));
        out.attempted += 1;
        if count.map_err(|e| format!("replayed scan: {e}"))? != twin.scan_count {
            out.failed += 1;
        }
    }
    let m = &mut out.metrics;
    m.set(
        "index.leaf_scan_ms",
        leaf_ms.mean(),
        "ms",
        Some(leaf_ms.len()),
    );
    m.set("exec.drain_ms", drain_ms.mean(), "ms", Some(drain_ms.len()));
    out.check(leaf_ms.sum() <= drain_ms.sum(), || {
        format!(
            "leaf scans ({:.3} ms) take longer than the scans they feed ({:.3} ms)",
            leaf_ms.mean(),
            drain_ms.mean()
        )
    });

    let mut refresh_ms = Samples::new();
    for _ in 0..5 {
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
    Ok(seeks)
}
