//! Live graph updates through the database facade: `PathDb::apply`, epochs,
//! snapshot cursors and plan-cache invalidation in one walkthrough.
//!
//! The `incremental_updates` example measures update cost against rebuilds;
//! this one shows the serving-side story the query stack builds on top of
//! live updates: a database that answers queries *while* edges arrive and disappear,
//! with prepared queries that never serve stale plans and cursors that keep
//! a consistent snapshot.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example live_updates
//! ```

use pathix::datagen::paper_example_graph;
use pathix::{
    GraphUpdate, HistogramRefresh, PathDb, PathDbConfig, QueryOptions, Session, Strategy,
};
use std::sync::Arc;

fn main() {
    // The paper's running example graph, k = 2, histogram refreshed after
    // every fourth effective update.
    let db = Arc::new(PathDb::build(
        paper_example_graph(),
        PathDbConfig::with_k(2).with_histogram_refresh(HistogramRefresh::EveryUpdates(4)),
    ));
    println!(
        "built: {} nodes, {} edges, epoch {}",
        db.stats().nodes,
        db.stats().edges,
        db.epoch()
    );

    // Compile the worked example once; the plan is cached lazily per
    // strategy and epoch.
    let supervised = db.prepare("supervisor/worksFor-").unwrap();
    let answer = supervised.run(&db, QueryOptions::new()).unwrap();
    println!(
        "supervisor/worksFor- = {:?}  (plans: {})",
        answer.named_pairs(&db),
        db.plan_cache_stats().plans
    );

    // Resolve some vocabulary once; live updates reuse interned ids.
    let graph = db.graph();
    let kim = graph.node_id("kim").unwrap();
    let liz = graph.node_id("liz").unwrap();
    let tim = graph.node_id("tim").unwrap();
    let joe = graph.node_id("joe").unwrap();
    let supervisor = graph.label_id("supervisor").unwrap();
    drop(graph);

    // 1. Open a cursor, then mutate underneath it: the cursor streams from
    //    the snapshot it opened on (snapshot-at-open), while new queries see
    //    the update immediately.
    let mut cursor = supervised.cursor(&db, QueryOptions::new()).unwrap();
    let stats = db
        .apply(&[GraphUpdate::DeleteEdge {
            src: kim,
            label: supervisor,
            dst: liz,
        }])
        .unwrap();
    println!(
        "\ndeleted supervisor(kim, liz): epoch {} (histogram refreshed: {})",
        stats.epoch, stats.histogram_refreshed
    );
    let streamed: Vec<_> = (&mut cursor).collect::<Result<_, _>>().unwrap();
    println!(
        "cursor opened at epoch {} still streamed {} pair(s) — its snapshot predates the delete",
        cursor.epoch(),
        streamed.len()
    );
    let fresh = supervised.run(&db, QueryOptions::new()).unwrap();
    println!(
        "the same prepared query, re-run now: {} pair(s) — replanned at epoch {} (plans: {})",
        fresh.len(),
        db.epoch(),
        db.plan_cache_stats().plans
    );

    // 2. Sessions share the live database; updates from one are visible to
    //    all, and the plan cache still compiles each text once.
    let session =
        Session::new(Arc::clone(&db)).with_defaults(QueryOptions::with_strategy(Strategy::MinJoin));
    session
        .apply(&[GraphUpdate::InsertEdge {
            src: tim,
            label: supervisor,
            dst: joe,
        }])
        .unwrap();
    let via_session = session.query("supervisor/worksFor-").unwrap();
    println!(
        "\nafter inserting supervisor(tim, joe) through a session: {:?} under {}",
        via_session.named_pairs(&db),
        via_session.strategy
    );

    // 3. The maintained database is indistinguishable from a rebuild over
    //    the final graph — the property the incremental delta rules pin.
    let rebuilt = PathDb::build(db.graph().as_ref().clone(), PathDbConfig::with_k(2));
    for query in ["supervisor/worksFor-", "knows/worksFor", "knows-/knows"] {
        for strategy in Strategy::all() {
            let live = db
                .run(query, QueryOptions::with_strategy(strategy))
                .unwrap();
            let fresh = rebuilt
                .run(query, QueryOptions::with_strategy(strategy))
                .unwrap();
            assert_eq!(live.pairs(), fresh.pairs(), "{strategy} on {query}");
        }
    }
    println!(
        "\nlive database at epoch {} agrees with a from-scratch rebuild on every strategy ✔",
        db.epoch()
    );
    println!(
        "cumulative operator-tree work: {} pairs pulled (cursors flush on drop)",
        db.pairs_pulled_total()
    );
}
